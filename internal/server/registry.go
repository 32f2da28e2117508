// Package server turns the repository's estimator stack into a long-lived
// HTTP/JSON query service: a concurrent-safe registry of named estimators,
// a bounded LRU result cache keyed by canonical query strings, rolling
// latency/QPS metrics, and the summaryd endpoint handlers (/query,
// /groupby, /estimators, /healthz, /metrics). The paper's premise is that
// a solved MaxEnt summary answers counting queries in interactive time
// without touching the data; this package is the serving shape that makes
// the claim measurable end to end.
package server

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/schema"
)

// Entry is one registered estimator together with the schema it answers
// over; the schema validates incoming predicates and advertises domain
// sizes to remote load generators.
type Entry struct {
	Name      string
	Estimator core.Estimator
	Schema    *schema.Schema
	// Generation counts the versions served under this name: 1 at first
	// registration, +1 per Swap. It flows into cache keys (so a swap can
	// never serve a previous generation's cached answers) and into the
	// /metrics staleness report.
	Generation uint64
	// Served is the newest snapshot-store version published under this name
	// — saved from, or adopted as, a model served here — and 0 when none was:
	// the version a restart restores and the serving pin protects. Only
	// publish moves it.
	Served int
	// Snapshot is 0 for live registry entries. Historical entries restored
	// by the History cache carry the snapshot version they answer from
	// instead of a generation: snapshots are immutable, so their cache
	// keys are keyed by version, not by swap count.
	Snapshot int
}

// Registry is a concurrent-safe map of named estimators. Registration,
// swapping, and lookup may interleave freely with request handling; the
// estimators themselves are read-only after registration (the
// core.Estimator contract), so replacing one is a pure pointer swap —
// in-flight queries finish on the version they looked up, new queries see
// the new one.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]Entry)}
}

// Register adds an estimator under the given name (conventionally
// "dataset/strategy"). Names must be unique and non-empty.
func (r *Registry) Register(name string, est core.Estimator, sch *schema.Schema) error {
	_, err := r.put(name, est, sch, true)
	return err
}

// Swap atomically makes est the estimator served under name and returns the
// entry: a name never seen is registered at generation 1, a served one moves
// to its next generation in one step, so two writers of one name can never
// both believe they registered it. The previous estimator keeps answering
// any queries that already looked it up — zero downtime — and becomes
// garbage once they drain. Callers that mean "must be new" use Register.
func (r *Registry) Swap(name string, est core.Estimator, sch *schema.Schema) (Entry, error) {
	return r.put(name, est, sch, false)
}

// put is the one registry write under Register and Swap.
func (r *Registry) put(name string, est core.Estimator, sch *schema.Schema, mustBeNew bool) (Entry, error) {
	if name == "" {
		return Entry{}, fmt.Errorf("server: estimator name must not be empty")
	}
	if est == nil || sch == nil {
		return Entry{}, fmt.Errorf("server: estimator %q needs a non-nil estimator and schema", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, exists := r.entries[name] // the zero Entry when absent
	if exists && mustBeNew {
		return Entry{}, fmt.Errorf("server: estimator %q already registered", name)
	}
	next := Entry{Name: name, Estimator: est, Schema: sch, Generation: old.Generation + 1, Served: old.Served}
	r.entries[name] = next
	return next, nil
}

// markServed records version as the store version behind name's entry and
// returns the one it replaces (0 when there was none, or no such entry).
func (r *Registry) markServed(name string, version int) (prev int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return 0
	}
	prev, e.Served = e.Served, version
	r.entries[name] = e
	return prev
}

// Unregister removes a named estimator and reports whether it was
// present. Serving code never unregisters; it exists for startup
// reconciliation (dropping a partial snapshot restore before a rebuild
// re-registers the full strategy set).
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return false
	}
	delete(r.entries, name)
	return true
}

// Get looks an estimator up by name.
func (r *Registry) Get(name string) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Entries returns all registered entries sorted by name.
func (r *Registry) Entries() []Entry {
	r.mu.RLock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered estimators.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
