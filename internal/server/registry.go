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
	// Version is the one number that names the model an entry serves. On a
	// node with a snapshot store it is the model's store version — saved by
	// the build or refresh that made it, adopted by the restore or sync that
	// loaded it — so it names one model on every node and across restarts.
	// A storeless node counts its own publishes (1, 2, …); nothing syncs
	// from such a node, so its numbers are never compared with another's.
	// Historical entries (History) carry the version they were loaded at.
	// The version keys the result cache and travels as the wire's
	// "generation".
	Version int
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
// "dataset/strategy") at version 1. Names must be unique and non-empty.
// Like every served entry it also answers ?version= its own version, 1,
// in place of any snapshot a store holds as v1 of the name: a name whose
// versions a store keeps is served through publish, never Register.
func (r *Registry) Register(name string, est core.Estimator, sch *schema.Schema) error {
	_, err := r.put(name, est, sch, 0, true)
	return err
}

// put is the one registry write: it serves est under name at version, or
// at the name's next version (its last one plus one) when version is 0, and
// returns the new entry. Register-or-swap is one step, so two writers of one name can
// never both believe they registered it; with mustBeNew a served name is
// refused instead. The replaced estimator keeps answering any queries that
// already looked it up — zero downtime — and becomes garbage once they
// drain.
func (r *Registry) put(name string, est core.Estimator, sch *schema.Schema, version int, mustBeNew bool) (Entry, error) {
	if name == "" {
		return Entry{}, fmt.Errorf("server: estimator name must not be empty")
	}
	if est == nil || sch == nil {
		return Entry{}, fmt.Errorf("server: estimator %q needs a non-nil estimator and schema", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, exists := r.entries[name]
	if exists && mustBeNew {
		return Entry{}, fmt.Errorf("server: estimator %q already registered", name)
	}
	if version == 0 {
		version = old.Version + 1
	}
	ent := Entry{Name: name, Estimator: est, Schema: sch, Version: version}
	r.entries[name] = ent
	return ent, nil
}

// Unregister removes a named estimator and reports whether it was
// present. The name's version count goes with it: a name registered again
// afterwards restarts at version 1. Nothing but the frozen bench/ module
// calls it.
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
