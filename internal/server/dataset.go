package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/summary"
)

// This file is the write path (docs/ARCHITECTURE.md, "The write path"): a
// dataset serves one model, "<dataset>/maxent", and publish makes a model the
// served one — a build's, a refresh's (Live), or one the store already holds
// (a restore, a replica's sync).

// DatasetOptions configure BuildDataset. The zero value builds the MaxEnt
// summary with summary.Options defaults and persists nothing.
type DatasetOptions struct {
	// Summary configures the MaxEnt build.
	Summary summary.Options
	// Deprecated: ignored, as no node serves the exact engine; kept only because bench/ sets it.
	SkipExact bool
	// Store, when non-nil, persists every model the dataset publishes as a
	// new snapshot version under "<dataset>/maxent", so the next cold start
	// can restore instead of rebuild.
	Store *store.Store
}

// publish makes est the model served under name. It is the only code that
// swaps or registers a served registry entry, fences the result cache for a
// name, saves a served model or moves a serving pin.
//
// The registry moves first — Register when the name must be new (a build or a
// restore), the atomic register-or-swap otherwise — and the replaced
// generation's cached answers go with it, so nothing below can cost freshness.
// Then the model's store version is settled: adopt > 0 names the version est
// was loaded from (a restore, a replica's import), otherwise est is saved as
// its key's next version when a store is configured. The version is recorded
// on the entry (Entry.Served) and the serving pin follows it, so a prune can
// never delete what a restart would need.
//
// An error with a non-zero Entry means the model is served but not persisted;
// what that costs is the caller's contract: a build fails, a refresh reports
// it beside a successful swap.
func publish(reg *Registry, cache *Cache, st *store.Store, name string, est core.Estimator, sch *schema.Schema, adopt int, mustBeNew bool) (Entry, error) {
	ent, err := reg.put(name, est, sch, mustBeNew)
	if err != nil {
		return Entry{}, err
	}
	if cache != nil {
		cache.InvalidatePrefix(name + "\x00")
	}
	version := adopt
	if version == 0 {
		if st == nil {
			return ent, nil
		}
		info, err := st.Save(name, est)
		if err != nil {
			return ent, fmt.Errorf("server: snapshot %q: %w", name, err)
		}
		version = info.Version
	}
	if prev := reg.markServed(name, version); prev > 0 {
		st.Unpin(name, prev)
	}
	st.Pin(name, version)
	ent.Served = version
	return ent, nil
}

// BuildDataset builds the MaxEnt summary of one relation and registers it as
// "<dataset>/maxent", the dataset's one served model. With a store
// configured the model is saved as the key's next version, and a failed save
// fails the build: a deployment that asked for persistence should not limp
// along serving an unsaved model.
func BuildDataset(reg *Registry, dataset string, rel *relation.Relation, opts DatasetOptions) (Entry, error) {
	if dataset == "" {
		return Entry{}, fmt.Errorf("server: dataset name must not be empty")
	}
	sum, err := summary.Build(rel, opts.Summary)
	if err != nil {
		return Entry{}, fmt.Errorf("server: dataset %q: maxent: %w", dataset, err)
	}
	return publish(reg, nil, opts.Store, dataset+"/maxent", sum, rel.Schema(), 0, true)
}
