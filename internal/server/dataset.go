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
// swaps or registers a served registry entry or saves a served model.
//
// It saves first and swaps second, so a node with a store serves only what
// its store holds. The model's version is settled first: adopt > 0 names the
// store version est was loaded from (a restore, a replica's import);
// otherwise est is saved as its key's next version when a store is
// configured, and a storeless node numbers it after the one it replaces.
// Then the registry moves — Register when the name must be new (a build or a
// restore), the atomic register-or-swap otherwise. The result cache is left
// alone: every key names the version that answered (AppendKeyPrefix), so no
// live read meets the replaced version's answers.
//
// On an error nothing was published and the previous model, if any, still
// serves; what that costs is the caller's contract: a build fails, a refresh
// keeps its rows pending.
func publish(reg *Registry, st *store.Store, name string, est core.Estimator, sch *schema.Schema, adopt int, mustBeNew bool) (Entry, error) {
	version := adopt
	if version == 0 && st != nil {
		info, err := st.Save(name, est)
		if err != nil {
			return Entry{}, fmt.Errorf("server: snapshot %q: %w", name, err)
		}
		version = info.Version
	}
	return reg.put(name, est, sch, version, mustBeNew)
}

// BuildDataset builds the MaxEnt summary of one relation and registers it as
// "<dataset>/maxent", the dataset's one served model. With a store
// configured the model is saved as the key's next version before it is
// registered, and a failed save fails the build with nothing registered: a
// deployment that asked for persistence should not limp along serving an
// unsaved model.
func BuildDataset(reg *Registry, dataset string, rel *relation.Relation, opts DatasetOptions) (Entry, error) {
	if dataset == "" {
		return Entry{}, fmt.Errorf("server: dataset name must not be empty")
	}
	sum, err := summary.Build(rel, opts.Summary)
	if err != nil {
		return Entry{}, fmt.Errorf("server: dataset %q: maxent: %w", dataset, err)
	}
	return publish(reg, opts.Store, dataset+"/maxent", sum, rel.Schema(), 0, true)
}
