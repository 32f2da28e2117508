package server

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/summary"
)

// This file is the write path (docs/ARCHITECTURE.md, "The write path"):
// Derive turns a relation into the strategies a dataset serves, publish makes
// one of them the served model. A build is a refresh from nothing; a restore
// or a replica's sync publishes a model the store already holds.

// DatasetOptions configure BuildDataset. The zero value builds only the
// exact engine and the MaxEnt summary with summary.Options defaults.
type DatasetOptions struct {
	// Summary configures the MaxEnt build.
	Summary summary.Options
	// SkipExact leaves the full-scan engine out (for deployments that must
	// not retain the relation).
	SkipExact bool
	// Store, when non-nil, persists every solved summary the build
	// produces as a new snapshot version under "<dataset>/<strategy>", so
	// the next cold start can restore instead of rebuild.
	Store *store.Store
}

// Strategy is one estimator a dataset serves, under the registry name and
// store key "<dataset>/<strategy>".
type Strategy struct {
	Name      string
	Estimator core.Estimator
}

// Derive computes every strategy the options ask for over rel, in serving
// order: "<dataset>/maxent" first, then "/exact" unless skipped. With
// prev == nil the MaxEnt summary is built from scratch; otherwise rel is
// prev's relation grown by appended rows and the summary is prev refreshed by
// that suffix (summary.Refresh: the delta folded in, then a warm or, past
// its drift threshold, a cold solve). Nothing is registered or saved; the
// RefreshInfo carries the MaxEnt solve's report either way.
func Derive(dataset string, rel *relation.Relation, opts DatasetOptions, prev *summary.Summary) ([]Strategy, summary.RefreshInfo, error) {
	var (
		sum  *summary.Summary
		info summary.RefreshInfo
		err  error
	)
	if prev == nil {
		if sum, err = summary.Build(rel, opts.Summary); err == nil {
			info.Solver = sum.SolverReport()
		}
	} else {
		var delta *relation.Relation
		if delta, err = rel.Slice(int(prev.N()), rel.NumRows()); err == nil {
			sum, info, err = prev.Refresh(rel, delta, summary.RefreshOptions{Solver: opts.Summary.Solver})
		}
	}
	if err != nil {
		return nil, info, fmt.Errorf("server: dataset %q: maxent: %w", dataset, err)
	}
	list := []Strategy{{dataset + "/maxent", sum}}
	if !opts.SkipExact {
		list = append(list, Strategy{dataset + "/exact", exact.New(rel)})
	}
	return list, info, nil
}

// publish makes s the model served under its name. It is the only code that
// swaps or registers a served registry entry, fences the result cache for a
// name, saves a served model or moves a serving pin.
//
// The registry moves first — Register when the name must be new (a build or a
// restore), the atomic register-or-swap otherwise — and the replaced
// generation's cached answers go with it, so nothing below can cost freshness.
// Then the model's store version is settled: adopt > 0 names the version s
// was loaded from (a restore, a replica's import), otherwise s is saved as its
// key's next version when a store is configured and s is a solved model (the
// exact engine answers from rows; the store refuses it before any I/O). The
// version is recorded on the entry (Entry.Served) and the serving pin follows
// it, so a prune can never delete what a restart would need.
//
// An error with a non-zero Entry means the model is served but not persisted;
// what that costs is the caller's contract: a build fails, a refresh reports
// it beside a successful swap.
func publish(reg *Registry, cache *Cache, st *store.Store, s Strategy, sch *schema.Schema, adopt int, mustBeNew bool) (Entry, error) {
	ent, err := reg.put(s.Name, s.Estimator, sch, mustBeNew)
	if err != nil {
		return Entry{}, err
	}
	if cache != nil {
		cache.InvalidatePrefix(s.Name + "\x00")
	}
	version := adopt
	if version == 0 {
		if st == nil {
			return ent, nil
		}
		info, err := st.Save(s.Name, s.Estimator)
		if errors.Is(err, summary.ErrNotSnapshotable) {
			return ent, nil
		}
		if err != nil {
			return ent, fmt.Errorf("server: snapshot %q: %w", s.Name, err)
		}
		version = info.Version
	}
	if prev := reg.markServed(s.Name, version); prev > 0 {
		st.Unpin(s.Name, prev)
	}
	st.Pin(s.Name, version)
	ent.Served = version
	return ent, nil
}

// BuildDataset runs the summarization pipeline over one relation and
// registers every resulting estimator under "<dataset>/<strategy>" names:
// always "<dataset>/maxent", plus "/exact" unless skipped. It returns the
// registered names. With a
// store configured a failed save fails the build: a deployment that asked
// for persistence should not limp along serving an unsaved model.
func BuildDataset(reg *Registry, dataset string, rel *relation.Relation, opts DatasetOptions) ([]string, error) {
	if dataset == "" {
		return nil, fmt.Errorf("server: dataset name must not be empty")
	}
	list, _, err := Derive(dataset, rel, opts, nil)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(list))
	for i, s := range list {
		if _, err := publish(reg, nil, opts.Store, s, rel.Schema(), 0, true); err != nil {
			return nil, err
		}
		names[i] = s.Name
	}
	return names, nil
}
