package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/relation"
	"repro/internal/sampling"
	"repro/internal/store"
	"repro/internal/summary"
)

// snapshotOnBuild persists a freshly-built summary when a store is
// configured. A failed save fails the build loudly: a deployment that
// asked for persistence should not limp along serving an unsaved model.
func snapshotOnBuild(st *store.Store, name string, est core.Estimator) error {
	if st == nil {
		return nil
	}
	if _, err := st.Save(name, est); err != nil {
		return fmt.Errorf("server: snapshot %q on build: %w", name, err)
	}
	return nil
}

// DatasetOptions configure BuildDataset. The zero value builds only the
// exact engine and the MaxEnt summary with summary.Options defaults.
type DatasetOptions struct {
	// Summary configures the MaxEnt build.
	Summary summary.Options
	// Partitions, when > 0, additionally builds a K-way partitioned
	// summary (registered as "<dataset>/partitioned").
	Partitions int
	// SampleRate, when > 0, additionally builds uniform and stratified
	// sampling baselines at this rate ("<dataset>/uniform",
	// "<dataset>/stratified").
	SampleRate float64
	// SampleSeed seeds the baselines' reservoir draws.
	SampleSeed int64
	// SkipExact leaves the full-scan engine out (for deployments that must
	// not retain the relation).
	SkipExact bool
	// Store, when non-nil, persists every solved summary the build
	// produces as a new snapshot version under "<dataset>/<strategy>", so
	// the next cold start can restore instead of rebuild.
	Store *store.Store
}

// BuildDataset runs the summarization pipeline over one relation and
// registers every resulting estimator under "<dataset>/<strategy>" names:
// always "<dataset>/maxent", plus "/exact", "/partitioned", "/uniform",
// and "/stratified" as configured. It returns the registered names.
func BuildDataset(reg *Registry, dataset string, rel *relation.Relation, opts DatasetOptions) ([]string, error) {
	if dataset == "" {
		return nil, fmt.Errorf("server: dataset name must not be empty")
	}
	sch := rel.Schema()
	var names []string

	sum, err := summary.Build(rel, opts.Summary)
	if err != nil {
		return nil, fmt.Errorf("server: dataset %q: summary build: %w", dataset, err)
	}
	name := dataset + "/maxent"
	if err := reg.Register(name, sum, sch); err != nil {
		return nil, err
	}
	if err := snapshotOnBuild(opts.Store, name, sum); err != nil {
		return nil, err
	}
	names = append(names, name)

	if !opts.SkipExact {
		name = dataset + "/exact"
		if err := reg.Register(name, exact.New(rel), sch); err != nil {
			return nil, err
		}
		names = append(names, name)
	}

	if opts.Partitions > 0 {
		psum, err := summary.BuildPartitioned(rel, summary.PartitionedOptions{
			Partitions: opts.Partitions,
			Base:       opts.Summary,
		})
		if err != nil {
			return nil, fmt.Errorf("server: dataset %q: partitioned build: %w", dataset, err)
		}
		name = dataset + "/partitioned"
		if err := reg.Register(name, psum, sch); err != nil {
			return nil, err
		}
		if err := snapshotOnBuild(opts.Store, name, psum); err != nil {
			return nil, err
		}
		names = append(names, name)
	}

	if opts.SampleRate > 0 {
		uni, err := sampling.UniformSeeded(rel, opts.SampleRate, opts.SampleSeed+1)
		if err != nil {
			return nil, fmt.Errorf("server: dataset %q: uniform sample: %w", dataset, err)
		}
		name = dataset + "/uniform"
		if err := reg.Register(name, uni, sch); err != nil {
			return nil, err
		}
		names = append(names, name)

		strataAttrs := []int{0}
		if pcs := sum.ChosenPairs(); len(pcs) > 0 {
			strataAttrs = []int{pcs[0].A1, pcs[0].A2}
		} else if sch.NumAttrs() > 1 {
			strataAttrs = []int{0, 1}
		}
		strat, err := sampling.StratifiedSeeded(rel, strataAttrs, opts.SampleRate, 1, opts.SampleSeed+2)
		if err != nil {
			return nil, fmt.Errorf("server: dataset %q: stratified sample: %w", dataset, err)
		}
		name = dataset + "/stratified"
		if err := reg.Register(name, strat, sch); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}
