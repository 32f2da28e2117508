package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/exact"
	"repro/internal/relation"
	"repro/internal/summary"
)

// BranchOptions configure RunBranchCompare.
type BranchOptions struct {
	// BaseRows is the shared prefix both lineages fork from (default 20000).
	BaseRows int
	// Batches is the number of post-fork append batches per lineage
	// (default 10).
	Batches int
	// BatchRows is the rows per batch (default 1000).
	BatchRows int
	// Queries is the workload size used for the final accuracy check
	// (default 40).
	Queries int
	// Seed drives the data, the drift, and the workload.
	Seed int64
	// Summary configures the fork-point build.
	Summary summary.Options
	// Refresh configures the per-batch refreshes on both lineages.
	Refresh summary.RefreshOptions
}

func (o *BranchOptions) setDefaults() {
	if o.BaseRows <= 0 {
		o.BaseRows = 20000
	}
	if o.Batches <= 0 {
		o.Batches = 10
	}
	if o.BatchRows <= 0 {
		o.BatchRows = 1000
	}
	if o.Queries <= 0 {
		o.Queries = 40
	}
}

// BranchStep is one post-fork measurement: both lineages have absorbed
// `Batch` append batches, and the three pairwise diffs locate who moved.
type BranchStep struct {
	Batch      int `json:"batch"`
	MainRows   int `json:"main_rows"`
	BranchRows int `json:"branch_rows"`
	// MainVsBranchTV is the max per-attribute total-variation distance
	// between the two lineages' summaries — the divergence a /diff call
	// with b_dataset would report.
	MainVsBranchTV float64 `json:"main_vs_branch_tv"`
	// MainVsForkTV and BranchVsForkTV measure each lineage against the
	// frozen fork-point summary: the drifting lineage should pull away
	// while the stationary one stays near zero.
	MainVsForkTV   float64 `json:"main_vs_fork_tv"`
	BranchVsForkTV float64 `json:"branch_vs_fork_tv"`
	// MaxDriftAttr names the attribute dominating the main-vs-branch gap.
	MaxDriftAttr string `json:"max_drift_attr,omitempty"`
}

// BranchReport is the outcome of one branch-compare scenario.
type BranchReport struct {
	BaseRows  int          `json:"base_rows"`
	BatchRows int          `json:"batch_rows"`
	Schema    string       `json:"schema"`
	Steps     []BranchStep `json:"steps"`
	// MainMeanError and BranchMeanError score each lineage's final summary
	// against exact answers over its own relation — branching must not
	// cost either lineage accuracy.
	MainMeanError   float64 `json:"main_mean_error"`
	BranchMeanError float64 `json:"branch_mean_error"`
}

// stationaryBatch appends rows drawn from the fork point's own
// distribution (SyntheticRelation's), modeling a branch that keeps
// ingesting business-as-usual data while the main lineage drifts.
func stationaryBatch(mut *relation.Mutable, rows int, rng *rand.Rand) error {
	sch := mut.Schema()
	batch := make([][]int, 0, rows)
	for i := 0; i < rows; i++ {
		region := rng.Intn(4)
		product := (region + rng.Intn(2)) % 6
		if rng.Float64() < 0.1 {
			product = rng.Intn(6)
		}
		channel := rng.Intn(3)
		if region == 2 && rng.Float64() < 0.5 {
			channel = 0
		}
		amountBin, err := sch.Attr(3).Bin(rng.Float64() * 1000)
		if err != nil {
			return err
		}
		batch = append(batch, []int{region, product, channel, amountBin})
	}
	_, err := mut.AppendRows(batch)
	return err
}

// RunBranchCompare is the versioning counterpart of RunStreaming: one
// summary is built over a shared base (the fork point), then two lineages
// diverge — "main" ingests increasingly drifted batches while "branch"
// keeps ingesting the fork point's stationary distribution. After every
// batch both lineages refresh independently (delta statistics + warm
// solve) and the three pairwise summary.Diff reports quantify who moved:
// the same total-variation signal GET /diff serves, measured offline.
func RunBranchCompare(opts BranchOptions) (*BranchReport, error) {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	base := SyntheticRelation(opts.BaseRows, rng)

	fork, err := summary.Build(base, opts.Summary)
	if err != nil {
		return nil, fmt.Errorf("experiment: branch fork build: %w", err)
	}

	// Two mutable lineages over the same frozen prefix: each wraps its own
	// capacity-capped view of the base columns, so the fork rows are shared
	// zero-copy and the first append on either side opens a new part — the same
	// isolation POST /branch relies on. Wrapping `base` itself twice would
	// alias one relation under two mutation logs.
	mainView, err := base.Slice(0, base.NumRows())
	if err != nil {
		return nil, err
	}
	branchView, err := base.Slice(0, base.NumRows())
	if err != nil {
		return nil, err
	}
	mainMut := relation.NewMutable(mainView)
	branchMut := relation.NewMutable(branchView)
	mainSum, branchSum := fork, fork
	mainRng := rand.New(rand.NewSource(opts.Seed + 7))
	branchRng := rand.New(rand.NewSource(opts.Seed + 8))

	rep := &BranchReport{
		BaseRows:  opts.BaseRows,
		BatchRows: opts.BatchRows,
		Schema:    base.Schema().String(),
	}

	mainServed, branchServed := base.NumRows(), base.NumRows()
	advance := func(mut *relation.Mutable, sum *summary.Summary, served int) (*summary.Summary, int, error) {
		full, _ := mut.Freeze()
		delta, err := full.Slice(served, full.NumRows())
		if err != nil {
			return nil, 0, err
		}
		next, _, err := sum.Refresh(full, delta, opts.Refresh)
		if err != nil {
			return nil, 0, err
		}
		return next, full.NumRows(), nil
	}

	for batch := 1; batch <= opts.Batches; batch++ {
		t := float64(batch) / float64(opts.Batches)
		if err := driftBatch(mainMut, opts.BatchRows, t, mainRng); err != nil {
			return nil, fmt.Errorf("experiment: main batch %d: %w", batch, err)
		}
		if err := stationaryBatch(branchMut, opts.BatchRows, branchRng); err != nil {
			return nil, fmt.Errorf("experiment: branch batch %d: %w", batch, err)
		}
		if mainSum, mainServed, err = advance(mainMut, mainSum, mainServed); err != nil {
			return nil, fmt.Errorf("experiment: main refresh %d: %w", batch, err)
		}
		if branchSum, branchServed, err = advance(branchMut, branchSum, branchServed); err != nil {
			return nil, fmt.Errorf("experiment: branch refresh %d: %w", batch, err)
		}

		step := BranchStep{Batch: batch, MainRows: mainServed, BranchRows: branchServed}
		mb, err := summary.Diff(mainSum, branchSum)
		if err != nil {
			return nil, err
		}
		step.MainVsBranchTV = mb.MaxTotalVariation
		step.MaxDriftAttr = mb.MaxDriftAttr
		mf, err := summary.Diff(mainSum, fork)
		if err != nil {
			return nil, err
		}
		step.MainVsForkTV = mf.MaxTotalVariation
		bf, err := summary.Diff(branchSum, fork)
		if err != nil {
			return nil, err
		}
		step.BranchVsForkTV = bf.MaxTotalVariation
		rep.Steps = append(rep.Steps, step)
	}

	// Final accuracy: each lineage against exact answers over its own data.
	workload := GenerateWorkload(base.Schema(), opts.Queries, rand.New(rand.NewSource(opts.Seed+3)))
	var preds []Query
	for _, q := range workload {
		if !q.IsGroupBy() {
			preds = append(preds, q)
		}
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("experiment: branch workload has no counting queries")
	}
	mainFull, _ := mainMut.Freeze()
	branchFull, _ := branchMut.Freeze()
	if rep.MainMeanError, err = meanCountError(mainSum, exact.New(mainFull), preds); err != nil {
		return nil, err
	}
	if rep.BranchMeanError, err = meanCountError(branchSum, exact.New(branchFull), preds); err != nil {
		return nil, err
	}
	return rep, nil
}
