package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/metrics"
	"repro/internal/relation"
	"repro/internal/summary"
)

// StreamingOptions configure RunStreaming.
type StreamingOptions struct {
	// BaseRows is the relation size the initial summary is built over
	// (default 20000).
	BaseRows int
	// Batches is the number of append batches (default 10).
	Batches int
	// BatchRows is the rows per batch (default 1000).
	BatchRows int
	// Queries is the workload size scored after every batch (default 40).
	Queries int
	// Seed drives the data, the drift, and the workload.
	Seed int64
	// Summary configures the initial build; its Solver options configure
	// the per-batch refreshes too.
	Summary summary.Options
}

func (o *StreamingOptions) setDefaults() {
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

// StreamingStep is the measurement after one append batch.
type StreamingStep struct {
	Batch     int `json:"batch"`
	TotalRows int `json:"total_rows"`
	// StaleMeanError is the mean relative error of the summary built at
	// batch 0 and never refreshed, scored against the exact answers over
	// the grown relation.
	StaleMeanError float64 `json:"stale_mean_error"`
	// RefreshedMeanError is the same measure for the summary refreshed
	// after every batch.
	RefreshedMeanError float64 `json:"refreshed_mean_error"`
	// RefreshSweeps is the solver sweep count of this batch's refresh.
	RefreshSweeps int `json:"refresh_sweeps"`
	// Rebuilt reports whether the refresh solved cold, the batch being past
	// the drift threshold.
	Rebuilt bool `json:"rebuilt"`
	// RefreshNS is the wall-clock cost of the whole Refresh call
	// (statistics update plus solve) in nanoseconds.
	RefreshNS int64 `json:"refresh_ns"`
}

// StreamingReport is the outcome of one streaming-drift scenario.
type StreamingReport struct {
	BaseRows  int             `json:"base_rows"`
	BatchRows int             `json:"batch_rows"`
	Schema    string          `json:"schema"`
	Queries   int             `json:"num_queries"`
	Steps     []StreamingStep `json:"steps"`
}

// driftBatch appends rows whose distribution drifts away from
// SyntheticRelation's: with drift t ∈ [0, 1], an increasing share of rows
// concentrates on region=LATAM with high amounts, so the region marginal
// and the (region, product) joint both move — exactly the change a stale
// summary cannot see.
func driftBatch(mut *relation.Mutable, rows int, t float64, rng *rand.Rand) error {
	sch := mut.Schema()
	batch := make([][]int, 0, rows)
	for i := 0; i < rows; i++ {
		var region, product, channel int
		if rng.Float64() < 0.3+0.6*t {
			region = 3 // LATAM surge
			product = 5
			channel = rng.Intn(3)
		} else {
			region = rng.Intn(4)
			product = (region + rng.Intn(2)) % 6
			if rng.Float64() < 0.1 {
				product = rng.Intn(6)
			}
			channel = rng.Intn(3)
			if region == 2 && rng.Float64() < 0.5 {
				channel = 0
			}
		}
		hi := 1000 * (0.5 + 0.5*t)
		amountBin, err := sch.Attr(3).Bin(rng.Float64() * hi)
		if err != nil {
			return err
		}
		batch = append(batch, []int{region, product, channel, amountBin})
	}
	_, err := mut.AppendRows(batch)
	return err
}

// RunStreaming measures accuracy drift under live ingestion: it builds
// one summary over the base relation, then appends drifting batches and
// after each batch scores (a) the stale summary, never refreshed, and
// (b) a per-batch-refreshed summary, both against exact answers over the
// grown relation. The gap between the two error curves is the value of
// the refresh pipeline; the sweep counts record what each refresh cost.
func RunStreaming(opts StreamingOptions) (*StreamingReport, error) {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	mut := relation.NewMutable(SyntheticRelation(opts.BaseRows, rng))
	base, _ := mut.Freeze()

	stale, err := summary.Build(base, opts.Summary)
	if err != nil {
		return nil, fmt.Errorf("experiment: streaming base build: %w", err)
	}
	refreshed := stale

	workload := GenerateWorkload(base.Schema(), opts.Queries, rand.New(rand.NewSource(opts.Seed+3)))
	// Streaming scores only counting queries: group-by scoring mixes
	// F-measure into the comparison and obscures the drift curve.
	var preds []Query
	for _, q := range workload {
		if !q.IsGroupBy() {
			preds = append(preds, q)
		}
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("experiment: streaming workload has no counting queries")
	}

	rep := &StreamingReport{
		BaseRows:  opts.BaseRows,
		BatchRows: opts.BatchRows,
		Schema:    base.Schema().String(),
		Queries:   len(preds),
	}

	servedRows := base.NumRows()
	for batch := 1; batch <= opts.Batches; batch++ {
		t := float64(batch) / float64(opts.Batches)
		if err := driftBatch(mut, opts.BatchRows, t, rng); err != nil {
			return nil, fmt.Errorf("experiment: streaming batch %d: %w", batch, err)
		}
		full, _ := mut.Freeze()
		delta, err := full.Slice(servedRows, full.NumRows())
		if err != nil {
			return nil, err
		}

		refreshStart := time.Now()
		next, info, err := refreshed.Refresh(full, delta, summary.RefreshOptions{Solver: opts.Summary.Solver})
		if err != nil {
			return nil, fmt.Errorf("experiment: streaming refresh %d: %w", batch, err)
		}
		refreshNS := time.Since(refreshStart).Nanoseconds()
		refreshed = next
		servedRows = full.NumRows()

		truth := exact.New(full)
		step := StreamingStep{
			Batch:         batch,
			TotalRows:     full.NumRows(),
			RefreshSweeps: info.Solver.Sweeps,
			Rebuilt:       info.Rebuilt,
			RefreshNS:     refreshNS,
		}
		step.StaleMeanError, err = meanCountError(stale, truth, preds)
		if err != nil {
			return nil, err
		}
		step.RefreshedMeanError, err = meanCountError(refreshed, truth, preds)
		if err != nil {
			return nil, err
		}
		rep.Steps = append(rep.Steps, step)
	}
	return rep, nil
}

// meanCountError scores one estimator's counting answers against exact.
func meanCountError(est core.Estimator, truth *exact.Engine, preds []Query) (float64, error) {
	var errs []float64
	for _, q := range preds {
		e, err := est.EstimateCount(q.Pred)
		if err != nil {
			return 0, fmt.Errorf("experiment: streaming query %s: %w", q.Name, err)
		}
		errs = append(errs, metrics.RelativeError(truth.Count(q.Pred), e))
	}
	return metrics.Mean(errs), nil
}
