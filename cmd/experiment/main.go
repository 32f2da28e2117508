// Command experiment is the repository's end-to-end scenario and the home of
// the paper's comparison: it generates a synthetic correlated relation,
// builds a MaxEnt summary and draws the uniform and stratified sampling
// baselines itself (a served dataset holds only the model and the exact
// engine), runs a mixed counting/group-by workload through every strategy
// behind the shared core.Estimator interface, and prints the
// machine-readable accuracy/latency report as JSON on stdout.
//
// An alternative scenario replaces the static report: -stream N runs the
// streaming-drift comparison (stale vs per-batch-refreshed summaries
// under drifting appends).
//
// All randomness is seeded, so two runs with the same flags produce the
// same report (modulo latency fields).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiment"
	"repro/internal/sampling"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/summary"
)

func main() {
	var (
		rows          = flag.Int("rows", 20000, "synthetic relation cardinality")
		queries       = flag.Int("queries", 40, "workload size")
		seed          = flag.Int64("seed", 1, "seed for data, samples, and workload")
		rate          = flag.Float64("rate", 0.01, "sampling rate of the baselines")
		pairBudget    = flag.Int("pairs", 2, "attribute pairs receiving 2D statistics (B_a)")
		perPair       = flag.Int("per-pair", 8, "2D statistics per pair (B_s)")
		heuristic     = flag.String("heuristic", "COMPOSITE", "bucket heuristic: LARGE, ZERO, or COMPOSITE")
		sweeps        = flag.Int("sweeps", 200, "solver sweep budget")
		streamBatches = flag.Int("stream", 0, "when > 0, run the streaming-drift scenario with this many append batches instead of the static report")
		streamRows    = flag.Int("stream-rows", 1000, "rows per streaming batch (with -stream)")
	)
	flag.Parse()

	if err := validate(*rows, *queries, *rate, *sweeps); err != nil {
		fmt.Fprintf(os.Stderr, "experiment: %v\n", err)
		os.Exit(2)
	}
	h, err := stats.ParseHeuristic(*heuristic)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment: %v\n", err)
		os.Exit(2)
	}
	buildOpts := summary.Options{
		PairBudget:    *pairBudget,
		PerPairBudget: *perPair,
		Heuristic:     h,
		Solver:        solver.Options{MaxSweeps: *sweeps},
	}

	// The streaming-drift scenario replaces the static accuracy report: it
	// measures how a never-refreshed summary decays as drifting batches
	// arrive, against one refreshed (delta stats + warm solve) per batch.
	if *streamBatches > 0 {
		if *streamRows <= 0 {
			fmt.Fprintf(os.Stderr, "experiment: -stream-rows must be positive, got %d\n", *streamRows)
			os.Exit(2)
		}
		rep, err := experiment.RunStreaming(experiment.StreamingOptions{
			BaseRows:  *rows,
			Batches:   *streamBatches,
			BatchRows: *streamRows,
			Queries:   *queries,
			Seed:      *seed,
			Summary:   buildOpts,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range rep.Steps {
			fmt.Fprintf(os.Stderr, "batch %d (%d rows): stale err %.4f, refreshed err %.4f (%d sweeps, rebuilt=%t)\n",
				s.Batch, s.TotalRows, s.StaleMeanError, s.RefreshedMeanError, s.RefreshSweeps, s.Rebuilt)
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	report, err := staticReport(*rows, *queries, *seed, *rate, buildOpts, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	if err := report.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// staticReport is the paper's static comparison (Sec. 6). Over a synthetic
// relation of the given size it builds the MaxEnt summary and the uniform and
// stratified samples at rate, then scores them and the exact engine — the
// ground truth, reported last — on one generated workload. The seed draws the
// data; seed+1 and seed+2 the two samples; seed+3 the workload. Progress goes
// to progress.
func staticReport(rows, queries int, seed int64, rate float64, opts summary.Options, progress io.Writer) (*experiment.Report, error) {
	rel := experiment.SyntheticRelation(rows, rand.New(rand.NewSource(seed)))
	fmt.Fprintf(progress, "relation: %s, %d rows\n", rel.Schema(), rel.NumRows())
	sum, err := summary.Build(rel, opts)
	if err != nil {
		return nil, fmt.Errorf("maxent: %w", err)
	}
	fmt.Fprintf(progress, "%s\n", sum.SolverReport())
	uni, err := sampling.Uniform(rel, rate, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, fmt.Errorf("uniform sample: %w", err)
	}
	// Stratify on the attributes the model itself found most correlated.
	strata := []int{0, 1}
	if pcs := sum.ChosenPairs(); len(pcs) > 0 {
		strata = []int{pcs[0].A1, pcs[0].A2}
	}
	strat, err := sampling.Stratified(rel, strata, rate, 1, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return nil, fmt.Errorf("stratified sample: %w", err)
	}
	truth := exact.New(rel)
	workload := experiment.GenerateWorkload(rel.Schema(), queries, rand.New(rand.NewSource(seed+3)))
	return experiment.Run(truth, []core.Estimator{sum, uni, strat, truth}, workload, experiment.Options{})
}

// validate rejects nonsensical flag values up front with actionable
// messages, instead of letting them panic or log.Fatal deep inside the
// pipeline.
func validate(rows, queries int, rate float64, sweeps int) error {
	if rows <= 0 {
		return fmt.Errorf("-rows must be positive, got %d", rows)
	}
	if queries <= 0 {
		return fmt.Errorf("-queries must be positive, got %d", queries)
	}
	if rate <= 0 || rate > 1 {
		return fmt.Errorf("-rate must be in (0,1], got %g", rate)
	}
	if sweeps <= 0 {
		return fmt.Errorf("-sweeps must be positive, got %d", sweeps)
	}
	return nil
}
