// Command summarize builds a MaxEnt summary offline and persists it as a
// versioned snapshot, decoupling the expensive stats→polynomial→solver
// pipeline from serving: run summarize once (in a batch job, on a beefy
// machine), then cold-start any number of summaryd replicas from the
// snapshot store in time proportional to the summary size — the relation
// is never needed again.
//
//	go run ./cmd/summarize -store ./snapshots -dataset demo -rows 20000
//	go run ./cmd/summaryd  -store ./snapshots -dataset demo   # restores, no rebuild
//
// The input is either the repository's standard synthetic generator
// (-rows/-seed) or a CSV file (-csv) loaded through the relation
// package's schema inference (numeric columns are equi-width binned via
// -bins, everything else is categorical). Snapshot metadata is printed as
// JSON on stdout; progress goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/summary"
)

func main() {
	var (
		storeDir   = flag.String("store", "", "snapshot store directory (required; created if missing)")
		dataset    = flag.String("dataset", "demo", "dataset name snapshots are stored under")
		csvPath    = flag.String("csv", "", "CSV file to summarize (default: the synthetic generator)")
		bins       = flag.Int("bins", 16, "equi-width buckets for numeric CSV columns (at most 65536)")
		rows       = flag.Int("rows", 20000, "synthetic relation cardinality (ignored with -csv)")
		seed       = flag.Int64("seed", 1, "synthetic data seed (ignored with -csv)")
		pairBudget = flag.Int("pairs", 2, "attribute pairs receiving 2D statistics (B_a)")
		perPair    = flag.Int("per-pair", 8, "2D statistics per pair (B_s)")
		heuristic  = flag.String("heuristic", "COMPOSITE", "bucket heuristic: LARGE, ZERO, or COMPOSITE")
		sweeps     = flag.Int("sweeps", 200, "solver sweep budget")
		keep       = flag.Int("keep", 0, "after saving, prune each dataset to its newest N versions (0 keeps all)")
	)
	flag.Parse()

	if err := validate(*storeDir, *rows, *bins, *sweeps, *keep); err != nil {
		fmt.Fprintf(os.Stderr, "summarize: %v\n", err)
		os.Exit(2)
	}
	h, err := stats.ParseHeuristic(*heuristic)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summarize: %v\n", err)
		os.Exit(2)
	}
	// Fail fast on an unusable store before any solver work happens.
	st, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summarize: %v\n", err)
		os.Exit(2)
	}

	rel, err := loadRelation(*csvPath, *bins, *rows, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summarize: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "relation: %s, %d rows\n", rel.Schema(), rel.NumRows())

	opts := summary.Options{
		PairBudget:    *pairBudget,
		PerPairBudget: *perPair,
		Heuristic:     h,
		Solver:        solver.Options{MaxSweeps: *sweeps},
	}

	// The model is exactly what a summaryd primary builds and saves for the
	// dataset, so a summaryd started on this store restores it instead.
	buildStart := time.Now()
	ent, err := server.BuildDataset(server.NewRegistry(), *dataset, rel, server.DatasetOptions{Summary: opts, Store: st})
	if err != nil {
		fmt.Fprintf(os.Stderr, "summarize: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "built %s in %v (%s)\n",
		ent.Name, time.Since(buildStart).Round(time.Millisecond), ent.Estimator.(*summary.Summary).SolverReport())

	if *keep > 0 {
		removed, err := st.Prune(ent.Name, *keep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "summarize: %v\n", err)
			os.Exit(1)
		}
		if len(removed) > 0 {
			fmt.Fprintf(os.Stderr, "pruned %d old version(s) of %s\n", len(removed), ent.Name)
		}
	}
	_, info, err := st.ReadFramed(ent.Name, ent.Served)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summarize: %v\n", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]store.SnapshotInfo{info}); err != nil {
		fmt.Fprintf(os.Stderr, "summarize: %v\n", err)
		os.Exit(1)
	}
}

// loadRelation reads the CSV when given, falling back to the shared
// synthetic generator.
func loadRelation(csvPath string, bins, rows int, seed int64) (*relation.Relation, error) {
	if csvPath == "" {
		return experiment.SyntheticRelation(rows, rand.New(rand.NewSource(seed))), nil
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.LoadCSV(f, relation.CSVOptions{Bins: bins})
}

// validate rejects nonsensical flag values up front, consistent with the
// other commands.
func validate(storeDir string, rows, bins, sweeps, keep int) error {
	if storeDir == "" {
		return fmt.Errorf("-store is required (the directory snapshots are written to)")
	}
	if rows <= 0 {
		return fmt.Errorf("-rows must be positive, got %d", rows)
	}
	if bins <= 0 {
		return fmt.Errorf("-bins must be positive, got %d", bins)
	}
	if sweeps <= 0 {
		return fmt.Errorf("-sweeps must be positive, got %d", sweeps)
	}
	if keep < 0 {
		return fmt.Errorf("-keep must be non-negative (0 keeps all), got %d", keep)
	}
	return nil
}
