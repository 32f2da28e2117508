package main

import (
	"io"
	"os"
	"testing"

	"repro/internal/ci"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/summary"
)

// TestStaticReportMatchesGolden: the static report at seed 1 and the default
// flags reproduces the committed golden report, accuracy field by accuracy
// field, within 1e-9 — the same check as
//
//	go run ./cmd/experiment -seed 1 > report.json
//	go run ./cmd/cigates golden -golden testdata/golden_report.json -current report.json -tolerance 1e-9
func TestStaticReportMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden_report.json")
	if err != nil {
		t.Fatal(err)
	}
	report, err := staticReport(20000, 40, 1, 0.01, summary.Options{
		PairBudget:    2,
		PerPairBudget: 8,
		Heuristic:     stats.Composite,
		Solver:        solver.Options{MaxSweeps: 200},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	current, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := ci.CompareReports(golden, current, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Error(d)
	}
}
