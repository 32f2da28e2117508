package experiment

import (
	"testing"

	"repro/internal/solver"
	"repro/internal/summary"
)

// TestRunStreamingDriftScenario runs a small streaming scenario and
// verifies its structural claims: the refreshed summary tracks the
// drifting data where the stale one falls behind, and every step's
// numbers are well-formed.
func TestRunStreamingDriftScenario(t *testing.T) {
	rep, err := RunStreaming(StreamingOptions{
		BaseRows:  4000,
		Batches:   5,
		BatchRows: 800,
		Queries:   32,
		Seed:      1,
		Summary:   summary.Options{Solver: solver.Options{MaxSweeps: 300}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 5 {
		t.Fatalf("%d steps, want 5", len(rep.Steps))
	}
	for i, s := range rep.Steps {
		if s.Batch != i+1 {
			t.Fatalf("step %d has batch %d", i, s.Batch)
		}
		if want := 4000 + (i+1)*800; s.TotalRows != want {
			t.Fatalf("step %d: total rows %d, want %d", i, s.TotalRows, want)
		}
		if s.RefreshSweeps <= 0 {
			t.Fatalf("step %d: refresh sweeps %d", i, s.RefreshSweeps)
		}
		if s.StaleMeanError < 0 || s.RefreshedMeanError < 0 {
			t.Fatalf("step %d: negative errors %+v", i, s)
		}
	}

	// By the last batch, 4000 of the 8000 rows came from the drifted
	// distribution the stale summary has never seen: the refreshed summary
	// must be meaningfully more accurate.
	last := rep.Steps[len(rep.Steps)-1]
	if last.RefreshedMeanError >= last.StaleMeanError {
		t.Fatalf("after drift, refreshed error %.4f is not below stale error %.4f",
			last.RefreshedMeanError, last.StaleMeanError)
	}
}
