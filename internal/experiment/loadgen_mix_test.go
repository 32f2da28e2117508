package experiment_test

import (
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/experiment"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/summary"
)

// TestDriveHTTPIngestMix drives a mixed read/ingest workload against a
// live dataset: queries keep succeeding, ingests land, and the refresh
// threshold produces at least one hot swap.
func TestDriveHTTPIngestMix(t *testing.T) {
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(2000, rand.New(rand.NewSource(3))))
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, server.LiveOptions{
		Dataset:     server.DatasetOptions{Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}}},
		RefreshRows: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{})
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sch := mut.Schema()
	rng := rand.New(rand.NewSource(5))
	pool := make([][]int, 120)
	for i := range pool {
		row := make([]int, sch.NumAttrs())
		for a := range row {
			row[a] = rng.Intn(sch.Attr(a).Size())
		}
		pool[i] = row
	}

	workload := experiment.GenerateWorkload(sch, 40, rand.New(rand.NewSource(4)))
	res, err := experiment.DriveHTTP(ts.URL, "demo/exact", workload, experiment.LoadOptions{
		Concurrency: 4,
		Repeat:      4,
		Ingest: &experiment.IngestMix{
			Dataset: "demo",
			Every:   8,
			Batch:   20,
			Rows:    pool,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 || res.IngestErrors > 0 {
		t.Fatalf("errors=%d ingest_errors=%d, first: %s", res.Errors, res.IngestErrors, res.FirstError)
	}
	// 160 slots, every 8th is an ingest → 20 ingests × 20 rows, and the
	// other 140 slots each send one read carrying one query.
	if res.IngestRequests != 20 || res.IngestedRows != 400 {
		t.Fatalf("ingests=%d rows=%d, want 20/400", res.IngestRequests, res.IngestedRows)
	}
	if res.Requests != 140 || res.HTTPRequests != 140 {
		t.Fatalf("requests=%d http_requests=%d, want 140/140", res.Requests, res.HTTPRequests)
	}
	if res.Refreshes == 0 {
		t.Fatal("no ingest crossed the 50-row refresh threshold")
	}
	if res.IngestMeanNS <= 0 {
		t.Fatalf("ingest mean latency %d", res.IngestMeanNS)
	}
	if got := mut.NumRows(); got != 2400 {
		t.Fatalf("relation grew to %d rows, want 2400", got)
	}

	// The ingest mix requires a pool.
	if _, err := experiment.DriveHTTP(ts.URL, "demo/exact", workload, experiment.LoadOptions{
		Ingest: &experiment.IngestMix{Dataset: "demo", Every: 2},
	}); err == nil {
		t.Fatal("DriveHTTP accepted an ingest mix without rows")
	}
}
