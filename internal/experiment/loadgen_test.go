package experiment_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/exact"
	"repro/internal/experiment"
	"repro/internal/server"
)

// TestDriveHTTP spins up a real server over the exact engine and replays a
// workload through the load generator twice: the second pass must be
// served from the result cache, and the aggregates must be internally
// consistent.
func TestDriveHTTP(t *testing.T) {
	rel := experiment.SyntheticRelation(2000, rand.New(rand.NewSource(3)))
	reg := server.NewRegistry()
	if err := reg.Register("demo/exact", exact.New(rel), rel.Schema()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	workload := experiment.GenerateWorkload(rel.Schema(), 30, rand.New(rand.NewSource(4)))
	res, err := experiment.DriveHTTP(ts.URL, "demo/exact", workload, experiment.LoadOptions{
		Concurrency: 4,
		Repeat:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d request errors, first: %s", res.Errors, res.FirstError)
	}
	if res.Requests != 60 {
		t.Fatalf("requests = %d, want 60", res.Requests)
	}
	// The second replay (and any duplicate queries in the first) hits the
	// cache: at least the 30 repeats must come back cached.
	if res.CachedResponses < 30 {
		t.Fatalf("cached_responses = %d, want >= 30", res.CachedResponses)
	}
	if res.ThroughputQPS <= 0 || res.LatencyP50NS <= 0 || res.LatencyP95NS < res.LatencyP50NS {
		t.Fatalf("inconsistent aggregates: %+v", res)
	}

	// Unknown estimator: every request fails, reported not swallowed.
	res, err = experiment.DriveHTTP(ts.URL, "demo/missing", workload[:3], experiment.LoadOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 3 || res.FirstError == "" {
		t.Fatalf("errors = %d (%q), want 3 with a representative message", res.Errors, res.FirstError)
	}

	// Transport failures (server gone) must not pollute the latency
	// quantiles with zero samples.
	ts.Close()
	res, err = experiment.DriveHTTP(ts.URL, "demo/exact", workload[:3], experiment.LoadOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 3 {
		t.Fatalf("errors = %d, want 3 after server shutdown", res.Errors)
	}
	if res.LatencyP50NS != 0 || res.LatencyMeanNS != 0 {
		t.Fatalf("all-failed run reported latencies: %+v", res)
	}
}

// TestDriveHTTPRouters proves the round-robin target rotation: two
// front-ends over the same estimator each receive an even share of the
// requests, and baseURL receives none.
func TestDriveHTTPRouters(t *testing.T) {
	rel := experiment.SyntheticRelation(500, rand.New(rand.NewSource(5)))
	reg := server.NewRegistry()
	if err := reg.Register("demo/exact", exact.New(rel), rel.Schema()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{})
	counted := func(hits *atomic.Int64) http.Handler {
		h := srv.Handler()
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			h.ServeHTTP(w, r)
		})
	}
	var hitsA, hitsB, hitsBase atomic.Int64
	tsA := httptest.NewServer(counted(&hitsA))
	defer tsA.Close()
	tsB := httptest.NewServer(counted(&hitsB))
	defer tsB.Close()
	tsBase := httptest.NewServer(counted(&hitsBase))
	defer tsBase.Close()

	workload := experiment.GenerateWorkload(rel.Schema(), 20, rand.New(rand.NewSource(6)))
	res, err := experiment.DriveHTTP(tsBase.URL, "demo/exact", workload, experiment.LoadOptions{
		Concurrency: 4,
		Routers:     []string{tsA.URL, tsB.URL + "/"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d request errors, first: %s", res.Errors, res.FirstError)
	}
	if a, b := hitsA.Load(), hitsB.Load(); a != 10 || b != 10 {
		t.Fatalf("round-robin split = %d/%d, want 10/10", a, b)
	}
	if n := hitsBase.Load(); n != 0 {
		t.Fatalf("baseURL received %d requests despite router targets", n)
	}
}

// TestDriveHTTPOneLoop drives one workload through DriveHTTP's single
// request loop every way it can be encoded — JSON single reads, binary
// batches of 16, and those batches replayed — against one summaryd. Each run
// answers every query without an error, and the replay is served from the
// cache.
func TestDriveHTTPOneLoop(t *testing.T) {
	rel := experiment.SyntheticRelation(2000, rand.New(rand.NewSource(3)))
	reg := server.NewRegistry()
	if err := reg.Register("demo/exact", exact.New(rel), rel.Schema()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{}).Handler())
	defer ts.Close()

	workload := experiment.GenerateWorkload(rel.Schema(), 40, rand.New(rand.NewSource(4)))
	for _, tc := range []struct {
		name       string
		opts       experiment.LoadOptions
		roundTrips int
		minCached  int
	}{
		{"unbatched", experiment.LoadOptions{Concurrency: 4}, 40, 0},
		{"batch 16", experiment.LoadOptions{Concurrency: 4, Batch: 16}, 3, 0},
		// The two runs above warmed every query, and the replay repeats them.
		{"batch 16, repeat 2", experiment.LoadOptions{Concurrency: 4, Batch: 16, Repeat: 2}, 6, 80},
	} {
		res, err := experiment.DriveHTTP(ts.URL, "demo/exact", workload, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		queries := len(workload) * max(tc.opts.Repeat, 1)
		if res.Requests != queries || res.HTTPRequests != tc.roundTrips {
			t.Errorf("%s: %d queries in %d round trips, want %d in %d",
				tc.name, res.Requests, res.HTTPRequests, queries, tc.roundTrips)
		}
		if res.Errors != 0 {
			t.Errorf("%s: %d errors, first: %s", tc.name, res.Errors, res.FirstError)
		}
		if res.CachedResponses < tc.minCached {
			t.Errorf("%s: %d cached answers, want at least %d", tc.name, res.CachedResponses, tc.minCached)
		}
		if res.BytesOut <= 0 || res.BytesIn <= 0 || res.LatencyP50NS <= 0 {
			t.Errorf("%s: byte or latency accounting missing: %+v", tc.name, res)
		}
	}
}
