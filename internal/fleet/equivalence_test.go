package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/query"
	"repro/internal/server"
)

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t testing.TB, url string, body, out interface{}) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// sameCount asserts bit-identical counts.
func sameCount(t testing.TB, label string, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("%s: routed answer %v, direct answer %v (must be bit-identical)", label, got, want)
	}
}

// sameGroups asserts bit-identical group-by answers.
func sameGroups(t testing.TB, label string, want, got []server.GroupRow) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: routed %d groups, direct %d", label, len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(want[i].Values) != fmt.Sprint(got[i].Values) ||
			math.Float64bits(want[i].Estimate) != math.Float64bits(got[i].Estimate) {
			t.Fatalf("%s: group %d routed %+v, direct %+v", label, i, got[i], want[i])
		}
	}
}

// TestFleetEquivalence is the fleet's correctness oracle: every read the
// router serves — sequential /query and /groupby, the binary batch, and
// ?version=N time travel — must answer bit-identically to a
// single summaryd over the same store, before AND after an ingest-driven
// generation hot-swap propagates through the fleet.
func TestFleetEquivalence(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{
		Nodes:       3,
		RefreshRows: 300,
		Router:      fleet.Options{Timeout: 5 * time.Second},
	})
	primary := f.Primary().URL()
	routed := f.RouterURL()
	est := "demo/maxent"
	rng := rand.New(rand.NewSource(11))
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 24, rng)

	checkSequential := func(phase string) {
		t.Helper()
		for qi, q := range workload {
			label := fmt.Sprintf("%s: query %d", phase, qi)
			if q.IsGroupBy() {
				var want, got server.GroupByResponse
				req := server.GroupByRequest{Estimator: est, Predicate: q.Pred, GroupBy: q.GroupBy}
				ws := postJSON(t, primary+"/groupby", req, &want)
				gs := postJSON(t, routed+"/groupby", req, &got)
				if ws != gs {
					t.Fatalf("%s: direct status %d, routed %d", label, ws, gs)
				}
				if ws == http.StatusOK {
					sameGroups(t, label, want.Groups, got.Groups)
				}
				continue
			}
			var want, got server.QueryResponse
			req := server.QueryRequest{Estimator: est, Predicate: q.Pred}
			ws := postJSON(t, primary+"/query", req, &want)
			gs := postJSON(t, routed+"/query", req, &got)
			if ws != gs {
				t.Fatalf("%s: direct status %d, routed %d", label, ws, gs)
			}
			if ws == http.StatusOK {
				sameCount(t, label, want.Count, got.Count)
			}
		}
	}

	items := make([]query.BatchItem, 0, len(workload))
	for _, q := range workload {
		items = append(items, query.BatchItem{Pred: q.Pred, GroupBy: q.GroupBy})
	}

	checkBatches := func(phase string) {
		t.Helper()
		// One frame of every item, which the router fetches from one node.
		frame, err := query.AppendBatchAt(nil, est, 0, items)
		if err != nil {
			t.Fatal(err)
		}
		decodeBinary := func(url string) []query.BatchAnswer {
			resp, err := http.Post(url+"/query/batch", server.BinaryBatchContentType, bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("%s: binary batch at %s: %d %s", phase, url, resp.StatusCode, b)
			}
			_, answers, err := query.DecodeAnswers(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return answers
		}
		wantB := decodeBinary(primary)
		gotB := decodeBinary(routed)
		if len(wantB) != len(gotB) {
			t.Fatalf("%s: binary routed %d answers, direct %d", phase, len(gotB), len(wantB))
		}
		for i := range wantB {
			w, g := wantB[i], gotB[i]
			label := fmt.Sprintf("%s: binary batch item %d", phase, i)
			if w.Error != g.Error || w.IsGroup != g.IsGroup || len(w.Groups) != len(g.Groups) {
				t.Fatalf("%s: routed %+v, direct %+v", label, g, w)
			}
			if !w.IsGroup && w.Error == "" {
				sameCount(t, label, w.Count, g.Count)
			}
			for j := range w.Groups {
				if fmt.Sprint(w.Groups[j].Values) != fmt.Sprint(g.Groups[j].Values) ||
					math.Float64bits(w.Groups[j].Estimate) != math.Float64bits(g.Groups[j].Estimate) {
					t.Fatalf("%s: group %d routed %+v, direct %+v", label, j, g.Groups[j], w.Groups[j])
				}
			}
		}
	}

	checkSequential("pre-swap")
	checkBatches("pre-swap")

	// Generation hot-swap: ingest through the router crosses the refresh
	// threshold on the primary, publishes new snapshot versions, and the
	// router's sync notification pulls every replica forward.
	var ing server.IngestResult
	if s := postJSON(t, routed+"/ingest/demo", server.IngestRequest{Rows: fleettest.Rows(400, 3)}, &ing); s != http.StatusOK {
		t.Fatalf("routed ingest status %d", s)
	}
	if !ing.Refreshed {
		t.Fatalf("ingest of 400 rows above the 300-row threshold did not refresh: %+v", ing)
	}
	if err := f.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("fleet did not converge after ingest: %v", err)
	}

	checkSequential("post-swap")
	checkBatches("post-swap")

	// Time travel: v1 (the pre-ingest build) must answer identically
	// whether served by the primary or routed to a replica's history.
	for _, version := range []int{1, 2} {
		for qi, q := range workload {
			if q.IsGroupBy() {
				continue
			}
			var want, got server.QueryResponse
			req := server.QueryRequest{Estimator: est, Predicate: q.Pred, Version: version}
			ws := postJSON(t, primary+"/query", req, &want)
			gs := postJSON(t, fmt.Sprintf("%s/query?version=%d", routed, version), server.QueryRequest{Estimator: est, Predicate: q.Pred}, &got)
			if ws != gs {
				t.Fatalf("time travel v%d query %d: direct status %d, routed %d", version, qi, ws, gs)
			}
			if ws != http.StatusOK {
				continue
			}
			if got.Version != version {
				t.Fatalf("time travel v%d query %d: routed answered from version %d", version, qi, got.Version)
			}
			sameCount(t, fmt.Sprintf("time travel v%d query %d", version, qi), want.Count, got.Count)
		}
	}
}
