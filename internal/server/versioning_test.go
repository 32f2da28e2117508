package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/summary"
)

// newVersionedServer builds a store-backed live dataset and ingests
// `extraVersions` skewed refresh rounds so demo/maxent retains versions
// 1..extraVersions+1. Returns the test server, the store, and the live
// handle.
func newVersionedServer(t *testing.T, rows, extraVersions int, opts server.Options) (*httptest.Server, *store.Store, *server.Live) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(rows, rand.New(rand.NewSource(1))))
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}},
			Store:   st,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < extraVersions; v++ {
		// Each round is skewed toward a different region so successive
		// versions answer differently (drift the diff endpoint can see).
		if _, err := live.Ingest(syntheticRows(100, v)); err != nil {
			t.Fatal(err)
		}
		if _, err := live.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	opts.Store = st
	srv := server.New(reg, opts)
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, st, live
}

// BenchmarkHistoryRestore measures a first-hit time-travel restore: a
// cold ?version=N query's extra cost over a live one (store.Load +
// decode + cache insert). Each iteration uses a fresh History, so every
// Get is a miss. BENCH.md records the p50; the acceptance bar is ≤ 1ms.
func BenchmarkHistoryRestore(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rel := experiment.SyntheticRelation(20000, rand.New(rand.NewSource(1)))
	sum, err := summary.Build(rel, summary.Options{Solver: solver.Options{MaxSweeps: 200}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Save("demo/maxent", sum); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := server.NewHistory(st, 0, nil)
		if _, err := h.Get("demo/maxent", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// countAtVersion asks POST /query?version=N — the version in the URL, not
// the body — and returns the count plus the echoed version.
func countAtVersion(t *testing.T, tsURL, estimator string, version int, pred *query.Predicate) (float64, int) {
	t.Helper()
	u := tsURL + "/query"
	if version > 0 {
		u += "?version=" + strconv.Itoa(version)
	}
	resp, body := postJSON(t, u, server.QueryRequest{Estimator: estimator, Predicate: pred})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query?version=%d: status %d: %s", version, resp.StatusCode, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return qr.Count, qr.Version
}

// TestQueryAtVersionBitIdentical is the tentpole acceptance test: a
// versioned query over HTTP (the version in the URL or in the body) must
// return answers bit-identical to restoring the same snapshot in-process
// and evaluating it directly.
func TestQueryAtVersionBitIdentical(t *testing.T) {
	ts, st, _ := newVersionedServer(t, 2000, 2, server.Options{CacheSize: -1})

	rng := rand.New(rand.NewSource(7))
	sch := experiment.SyntheticSchema()
	for version := 1; version <= 3; version++ {
		est, _, err := st.Load("demo/maxent", version)
		if err != nil {
			t.Fatalf("in-process load v%d: %v", version, err)
		}
		for q := 0; q < 25; q++ {
			pred := query.NewPredicate(sch.NumAttrs())
			for a := 0; a < sch.NumAttrs(); a++ {
				if rng.Intn(2) == 0 {
					continue
				}
				lo := rng.Intn(sch.Attr(a).Size())
				pred.WhereRange(a, lo, lo+rng.Intn(sch.Attr(a).Size()-lo))
			}
			want, err := est.(core.Estimator).EstimateCount(pred)
			if err != nil {
				t.Fatal(err)
			}

			got, echoed := countAtVersion(t, ts.URL, "demo/maxent", version, pred)
			if echoed != version {
				t.Fatalf("?version=%d response echoed version %d", version, echoed)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("v%d query %d: ?version served %v, in-process restore %v", version, q, got, want)
			}

			resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{
				Estimator: "demo/maxent", Predicate: pred, Version: version,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /query v%d: %d %s", version, resp.StatusCode, body)
			}
			var qr server.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(qr.Count) != math.Float64bits(want) || qr.Version != version {
				t.Fatalf("v%d query %d: POST served %v (version %d), want %v (version %d)",
					version, q, qr.Count, qr.Version, want, version)
			}
		}
	}

	// Unknown version → 404; live query still carries version 0.
	pred := query.NewPredicate(sch.NumAttrs())
	resp, _ := postJSON(t, ts.URL+"/query", server.QueryRequest{
		Estimator: "demo/maxent", Predicate: pred, Version: 99,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("version 99: status %d, want 404", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Estimator: "demo/maxent", Predicate: pred})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live query: %d %s", resp.StatusCode, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Version != 0 {
		t.Fatalf("live query echoed version %d, want 0", qr.Version)
	}
}

// TestVersionedBatchOverHTTP drives /query/batch at a snapshot version both
// ways a batch can name one (a binary v2 frame, and a v1 frame under a
// ?version=N URL override) and checks agreement with the in-process restore.
func TestVersionedBatchOverHTTP(t *testing.T) {
	ts, st, _ := newVersionedServer(t, 1500, 1, server.Options{CacheSize: -1})

	est, _, err := st.Load("demo/maxent", 1)
	if err != nil {
		t.Fatal(err)
	}
	sch := experiment.SyntheticSchema()
	preds := make([]*query.Predicate, 4)
	items := make([]query.BatchItem, len(preds))
	want := make([]float64, len(preds))
	for i := range preds {
		p := query.NewPredicate(sch.NumAttrs())
		p.WhereEq(0, i%sch.Attr(0).Size())
		preds[i] = p
		items[i] = query.BatchItem{Pred: p}
		if want[i], err = est.(core.Estimator).EstimateCount(p); err != nil {
			t.Fatal(err)
		}
	}

	v2, err := query.AppendBatchAt(nil, "demo/maxent", 1, items)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := query.AppendBatch(nil, "demo/maxent", items)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, url string
		frame     []byte
	}{
		{"v2 frame", ts.URL + "/query/batch", v2},
		{"v1 frame, ?version=1", ts.URL + "/query/batch?version=1", v1},
	} {
		resp, err := http.Post(tc.url, server.BinaryBatchContentType, bytes.NewReader(tc.frame))
		if err != nil {
			t.Fatal(err)
		}
		_, answers, err := query.DecodeAnswers(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, decode %v", tc.name, resp.StatusCode, err)
		}
		if len(answers) != len(want) {
			t.Fatalf("%s: %d answers, want %d", tc.name, len(answers), len(want))
		}
		for i, a := range answers {
			if a.Error != "" || math.Float64bits(a.Count) != math.Float64bits(want[i]) {
				t.Fatalf("%s answer %d: %+v, want count %v", tc.name, i, a, want[i])
			}
		}
	}
}

// TestBranchThenIngestIsolation forks a branch at the parent's v1 and
// checks the three isolation properties: the branch answers from the fork
// summary (bit-identical to the parent's v1), parent ingests never leak
// into the branch, and branch ingests never leak into the parent. The
// fork's lineage must land in the branch's record and shield the parent's
// fork-point version from pruning.
func TestBranchThenIngestIsolation(t *testing.T) {
	ts, st, parentLive := newVersionedServer(t, 1500, 2, server.Options{CacheSize: -1})

	// Fork at v1 (the pre-ingest build).
	resp, body := postJSON(t, ts.URL+"/branch/demo?from=1&name=fork", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("branch: %d %s", resp.StatusCode, body)
	}
	var br server.BranchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Branch != "fork" || br.Parent != "demo" || br.FromVersion != 1 || br.Rows != 1500 {
		t.Fatalf("branch response: %+v", br)
	}

	// Lineage is durable: the fork's record names demo/maxent v1.
	man, err := st.Versions("fork/maxent")
	if err != nil {
		t.Fatal(err)
	}
	if man.Parent == nil || man.Parent.Dataset != "demo/maxent" || man.Parent.Version != 1 {
		t.Fatalf("fork lineage = %+v, want demo/maxent v1", man.Parent)
	}

	// Branch answers == parent's v1 answers, bit-identical.
	sch := experiment.SyntheticSchema()
	pred := query.NewPredicate(sch.NumAttrs())
	pred.WhereEq(0, 3)
	v1Count, _ := countAtVersion(t, ts.URL, "demo/maxent", 1, pred)
	forkCount, _ := countAtVersion(t, ts.URL, "fork/maxent", 0, pred)
	if math.Float64bits(forkCount) != math.Float64bits(v1Count) {
		t.Fatalf("fresh fork answers %v, parent v1 answers %v", forkCount, v1Count)
	}

	// Ingest into the parent (region=0 rows) and refresh: the fork must not
	// move.
	if _, err := parentLive.Ingest(syntheticRows(200, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := parentLive.Refresh(); err != nil {
		t.Fatal(err)
	}
	after, _ := countAtVersion(t, ts.URL, "fork/maxent", 0, pred)
	if math.Float64bits(after) != math.Float64bits(forkCount) {
		t.Fatalf("parent ingest leaked into the fork: %v -> %v", forkCount, after)
	}

	// Ingest into the fork over HTTP (region=3 rows, the predicate's
	// region): the fork's exact engine grows by exactly the batch, the
	// parent's serving entry keeps its own count.
	parentBefore, _ := countAtVersion(t, ts.URL, "demo/maxent", 0, pred)
	forkExactBefore, _ := countAtVersion(t, ts.URL, "fork/exact", 0, pred)
	resp, body = postJSON(t, ts.URL+"/ingest/fork", server.IngestRequest{Rows: syntheticRows(300, 3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fork ingest: %d %s", resp.StatusCode, body)
	}
	forkExactAfter, _ := countAtVersion(t, ts.URL, "fork/exact", 0, pred)
	if forkExactAfter != forkExactBefore+300 { // all 300 ingested rows are region=3
		t.Fatalf("fork exact count %g -> %g, want +300", forkExactBefore, forkExactAfter)
	}
	parentAfter, _ := countAtVersion(t, ts.URL, "demo/maxent", 0, pred)
	if math.Float64bits(parentAfter) != math.Float64bits(parentBefore) {
		t.Fatalf("fork ingest leaked into the parent: %v -> %v", parentBefore, parentAfter)
	}

	// The fork point (demo/maxent v1) survives an aggressive prune because
	// the fork's lineage pins it implicitly.
	if _, err := st.Prune("demo/maxent", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("demo/maxent", 1); err != nil {
		t.Fatalf("prune removed the fork point: %v", err)
	}

	// Conflicts: re-branching under a taken name is a 409, unknown parent a
	// 404, missing name a 400.
	resp, _ = postJSON(t, ts.URL+"/branch/demo?from=1&name=fork", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate branch: %d, want 409", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/branch/nosuch?name=x", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown parent: %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/branch/demo", struct{}{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing name: %d, want 400", resp.StatusCode)
	}
}

// TestDiffEndpoint checks the drift report: zero self-diff, visible drift
// across a skewed ingest, cross-dataset comparison, and clean failures.
func TestDiffEndpoint(t *testing.T) {
	ts, _, _ := newVersionedServer(t, 1500, 2, server.Options{})

	getDiff := func(path string) (int, server.DiffResponse) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dr server.DiffResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
		return resp.StatusCode, dr
	}

	// Self-diff is exactly zero.
	status, dr := getDiff("/diff/demo?a=1&b=1")
	if status != http.StatusOK {
		t.Fatalf("self diff: status %d", status)
	}
	if dr.MeanTotalVariation != 0 || dr.MaxTotalVariation != 0 || dr.MaxDriftAttr != "" {
		t.Fatalf("self diff is nonzero: %+v", dr)
	}
	if dr.A != 1 || dr.B != 1 || dr.Dataset != "demo" || dr.Strategy != "maxent" {
		t.Fatalf("self diff header: %+v", dr)
	}

	// v1 vs latest: the skewed ingest rounds moved the marginals.
	status, dr = getDiff("/diff/demo?a=1")
	if status != http.StatusOK {
		t.Fatalf("v1-vs-latest diff: status %d", status)
	}
	if dr.B != 3 {
		t.Fatalf("latest resolved to v%d, want 3", dr.B)
	}
	if dr.MaxTotalVariation <= 0 {
		t.Fatalf("skewed ingest produced zero drift: %+v", dr)
	}

	// Symmetry: swapping a and b changes nothing but the header.
	_, rev := getDiff("/diff/demo?a=3&b=1")
	if rev.MaxTotalVariation != dr.MaxTotalVariation || rev.MeanTotalVariation != dr.MeanTotalVariation {
		t.Fatalf("diff is asymmetric: %+v vs %+v", dr, rev)
	}

	// Failure shapes.
	if status, _ := getDiff("/diff/nosuch"); status != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d, want 404", status)
	}
	if status, _ := getDiff("/diff/demo?a=99"); status != http.StatusNotFound {
		t.Fatalf("unknown version: %d, want 404", status)
	}
	if status, _ := getDiff("/diff/demo?a=-1"); status != http.StatusBadRequest {
		t.Fatalf("negative version: %d, want 400", status)
	}
}

// TestHistoryEvictionAndReRestore squeezes the historical cache down to
// one resident entry: alternating versions forces evictions, and each
// re-restore must keep answering bit-identically. Pins must be released
// on eviction so pruning is not blocked forever.
func TestHistoryEvictionAndReRestore(t *testing.T) {
	// 1 byte of budget admits exactly one entry at a time (the newest is
	// always admitted).
	ts, st, _ := newVersionedServer(t, 1200, 2, server.Options{CacheSize: -1, HistoryBytes: 1})

	sch := experiment.SyntheticSchema()
	pred := query.NewPredicate(sch.NumAttrs())
	pred.WhereEq(1, 2)

	first := make(map[int]float64)
	for round := 0; round < 3; round++ {
		for version := 1; version <= 3; version++ {
			got, _ := countAtVersion(t, ts.URL, "demo/maxent", version, pred)
			if round == 0 {
				first[version] = got
				continue
			}
			if math.Float64bits(got) != math.Float64bits(first[version]) {
				t.Fatalf("round %d v%d: re-restored answer %v != first answer %v", round, version, got, first[version])
			}
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr server.MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	hs := mr.History
	if hs == nil {
		t.Fatal("/metrics has no history block despite a store")
	}
	if hs.Entries != 1 {
		t.Fatalf("history entries = %d, want 1 under a 1-byte budget", hs.Entries)
	}
	// 9 lookups of 3 versions through a 1-entry cache: every switch is a
	// miss+eviction.
	if hs.Misses < 3 || hs.Evictions < hs.Misses-1 {
		t.Fatalf("history stats %+v: want >= 3 misses and evictions tracking them", hs)
	}
	if hs.RestoreP50NS <= 0 || hs.RestoreMaxNS < hs.RestoreP50NS {
		t.Fatalf("restore latency report: %+v", hs)
	}

	// Evicted versions released their pins: only v3 stays pinned (it is
	// both the resident history entry — the last version queried — and the
	// served latest), so v1 and v2 are prunable again.
	if pins := st.Pinned("demo/maxent"); len(pins) != 1 || pins[0] != 3 {
		t.Fatalf("pinned = %v, want [3]", pins)
	}
}

// TestVersionedQueryWithoutStoreIs501 pins the storeless behavior: the
// endpoint shape exists but reports 501, mirroring /snapshots.
func TestVersionedQueryWithoutStoreIs501(t *testing.T) {
	ts, _, _ := newTestServer(t, server.Options{})
	pred := query.NewPredicate(4)
	resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{
		Estimator: "demo/maxent", Predicate: pred, Version: 1,
	})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("storeless versioned query: %d %s, want 501", resp.StatusCode, body)
	}
}

// TestRoutesListsServingSurface pins Routes() as the machine-readable
// source of truth the docs gate checks against.
func TestRoutesListsServingSurface(t *testing.T) {
	srv := server.New(server.NewRegistry(), server.Options{})
	got := map[string]bool{}
	for _, r := range srv.Routes() {
		got[r] = true
	}
	for _, want := range []string{
		"/query", "/query/batch", "/groupby", "/estimators", "/healthz",
		"/metrics", "/snapshots", "/snapshots/", "/ingest/", "/branch/", "/diff/",
	} {
		if !got[want] {
			t.Errorf("Routes() is missing %q (got %v)", want, srv.Routes())
		}
	}
}
