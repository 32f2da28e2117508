package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
		// versions answer differently.
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
// Get is a miss. The built model stays resident, as the served generation
// does beside a History, so the decode takes its polynomial structure
// (polynomial.Shared) instead of building one. BENCH.md records the p50;
// the acceptance bar is ≤ 1ms.
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
	runtime.KeepAlive(sum)
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
// and evaluating it directly. The live model is its newest snapshot served
// as-is, so it answers bit-identically to that version too, and a later
// ingest moves no retained version's answers.
func TestQueryAtVersionBitIdentical(t *testing.T) {
	ts, st, live := newVersionedServer(t, 2000, 2, server.Options{CacheSize: -1})

	type asked struct {
		version int
		pred    *query.Predicate
		want    float64
	}
	var answered []asked
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
			answered = append(answered, asked{version, pred, want})
			if version == 3 {
				if got, _ := countAtVersion(t, ts.URL, "demo/maxent", 0, pred); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("query %d: the live model answers %v, its snapshot v3 %v", q, got, want)
				}
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

	// An ingest and refresh publish v4; every retained version still
	// answers exactly as before.
	if _, err := live.Ingest(syntheticRows(300, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i, a := range answered {
		if got, _ := countAtVersion(t, ts.URL, "demo/maxent", a.version, a.pred); math.Float64bits(got) != math.Float64bits(a.want) {
			t.Fatalf("after an ingest, v%d query %d answers %v, want %v", a.version, i, got, a.want)
		}
	}
}

// TestLiveAndVersionedReadsShareCache: a version names one model, so a live
// read and a ?version=N read of the version serving share one result-cache
// entry, while another version keys its own. Only the live answer carries
// X-Estimator-Generation; the versioned one echoes its version instead.
func TestLiveAndVersionedReadsShareCache(t *testing.T) {
	ts, _, _ := newVersionedServer(t, 2000, 1, server.Options{})
	pred := query.NewPredicate(4).WhereEq(0, 1)
	ask := func(u string) (server.QueryResponse, string) {
		t.Helper()
		resp, body := postJSON(t, u, server.QueryRequest{Estimator: "demo/maxent", Predicate: pred})
		var qr server.QueryResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &qr) != nil {
			t.Fatalf("POST %s: %d %s", u, resp.StatusCode, body)
		}
		return qr, resp.Header.Get(server.EstimatorGenerationHeader)
	}
	if qr, gen := ask(ts.URL + "/query"); qr.Cached || gen != "2" {
		t.Fatalf("live read: cached %t at generation %q, want a miss at 2", qr.Cached, gen)
	}
	if qr, gen := ask(ts.URL + "/query?version=2"); !qr.Cached || qr.Version != 2 || gen != "" {
		t.Fatalf("?version=2 read: cached %t, version %d, generation %q; want the live read's entry, version 2, no header",
			qr.Cached, qr.Version, gen)
	}
	if qr, _ := ask(ts.URL + "/query?version=1"); qr.Cached || qr.Version != 1 {
		t.Fatalf("?version=1 read: cached %t, version %d; want a miss at version 1", qr.Cached, qr.Version)
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

// TestBranchThenIngestIsolation: a branch an older build forked from
// demo/maxent v1 is a dataset key of its own, restored beside its live
// parent. An ingest into the parent moves neither the branch's answers nor
// the parent's retained v1; the branch takes no ingest, so nothing leaks the
// other way; and pruning the parent to its newest version leaves the branch
// loadable, because its v1 is a full snapshot, not a pin on the fork point.
func TestBranchThenIngestIsolation(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(1500, rand.New(rand.NewSource(1))))
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}},
			Store:   st,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The branch as an older build left it: the parent's v1 under its own
	// key, with a MANIFEST.json naming the fork point.
	v1, _, err := st.Load("demo/maxent", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("fork/maxent", v1); err != nil {
		t.Fatal(err)
	}
	record := `{"dataset": "fork/maxent", "parent": {"dataset": "demo/maxent", "version": 1}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "fork", "maxent", "MANIFEST.json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	// The live demo/maxent is already served, so its key is the one
	// collision; the branch restores beside it.
	restored, problems, err := server.RestoreStore(reg, st)
	if err != nil || len(problems) != 1 || problems[0].Dataset != "demo/maxent" ||
		!reflect.DeepEqual(restored, []string{"fork/maxent"}) {
		t.Fatalf("restored %v, problems %+v, err %v; want [fork/maxent] and the demo/maxent collision", restored, problems, err)
	}
	srv := server.New(reg, server.Options{Store: st, CacheSize: -1})
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The branch answers as the parent's v1, bit for bit.
	pred := query.NewPredicate(experiment.SyntheticSchema().NumAttrs())
	pred.WhereEq(0, 0)
	v1Count, _ := countAtVersion(t, ts.URL, "demo/maxent", 1, pred)
	forkCount, _ := countAtVersion(t, ts.URL, "fork/maxent", 0, pred)
	if math.Float64bits(forkCount) != math.Float64bits(v1Count) {
		t.Fatalf("branch answers %v, parent v1 answers %v", forkCount, v1Count)
	}

	// Ingest into the parent (region=0 rows, the predicate's region) and
	// refresh: the parent's live answer grows, the branch and v1 stay put.
	parentBefore, _ := countAtVersion(t, ts.URL, "demo/maxent", 0, pred)
	if _, err := live.Ingest(syntheticRows(200, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	parentAfter, _ := countAtVersion(t, ts.URL, "demo/maxent", 0, pred)
	if parentAfter < parentBefore+100 {
		t.Fatalf("parent count %v -> %v after 200 region=0 rows, want about +200", parentBefore, parentAfter)
	}
	if got, _ := countAtVersion(t, ts.URL, "fork/maxent", 0, pred); math.Float64bits(got) != math.Float64bits(forkCount) {
		t.Fatalf("parent ingest leaked into the branch: %v -> %v", forkCount, got)
	}
	if got, _ := countAtVersion(t, ts.URL, "demo/maxent", 1, pred); math.Float64bits(got) != math.Float64bits(v1Count) {
		t.Fatalf("parent ingest moved its v1: %v -> %v", v1Count, got)
	}

	// The restored branch has no live dataset attached: an ingest into it is a 404
	// and the parent keeps its count.
	resp, body := postJSON(t, ts.URL+"/ingest/fork", server.IngestRequest{Rows: syntheticRows(300, 0)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("branch ingest: %d %s, want 404", resp.StatusCode, body)
	}
	if got, _ := countAtVersion(t, ts.URL, "demo/maxent", 0, pred); math.Float64bits(got) != math.Float64bits(parentAfter) {
		t.Fatalf("branch ingest reached the parent: %v -> %v", parentAfter, got)
	}

	// Pruning the parent to its newest version leaves the branch's own v1.
	if _, err := st.Prune("demo/maxent", 1); err != nil {
		t.Fatal(err)
	}
	est, _, err := st.Load("fork/maxent", 1)
	if err != nil {
		t.Fatalf("parent prune removed the branch: %v", err)
	}
	want, err := est.(core.Estimator).EstimateCount(pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want) != math.Float64bits(forkCount) {
		t.Fatalf("branch v1 after the parent's prune answers %v, want %v", want, forkCount)
	}
}

// TestHistoryEvictionAndReRestore squeezes the historical cache down to
// one resident entry: alternating versions forces evictions, and each
// re-restore must keep answering bit-identically.
func TestHistoryEvictionAndReRestore(t *testing.T) {
	// 1 byte of budget admits exactly one entry at a time (the newest is
	// always admitted).
	ts, _, _ := newVersionedServer(t, 1200, 2, server.Options{CacheSize: -1, HistoryBytes: 1})

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
	// 9 lookups of 3 versions: v3 is the live entry's and never reaches the
	// historical cache, while v1 and v2 cycle through its 1 entry, every
	// switch a miss+eviction.
	if hs.Misses < 3 || hs.Evictions < hs.Misses-1 {
		t.Fatalf("history stats %+v: want >= 3 misses and evictions tracking them", hs)
	}
	if hs.RestoreP50NS <= 0 || hs.RestoreMaxNS < hs.RestoreP50NS {
		t.Fatalf("restore latency report: %+v", hs)
	}
}

// TestVersionedReadOfTheLiveVersionUsesTheLiveEntry: a ?version=N read of
// the version the live entry serves is answered by that entry, bit-identical
// to a live read, and never restores the serving model a second time — the
// historical cache sees no miss and holds no entry.
func TestVersionedReadOfTheLiveVersionUsesTheLiveEntry(t *testing.T) {
	ts, st, _ := newVersionedServer(t, 1200, 1, server.Options{CacheSize: -1})
	man, err := st.Versions("demo/maxent")
	if err != nil {
		t.Fatal(err)
	}
	latest, _ := man.Latest()
	n := experiment.SyntheticSchema().NumAttrs()
	for v := 0; v < 4; v++ {
		pred := query.NewPredicate(n).WhereEq(1, v)
		live, _ := countAtVersion(t, ts.URL, "demo/maxent", 0, pred)
		versioned, _ := countAtVersion(t, ts.URL, "demo/maxent", latest.Version, pred)
		if math.Float64bits(live) != math.Float64bits(versioned) {
			t.Fatalf("pred %d: ?version=%d answers %v, the live read %v", v, latest.Version, versioned, live)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if hs := mr.History; hs == nil || hs.Misses != 0 || hs.Entries != 0 {
		t.Fatalf("history %+v: want 0 misses and 0 entries after reads of the live version", hs)
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

// TestRoutesListsServingSurface pins Routes() — the machine-readable source
// of truth the docs gate checks against — to the exact serving surface, so
// a route added or dropped without updating this list fails here.
func TestRoutesListsServingSurface(t *testing.T) {
	srv := server.New(server.NewRegistry(), server.Options{})
	want := []string{
		"/estimators", "/groupby", "/healthz", "/ingest/", "/metrics", "/query",
		"/query/batch", "/snapshots", "/sync/notify", "/sync/snapshot",
	}
	if got := srv.Routes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Routes() = %v, want %v", got, want)
	}
}
