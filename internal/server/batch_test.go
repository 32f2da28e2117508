package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/frame"
	"repro/internal/query"
	"repro/internal/raceflag"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/summary"
)

// toBatchItems converts a generated workload into batch items.
func toBatchItems(workload []experiment.Query) []query.BatchItem {
	items := make([]query.BatchItem, len(workload))
	for i, q := range workload {
		items[i] = query.BatchItem{Pred: q.Pred, GroupBy: q.GroupBy}
	}
	return items
}

// postBinaryBatch sends items as a binary frame and decodes the binary
// answer frame.
func postBinaryBatch(t *testing.T, url, estimator string, items []query.BatchItem) []query.BatchAnswer {
	t.Helper()
	frame, err := query.AppendBatch(nil, estimator, items)
	if err != nil {
		t.Fatalf("encode batch: %v", err)
	}
	resp, err := http.Post(url+"/query/batch", server.BinaryBatchContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST /query/batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var b bytes.Buffer
		_, _ = b.ReadFrom(resp.Body)
		t.Fatalf("binary batch: status %d: %s", resp.StatusCode, b.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != server.BinaryBatchContentType {
		t.Fatalf("binary batch response Content-Type = %q", ct)
	}
	_, answers, err := query.DecodeAnswers(resp.Body)
	if err != nil {
		t.Fatalf("decode answers: %v", err)
	}
	return answers
}

// sequentialAnswer runs one query through the single-query endpoints.
func sequentialAnswer(t *testing.T, url, estimator string, it query.BatchItem) query.BatchAnswer {
	t.Helper()
	if len(it.GroupBy) > 0 {
		resp, body := postJSON(t, url+"/groupby", server.GroupByRequest{
			Estimator: estimator, Predicate: it.Pred, GroupBy: it.GroupBy,
		})
		if resp.StatusCode != http.StatusOK {
			return query.BatchAnswer{IsGroup: true, Error: string(body)}
		}
		var gr server.GroupByResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			t.Fatalf("decode groupby: %v", err)
		}
		a := query.BatchAnswer{IsGroup: true, Cached: gr.Cached}
		for _, g := range gr.Groups {
			a.Groups = append(a.Groups, query.BatchGroup{Values: g.Values, Estimate: g.Estimate})
		}
		return a
	}
	resp, body := postJSON(t, url+"/query", server.QueryRequest{Estimator: estimator, Predicate: it.Pred})
	if resp.StatusCode != http.StatusOK {
		return query.BatchAnswer{Error: string(body)}
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decode query: %v", err)
	}
	return query.BatchAnswer{Count: qr.Count, Cached: qr.Cached}
}

// sameAnswer compares two answers bit-for-bit (float64 payloads compared
// by their IEEE bits), ignoring the cached flag.
func sameAnswer(a, b query.BatchAnswer) bool {
	if a.IsGroup != b.IsGroup || (a.Error == "") != (b.Error == "") {
		return false
	}
	if math.Float64bits(a.Count) != math.Float64bits(b.Count) {
		return false
	}
	if len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		if math.Float64bits(a.Groups[i].Estimate) != math.Float64bits(b.Groups[i].Estimate) {
			return false
		}
		if len(a.Groups[i].Values) != len(b.Groups[i].Values) {
			return false
		}
		for j := range a.Groups[i].Values {
			if a.Groups[i].Values[j] != b.Groups[i].Values[j] {
				return false
			}
		}
	}
	return true
}

// TestBatchEquivalence is the acceptance-criterion test: a binary batch
// (mixed cache hits and misses) must return bit-identical answers to N
// sequential /query and /groupby calls.
func TestBatchEquivalence(t *testing.T) {
	ts, _, _ := newTestServer(t, server.Options{})
	rng := rand.New(rand.NewSource(17))
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 32, rng)
	items := toBatchItems(workload)
	const estimator = "demo/maxent"

	// Warm the cache with the first half sequentially; the batch then mixes
	// 16 hits with 16 misses.
	want := make([]query.BatchAnswer, len(items))
	for i := 0; i < len(items)/2; i++ {
		want[i] = sequentialAnswer(t, ts.URL, estimator, items[i])
	}

	binary := postBinaryBatch(t, ts.URL, estimator, items)
	if len(binary) != len(items) {
		t.Fatalf("binary batch: %d answers, want %d", len(binary), len(items))
	}
	for i := 0; i < len(items)/2; i++ {
		if !binary[i].Cached {
			t.Errorf("item %d: sequentially warmed, but batch missed the cache", i)
		}
		if !sameAnswer(binary[i], want[i]) {
			t.Errorf("item %d (%s): batch %+v != sequential %+v", i, workload[i].Name, binary[i], want[i])
		}
	}
	// The second half were cache misses for the batch; the sequential twins
	// afterwards must hit the cache the batch populated, with identical bits.
	for i := len(items) / 2; i < len(items); i++ {
		if binary[i].Cached {
			t.Errorf("item %d: cold query reported cached in batch", i)
		}
		want[i] = sequentialAnswer(t, ts.URL, estimator, items[i])
		if want[i].Error == "" && !want[i].Cached {
			t.Errorf("item %d: batch-computed answer not served from cache sequentially", i)
		}
		if !sameAnswer(binary[i], want[i]) {
			t.Errorf("item %d (%s): batch %+v != sequential %+v", i, workload[i].Name, binary[i], want[i])
		}
	}

	// /metrics must account the batch call and its shape.
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.BatchRequestsTotal != 1 || m.BatchQueriesTotal != 32 {
		t.Fatalf("batch totals %d/%d, want 1 call / 32 queries", m.BatchRequestsTotal, m.BatchQueriesTotal)
	}
	if len(m.BatchSizeHist) == 0 || len(m.BytesPerQueryHist) == 0 {
		t.Fatalf("batch histograms missing: %+v", m.MetricsSnapshot)
	}
	if len(m.Cache.Shards) == 0 && m.Cache.Capacity > 0 {
		t.Fatalf("per-shard cache stats missing: %+v", m.Cache)
	}
}

// TestBatchAcrossGenerationSwap proves batch answers track a hot swap: the
// same batch re-issued after an ingest-triggered refresh must match fresh
// sequential answers of the new generation, not the stale cache.
func TestBatchAcrossGenerationSwap(t *testing.T) {
	ts, reg, _, _ := newLiveServer(t, 2000, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}},
		},
		RefreshRows: 300,
	})
	rng := rand.New(rand.NewSource(23))
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 16, rng)
	items := toBatchItems(workload)
	const estimator = "demo/maxent"

	before := postBinaryBatch(t, ts.URL, estimator, items)

	// Cross the refresh threshold: the estimator hot-swaps to generation 2.
	resp, body := postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{Rows: syntheticRows(400, 3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	var ir server.IngestResult
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Refreshed {
		t.Fatalf("ingest did not refresh: %+v", ir)
	}
	if ent, ok := reg.Get(estimator); !ok || ent.Version != 2 {
		t.Fatalf("estimator generation after swap: %+v", ent)
	}

	after := postBinaryBatch(t, ts.URL, estimator, items)
	changed := false
	for i := range items {
		if after[i].Cached {
			t.Errorf("item %d: answer served from cache across a generation swap", i)
		}
		want := sequentialAnswer(t, ts.URL, estimator, items[i])
		if !sameAnswer(after[i], want) {
			t.Errorf("item %d (%s): post-swap batch %+v != sequential %+v", i, workload[i].Name, after[i], want)
		}
		if !sameAnswer(after[i], before[i]) {
			changed = true
		}
	}
	// 400 skewed rows on 2000 must move at least one of 16 answers; if none
	// moved, the swap test proved nothing.
	if !changed {
		t.Error("no answer changed across the swap; refresh had no observable effect")
	}
}

// TestBatchErrors covers batch-level rejections and per-query error
// isolation.
func TestBatchErrors(t *testing.T) {
	ts, _, _ := newTestServer(t, server.Options{MaxBatch: 8})

	post := func(contentType string, body []byte) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query/batch", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}
	frameOf := func(estimator string, items []query.BatchItem) []byte {
		t.Helper()
		frame, err := query.AppendBatch(nil, estimator, items)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}

	if resp, body := post(server.BinaryBatchContentType, []byte("garbage frame")); resp.StatusCode != 400 || !strings.Contains(body, "frame") {
		t.Errorf("bad frame: status %d (%s)", resp.StatusCode, body)
	}
	// Hand-sealed: AppendBatch refuses to write an empty batch.
	if resp, body := post(server.BinaryBatchContentType, sealBatchFrame(t, "demo/maxent", 0)); resp.StatusCode != 400 || !strings.Contains(body, "at least one item") {
		t.Errorf("empty batch: status %d (%s)", resp.StatusCode, body)
	}
	if resp, body := post(server.BinaryBatchContentType, frameOf("nope", make([]query.BatchItem, 1))); resp.StatusCode != 404 {
		t.Errorf("unknown estimator: status %d (%s)", resp.StatusCode, body)
	}
	if resp, body := post(server.BinaryBatchContentType, frameOf("demo/maxent", make([]query.BatchItem, 9))); resp.StatusCode != 400 || !strings.Contains(body, "exceeds") {
		t.Errorf("oversized batch: status %d (%s)", resp.StatusCode, body)
	}
	if resp, err := http.Get(ts.URL + "/query/batch"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: %v status %v, want 405", err, resp.StatusCode)
	}

	// A bad query mid-batch fails alone; its batchmates answer normally.
	resp, body := post(server.BinaryBatchContentType, frameOf("demo/maxent", []query.BatchItem{
		{}, {Pred: query.NewPredicate(7)}, {GroupBy: []int{1, 1}},
	}))
	if resp.StatusCode != 200 {
		t.Fatalf("mixed batch: status %d (%s)", resp.StatusCode, body)
	}
	_, answers, err := query.DecodeAnswers(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("%d answers, want 3", len(answers))
	}
	if answers[0].Error != "" || answers[0].Count <= 0 {
		t.Errorf("healthy query poisoned: %+v", answers[0])
	}
	if !strings.Contains(answers[1].Error, "num_attrs=7") {
		t.Errorf("arity error missing: %+v", answers[1])
	}
	if !strings.Contains(answers[2].Error, "duplicate") {
		t.Errorf("group_by error missing: %+v", answers[2])
	}
}

// sealBatchFrame seals a batch request frame by hand — the estimator name,
// then the given varints — for inputs AppendBatch refuses to write.
func sealBatchFrame(t *testing.T, estimator string, varints ...uint64) []byte {
	t.Helper()
	raw := make([]byte, frame.HeaderSize)
	raw = binary.AppendUvarint(raw, uint64(len(estimator)))
	raw = append(raw, estimator...)
	for _, v := range varints {
		raw = binary.AppendUvarint(raw, v)
	}
	if _, err := frame.Seal(raw, "EDBBATQ1", 1, query.MaxBatchFrameBytes); err != nil {
		t.Fatal(err)
	}
	return raw
}

func newBenchServer(b *testing.B, srv *server.Server) string {
	b.Helper()
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts.URL
}

// BenchmarkBatchQueryLoopback measures the full batched binary path over
// HTTP loopback — frame encode, POST, one admission, cached answers, frame
// decode — with 32 queries per round trip. It is the CI-gated guard for
// the serving-path optimizations.
func BenchmarkBatchQueryLoopback(b *testing.B) {
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))
	if _, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{}); err != nil {
		b.Fatalf("BuildDataset: %v", err)
	}
	srv := server.New(reg, server.Options{})
	ts := newBenchServer(b, srv)

	rng := rand.New(rand.NewSource(3))
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 32, rng)
	body, err := query.AppendBatch(nil, "demo/maxent", toBatchItems(workload))
	if err != nil {
		b.Fatal(err)
	}

	post := func(client *http.Client) error {
		resp, err := client.Post(ts+"/query/batch", server.BinaryBatchContentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		_, answers, err := query.DecodeAnswers(resp.Body)
		if err == nil && len(answers) != 32 {
			err = fmt.Errorf("%d answers", len(answers))
		}
		return err
	}
	// Warm the cache so the benchmark measures the wire, not the model.
	if err := post(http.DefaultClient); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			if err := post(client); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	qps := float64(b.N) * 32 / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/s")
}

// sinkWriter is the leanest possible ResponseWriter: it keeps the status
// and byte count and discards the body, so what a handler test or benchmark
// measures is the handler.
type sinkWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *sinkWriter) WriteHeader(c int)           { w.code = c }

// warmBatch32 builds a server over the 3000-row demo dataset and returns its
// handler with a serve function that posts one fixed 32-item binary batch to
// it in-process — no socket, a hand-built request, a sink writer — after
// warming the cache so that every item of every later call is a hit.
func warmBatch32(tb testing.TB) (serve func()) {
	tb.Helper()
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))
	if _, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{}); err != nil {
		tb.Fatalf("BuildDataset: %v", err)
	}
	handler := server.New(reg, server.Options{}).Handler()
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 32, rand.New(rand.NewSource(3)))
	body, err := query.AppendBatch(nil, "demo/maxent", toBatchItems(workload))
	if err != nil {
		tb.Fatal(err)
	}
	batchURL := &url.URL{Path: "/query/batch"}
	header := http.Header{"Content-Type": {server.BinaryBatchContentType}}
	rd := bytes.NewReader(body)
	req := &http.Request{
		Method: http.MethodPost, URL: batchURL, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: header, Body: io.NopCloser(rd), ContentLength: int64(len(body)),
		Host: "node.bench", RemoteAddr: "192.0.2.1:1234",
	}
	w := &sinkWriter{h: make(http.Header)}
	serve = func() {
		rd.Reset(body)
		w.code, w.n = 0, 0
		handler.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			tb.Fatalf("batch wrote status %d, %d bytes", w.code, w.n)
		}
	}
	serve()
	return serve
}

// TestWarmBatchAllocationBudget guards what a cached read costs: a 32-item
// all-hit binary batch through Server.Handler() allocates a constant (the
// frame's payload, the item and predicate slices, the constraint slab, the
// answers) and nothing per item — no per-item map, no per-item key string.
// The parent commit spent ~12 allocations per item here.
func TestWarmBatchAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	serve := warmBatch32(t)
	const budget = 32 // measured 15; the issue's ceiling is 2 per item plus a constant
	if got := testing.AllocsPerRun(100, serve); got > budget {
		t.Errorf("a warm 32-item binary batch allocated %.0f times, budget %d", got, budget)
	}
}

// BenchmarkServeBatch32Hit measures the handler's share of a warm batch round
// trip — frame decode, 32 key builds and cache hits, frame encode — without
// the socket BenchmarkBatchQueryLoopback adds around it.
func BenchmarkServeBatch32Hit(b *testing.B) {
	serve := warmBatch32(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// TestBatchWiresRefuseAlike posts the same mistake — a range with negative
// bounds — as a binary batch and as a JSON POST /query. The binary wire used
// to wrap it into the query A0∈[-5,-1] and answer 200; now both are a 400
// naming the mistake in the same words, behind each wire's own account of
// where it stood.
func TestBatchWiresRefuseAlike(t *testing.T) {
	ts, _, _ := newTestServer(t, server.Options{})
	const reason = "range lo -5 must be non-negative"

	// Hand-sealed: AppendBatch refuses to write this item.
	neg := func(v int) uint64 { return uint64(v) }
	raw := sealBatchFrame(t, "demo/maxent", 1, 4, 0, 1, 0, 'r', neg(-5), neg(-1)) // 'r' < 128: its varint is the tag byte
	if _, err := query.AppendBatch(nil, "demo/maxent",
		[]query.BatchItem{{Pred: query.NewPredicate(4).WhereRange(0, -5, -1)}}); err == nil || !strings.HasSuffix(err.Error(), reason) {
		t.Fatalf("AppendBatch wrote the item: %v", err)
	}

	errorOf := func(wire, path, ctype string, body []byte) string {
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s wire: status %d, body error %q (%v); want a 400", wire, resp.StatusCode, e.Error, err)
		}
		return e.Error
	}
	bin := errorOf("binary", "/query/batch", server.BinaryBatchContentType, raw)
	js := errorOf("JSON", "/query", "application/json", []byte(
		`{"estimator":"demo/maxent","predicate":{"num_attrs":4,"where":[{"attr":0,"kind":"range","lo":-5,"hi":-1}]}}`))
	if bin != "malformed batch frame: query: batch item 0: "+reason {
		t.Errorf("binary wire said %q", bin)
	}
	if js != "malformed request body: query: where[0]: "+reason {
		t.Errorf("JSON wire said %q", js)
	}
}
