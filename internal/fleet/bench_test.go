package fleet_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/query"
	"repro/internal/raceflag"
	"repro/internal/server"
)

// BenchmarkRouterOverhead measures what the fleet coordinator adds on top
// of a summaryd node: the same cache-hot count query is timed against the
// node directly and through the router (proxy, node selection, breaker
// accounting). The routed-minus-direct gap is the router overhead BENCH.md
// reports; the acceptance bar is < 1ms at the median. The router cache is
// pinned off — this benchmark measures the round trip, not the cache
// (BenchmarkRouterCachedHit measures that).
func BenchmarkRouterOverhead(b *testing.B) {
	f := fleettest.New(b, fleettest.Options{
		Nodes: 2, Rows: 1200, MaxSweeps: 30,
		Router: fleet.Options{CacheSize: -1},
	})
	payload, _ := json.Marshal(server.QueryRequest{Estimator: "demo/maxent"})
	post := func(base string) {
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("query status %d", resp.StatusCode)
		}
	}
	post(f.Primary().URL()) // warm the query cache: both paths hit it
	post(f.RouterURL())

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(f.Primary().URL())
		}
	})
	b.Run("routed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(f.RouterURL())
		}
	})
}

// sinkWriter is the leanest possible ResponseWriter: it keeps the status
// and byte count and discards the body. httptest.ResponseRecorder clones
// the header map and buffers the body on every write — more time than the
// cache path under measurement.
type sinkWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *sinkWriter) WriteHeader(c int)           { w.code = c }

// BenchmarkRouterCachedHit measures a warm router-cache hit: the same
// count query served entirely on the router, no node round trip. It
// drives the handler directly (no sockets, hand-built request, sink
// writer) because the point is the cache path itself — body decode, key
// build, shard lookup, generation check, response synthesis; a real HTTP
// loopback would bury the single-digit-microsecond signal under ~20µs of
// kernel networking, and even httptest's request parser and recorder
// cost as much as the path being measured. The acceptance bar is
// < 5µs/op.
func BenchmarkRouterCachedHit(b *testing.B) {
	f := fleettest.New(b, fleettest.Options{Nodes: 2, Rows: 1200, MaxSweeps: 30})
	payload, _ := json.Marshal(server.QueryRequest{Estimator: "demo/maxent"})
	handler := f.Router.Handler()
	queryURL := &url.URL{Path: "/query"}
	newReq := func() *http.Request {
		return &http.Request{
			Method:        http.MethodPost,
			URL:           queryURL,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": {"application/json"}},
			Body:          io.NopCloser(bytes.NewReader(payload)),
			ContentLength: int64(len(payload)),
			Host:          "router.bench",
			RemoteAddr:    "192.0.2.1:1234",
		}
	}
	// Warm the entry, then prove the second ask is a genuine cache hit.
	warm := httptest.NewRecorder()
	handler.ServeHTTP(warm, newReq())
	if warm.Code != http.StatusOK {
		b.Fatalf("warm-up query status %d: %s", warm.Code, warm.Body)
	}
	warm = httptest.NewRecorder()
	handler.ServeHTTP(warm, newReq())
	if warm.Header().Get(fleet.RouterCacheHeader) != "hit" {
		b.Fatalf("second identical query was not a cache hit (headers %v)", warm.Header())
	}
	w := &sinkWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code, w.n = 0, 0
		handler.ServeHTTP(w, newReq())
		// Success never calls WriteHeader (implicit 200); errors do.
		if w.code != 0 || w.n == 0 {
			b.Fatalf("cached hit wrote status %d, %d bytes", w.code, w.n)
		}
	}
}

// TestRouterWarmBatchAllocationBudget is the router's half of the node's
// TestWarmBatchAllocationBudget: a 32-item binary batch every item of which
// the router cache answers costs the request's own buffers and nothing per
// item — the identity is appended into one reused buffer and looked up as
// bytes, the frame is encoded from the node's pooled buffer. The parent
// commit spent ~13 allocations per item here.
func TestRouterWarmBatchAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	f := fleettest.New(t, fleettest.Options{Nodes: 2, Rows: 1200, MaxSweeps: 30})
	items := make([]query.BatchItem, 32)
	for i := range items {
		items[i].Pred = query.NewPredicate(4).WhereEq(i%4, i%3).WhereRange((i+1)%4, 0, 1+i/4)
	}
	body, err := query.AppendBatch(nil, "demo/maxent", items)
	if err != nil {
		t.Fatal(err)
	}
	handler := f.Router.Handler()
	rd := bytes.NewReader(body)
	req := &http.Request{
		Method: http.MethodPost, URL: &url.URL{Path: "/query/batch"}, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {server.BinaryBatchContentType}},
		Body:   io.NopCloser(rd), ContentLength: int64(len(body)),
		Host: "router.bench", RemoteAddr: "192.0.2.1:1234",
	}
	w := &sinkWriter{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		w.code, w.n = 0, 0
		handler.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("routed batch wrote status %d, %d bytes", w.code, w.n)
		}
	}
	serve() // the miss that fills the router cache
	serve()
	if w.h.Get(fleet.RouterCacheHeader) != "hit" {
		t.Fatalf("second identical batch was not a router-cache hit (headers %v)", w.h)
	}
	const budget = 32 // measured 18; the issue's ceiling is 2 per item plus a constant
	if got := testing.AllocsPerRun(100, serve); got > budget {
		t.Errorf("a warm 32-item routed batch allocated %.0f times, budget %d", got, budget)
	}
}
