package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/server"
)

// newTestServer builds a small synthetic dataset, registers the standard
// estimator set, and serves it over httptest.
func newTestServer(t *testing.T, opts server.Options) (*httptest.Server, *server.Registry, *server.Server) {
	t.Helper()
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))
	_, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{})
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	srv := server.New(reg, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg, srv
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, buf.Bytes()
}

// TestServerEquivalence is the acceptance-criterion test: answers served
// over HTTP must be bit-identical to in-process Estimator calls, for both
// /query and /groupby, across every registered estimator, under
// concurrency.
func TestServerEquivalence(t *testing.T) {
	ts, reg, _ := newTestServer(t, server.Options{CacheSize: -1})
	rng := rand.New(rand.NewSource(9))
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 24, rng)

	var wg sync.WaitGroup
	for _, ent := range reg.Entries() {
		for _, q := range workload {
			wg.Add(1)
			go func(ent server.Entry, q experiment.Query) {
				defer wg.Done()
				if q.IsGroupBy() {
					wantGroups, wantErr := ent.Estimator.EstimateGroupBy(q.GroupBy, q.Pred)
					resp, body := postJSON(t, ts.URL+"/groupby", server.GroupByRequest{
						Estimator: ent.Name, Predicate: q.Pred, GroupBy: q.GroupBy,
					})
					if wantErr != nil {
						if resp.StatusCode == http.StatusOK {
							t.Errorf("%s %s: server OK but in-process errored: %v", ent.Name, q.Name, wantErr)
						}
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s %s: status %d: %s", ent.Name, q.Name, resp.StatusCode, body)
						return
					}
					var got server.GroupByResponse
					if err := json.Unmarshal(body, &got); err != nil {
						t.Errorf("%s %s: decode: %v", ent.Name, q.Name, err)
						return
					}
					if len(got.Groups) != len(wantGroups) {
						t.Errorf("%s %s: %d groups over HTTP, %d in-process", ent.Name, q.Name, len(got.Groups), len(wantGroups))
						return
					}
					for i, g := range wantGroups {
						if got.Groups[i].Estimate != g.Estimate {
							t.Errorf("%s %s group %d: HTTP %v != in-process %v", ent.Name, q.Name, i, got.Groups[i].Estimate, g.Estimate)
						}
						for j, v := range g.Values {
							if got.Groups[i].Values[j] != v {
								t.Errorf("%s %s group %d: values %v != %v", ent.Name, q.Name, i, got.Groups[i].Values, g.Values)
								break
							}
						}
					}
					return
				}
				want, wantErr := ent.Estimator.EstimateCount(q.Pred)
				resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Estimator: ent.Name, Predicate: q.Pred})
				if wantErr != nil {
					if resp.StatusCode == http.StatusOK {
						t.Errorf("%s %s: server OK but in-process errored: %v", ent.Name, q.Name, wantErr)
					}
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s %s: status %d: %s", ent.Name, q.Name, resp.StatusCode, body)
					return
				}
				var got server.QueryResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Errorf("%s %s: decode: %v", ent.Name, q.Name, err)
					return
				}
				if got.Count != want {
					t.Errorf("%s %s: HTTP count %v != in-process %v", ent.Name, q.Name, got.Count, want)
				}
			}(ent, q)
		}
	}
	wg.Wait()
}

// TestCacheHit asserts the second identical request is answered from the
// cache with the identical count, and that /metrics reports the hit.
func TestCacheHit(t *testing.T) {
	ts, _, _ := newTestServer(t, server.Options{})
	pred := query.NewPredicate(4).WhereEq(0, 1)
	req := server.QueryRequest{Estimator: "demo/maxent", Predicate: pred}

	resp1, body1 := postJSON(t, ts.URL+"/query", req)
	resp2, body2 := postJSON(t, ts.URL+"/query", req)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d, %d: %s %s", resp1.StatusCode, resp2.StatusCode, body1, body2)
	}
	var r1, r2 server.QueryResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first request reported cached")
	}
	if !r2.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if r1.Count != r2.Count {
		t.Fatalf("cached count %v != computed count %v", r2.Count, r1.Count)
	}

	// A semantically identical predicate built in a different order hits
	// the same entry (canonical keys).
	pred2 := query.NewPredicate(4).Where(0, query.ValueIn(query.Point(1)))
	resp3, body3 := postJSON(t, ts.URL+"/query", server.QueryRequest{Estimator: "demo/maxent", Predicate: pred2})
	var r3 server.QueryResponse
	if resp3.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp3.StatusCode, body3)
	}
	if err := json.Unmarshal(body3, &r3); err != nil {
		t.Fatal(err)
	}
	if !r3.Cached {
		t.Fatal("canonically-equal predicate missed the cache")
	}

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits < 2 || m.Cache.HitRatio <= 0 {
		t.Fatalf("cache stats = %+v; want >= 2 hits and positive ratio", m.Cache)
	}
	if m.RequestsTotal < 3 || m.LatencyP50NS < 0 || m.LatencyP95NS < m.LatencyP50NS {
		t.Fatalf("metrics snapshot inconsistent: %+v", m.MetricsSnapshot)
	}
}

// blockingEstimator blocks EstimateCount until release is closed.
type blockingEstimator struct {
	release chan struct{}
}

func (b *blockingEstimator) Name() string { return "blocking" }
func (b *blockingEstimator) EstimateCount(*query.Predicate) (float64, error) {
	<-b.release
	return 1, nil
}
func (b *blockingEstimator) EstimateGroupBy([]int, *query.Predicate) ([]core.GroupEstimate, error) {
	<-b.release
	return nil, nil
}
func (b *blockingEstimator) ApproxBytes() int64 { return 0 }

// TestTimeoutAndSaturation drives a blocking estimator: the first request
// times out in-flight (504), a second concurrent request times out waiting
// for the single worker slot (503).
func TestTimeoutAndSaturation(t *testing.T) {
	reg := server.NewRegistry()
	blk := &blockingEstimator{release: make(chan struct{})}
	if err := reg.Register("slow/blocking", blk, experiment.SyntheticSchema()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{Timeout: 80 * time.Millisecond, MaxConcurrent: 1, CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(blk.release)

	type outcome struct {
		status int
		body   string
	}
	results := make(chan outcome, 2)
	fire := func() {
		resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Estimator: "slow/blocking"})
		results <- outcome{resp.StatusCode, string(body)}
	}
	go fire()
	time.Sleep(20 * time.Millisecond) // let the first request claim the slot
	go fire()

	var statuses []int
	for i := 0; i < 2; i++ {
		o := <-results
		statuses = append(statuses, o.status)
		if o.status != http.StatusGatewayTimeout && o.status != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%s); want 503 or 504", o.status, o.body)
		}
	}
	if !(contains(statuses, http.StatusGatewayTimeout) && contains(statuses, http.StatusServiceUnavailable)) {
		t.Fatalf("statuses %v; want one 504 (in-flight timeout) and one 503 (queue timeout)", statuses)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TestMalformedRequests covers every request-rejection path with its
// status code.
func TestMalformedRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, server.Options{})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantErr          string
	}{
		{"bad json", "/query", `{not json`, 400, "malformed request body"},
		{"missing estimator", "/query", `{}`, 400, `"estimator"`},
		{"unknown estimator", "/query", `{"estimator":"nope"}`, 404, "unknown estimator"},
		{"bad predicate kind", "/query", `{"estimator":"demo/maxent","predicate":{"num_attrs":4,"where":[{"attr":0,"kind":"like"}]}}`, 400, "unknown constraint kind"},
		{"arity mismatch", "/query", `{"estimator":"demo/maxent","predicate":{"num_attrs":7}}`, 400, "num_attrs=7"},
		{"groupby without attrs", "/groupby", `{"estimator":"demo/maxent"}`, 400, "group_by"},
		{"groupby out of range", "/groupby", `{"estimator":"demo/maxent","group_by":[9]}`, 400, "out of range"},
		{"groupby duplicate", "/groupby", `{"estimator":"demo/maxent","group_by":[1,1]}`, 400, "duplicate"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, buf.String())
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, buf.String())
			continue
		}
		if !strings.Contains(e.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantErr)
		}
	}

	// Wrong methods.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/groupby")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /groupby: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/metrics", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestEstimatorsAndHealthz checks the discovery endpoints advertise every
// registered estimator with its schema shape.
func TestEstimatorsAndHealthz(t *testing.T) {
	ts, reg, _ := newTestServer(t, server.Options{})
	resp, body := get(t, ts.URL+"/estimators")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er server.EstimatorsResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Estimators) != reg.Len() {
		t.Fatalf("%d estimators advertised, %d registered", len(er.Estimators), reg.Len())
	}
	for _, e := range er.Estimators {
		if e.NumAttrs != 4 || len(e.DomainSizes) != 4 || len(e.AttrNames) != 4 {
			t.Errorf("estimator %s: schema shape %d/%v/%v, want 4 attrs", e.Name, e.NumAttrs, e.DomainSizes, e.AttrNames)
		}
		if e.ApproxBytes <= 0 {
			t.Errorf("estimator %s: approx_bytes %d, want > 0", e.Name, e.ApproxBytes)
		}
	}

	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h map[string]interface{}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz = %v", h)
	}
	if n, ok := h["estimators"].(float64); !ok || int(n) != reg.Len() {
		t.Fatalf("healthz estimators = %v, want %d", h["estimators"], reg.Len())
	}
}

// TestHealthzSkipsTheLatencyWindow: a liveness probe reports the uptime
// without the copy and sort of the latency window that /metrics summarises,
// so with the window full (8,192 served requests, a 64 KiB copy) one
// /healthz call still allocates under 4 KiB.
func TestHealthzSkipsTheLatencyWindow(t *testing.T) {
	_, _, srv := newTestServer(t, server.Options{})
	h := srv.Handler()
	for i := 0; i < 8192; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"estimator":"demo/maxent"}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	const probes = 32
	recs := make([]*httptest.ResponseRecorder, probes)
	reqs := make([]*http.Request, probes)
	for i := range recs {
		recs[i], reqs[i] = httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range recs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	var health struct {
		Status string   `json:"status"`
		Uptime *float64 `json:"uptime_seconds"`
	}
	if recs[0].Code != http.StatusOK || json.Unmarshal(recs[0].Body.Bytes(), &health) != nil ||
		health.Status != "ok" || health.Uptime == nil || *health.Uptime <= 0 {
		t.Fatalf("healthz: status %d: %s", recs[0].Code, recs[0].Body)
	}
	if perCall := (after.TotalAlloc - before.TotalAlloc) / probes; perCall >= 4096 {
		t.Fatalf("one /healthz call allocates %d bytes, want under 4096", perCall)
	}
}

// TestRegistryRejects covers registration validation.
func TestRegistryRejects(t *testing.T) {
	reg := server.NewRegistry()
	sch := experiment.SyntheticSchema()
	blk := &blockingEstimator{release: make(chan struct{})}
	if err := reg.Register("", blk, sch); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.Register("x", nil, sch); err == nil {
		t.Error("nil estimator accepted")
	}
	if err := reg.Register("x", blk, sch); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := reg.Register("x", blk, sch); err == nil {
		t.Error("duplicate name accepted")
	}
	if got := fmt.Sprint(reg.Len()); got != "1" {
		t.Errorf("len = %s, want 1", got)
	}
}
