package fleet_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/query"
	"repro/internal/server"
)

// routedEntryPoint is one of the three ways a read reaches the router —
// the routed twin of the node's entry-point matrix
// (internal/server/read_test.go). ask sends one item and returns the
// status, the response headers and the item's answer; a non-200 body
// becomes the answer's Error so singles and batches compare in one shape.
type routedEntryPoint struct {
	name   string
	counts bool // carries counting items
	groups bool // carries group-by items
	batch  bool // reports per-item failures in-band under a 200
	ask    func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, http.Header, query.BatchAnswer)
}

func (ep routedEntryPoint) carries(it query.BatchItem) bool {
	if len(it.GroupBy) > 0 {
		return ep.groups
	}
	return ep.counts
}

// do sends the request and returns status, headers and body.
func do(t *testing.T, req *http.Request) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func postBody(t *testing.T, url, contentType string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	return do(t, req)
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oneAnswer folds a response into the one answer it carries.
func oneAnswer(t *testing.T, single bool, status int, header http.Header, body []byte) query.BatchAnswer {
	t.Helper()
	if status != http.StatusOK {
		return query.BatchAnswer{Error: string(body)}
	}
	if !single {
		answers := decodeBatchAnswers(t, header, body)
		if len(answers) != 1 {
			t.Fatalf("%d answers for a batch of one", len(answers))
		}
		return answers[0]
	}
	var out struct {
		Count  float64          `json:"count"`
		Groups []query.GroupRow `json:"groups"`
		Cached bool             `json:"cached"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return query.BatchAnswer{Count: out.Count, Groups: out.Groups, IsGroup: out.Groups != nil, Cached: out.Cached}
}

var routedEntryPoints = []routedEntryPoint{
	{name: "POST /query", counts: true,
		ask: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, http.Header, query.BatchAnswer) {
			s, h, b := postBody(t, base+"/query", "application/json",
				mustJSON(t, server.QueryRequest{Estimator: estimator, Predicate: it.Pred, Version: version}))
			return s, h, oneAnswer(t, true, s, h, b)
		}},
	{name: "POST /groupby", groups: true,
		ask: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, http.Header, query.BatchAnswer) {
			s, h, b := postBody(t, base+"/groupby", "application/json",
				mustJSON(t, server.GroupByRequest{Estimator: estimator, Predicate: it.Pred, GroupBy: it.GroupBy, Version: version}))
			return s, h, oneAnswer(t, true, s, h, b)
		}},
	{name: "binary batch", counts: true, groups: true, batch: true,
		ask: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, http.Header, query.BatchAnswer) {
			frame, err := query.AppendBatchAt(nil, estimator, version, []query.BatchItem{it})
			if err != nil {
				t.Fatal(err)
			}
			s, h, b := postBody(t, base+"/query/batch", server.BinaryBatchContentType, frame)
			return s, h, oneAnswer(t, false, s, h, b)
		}},
}

// routedPool is the valid pool: counts (nil predicate included) and 1- and
// 2-attribute group-bys.
func routedPool() []query.BatchItem {
	n := experiment.SyntheticSchema().NumAttrs()
	return []query.BatchItem{
		{},
		{Pred: query.NewPredicate(n)},
		{Pred: query.NewPredicate(n).WhereEq(0, 1)},
		{Pred: query.NewPredicate(n).WhereRange(3, 2, 5).WhereIn(1, 0, 4)},
		{GroupBy: []int{1}},
		{GroupBy: []int{2}, Pred: query.NewPredicate(n).WhereEq(0, 2)},
		{GroupBy: []int{0, 2}},
		{GroupBy: []int{3, 1}, Pred: query.NewPredicate(n).WhereRange(1, 1, 3)},
	}
}

// refuser is an estimator that refuses every query: the 422 class.
type refuser struct{}

func (refuser) Name() string { return "refuser" }
func (refuser) EstimateCount(*query.Predicate) (float64, error) {
	return 0, errors.New("refuser: no counts today")
}
func (refuser) EstimateGroupBy([]int, *query.Predicate) ([]core.GroupEstimate, error) {
	return nil, errors.New("refuser: no groups today")
}
func (refuser) ApproxBytes() int64 { return 0 }

// newRoutedMatrixFleet boots one node behind a caching router, with a
// second retained snapshot version (so version 1 differs from live) and a
// refusing estimator.
func newRoutedMatrixFleet(t *testing.T) *fleettest.Fleet {
	t.Helper()
	f := fleettest.New(t, fleettest.Options{Nodes: 1, Router: fleet.Options{Timeout: 5 * time.Second}})
	if _, err := f.Live.Ingest(fleettest.Rows(150, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Live.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := f.Primary().Registry.Register("demo/refuser", refuser{}, experiment.SyntheticSchema()); err != nil {
		t.Fatal(err)
	}
	return f
}

func routerCacheEntries(t *testing.T, routerURL string) int {
	t.Helper()
	m := routerMetrics(t, routerURL)
	if m.Cache == nil {
		t.Fatal("router metrics carry no cache block")
	}
	return m.Cache.Entries
}

// TestRoutedEntryPointMatrix asks one pool through all three entry points
// of a caching router. Every answer must be Float64bits-identical to the
// node's own, and every entry point must share one router cache entry per
// distinct query: a miss through any of them is an X-Router-Cache hit
// through every other (a single read warms the batch item and vice versa),
// and the cache grows by exactly one entry per query. Live and time-travel
// reads alike.
func TestRoutedEntryPointMatrix(t *testing.T) {
	f := newRoutedMatrixFleet(t)
	node, routed := f.Primary().URL(), f.RouterURL()
	for _, version := range []int{0, 1} {
		for qi, it := range routedPool() {
			frame, err := query.AppendBatchAt(nil, "demo/maxent", version, []query.BatchItem{it})
			if err != nil {
				t.Fatal(err)
			}
			want := postBinaryBatch(t, node, frame)[0]
			var eps []routedEntryPoint
			for _, ep := range routedEntryPoints {
				if ep.carries(it) {
					eps = append(eps, ep)
				}
			}
			// Rotate which entry point takes the miss.
			first := qi % len(eps)
			eps[0], eps[first] = eps[first], eps[0]
			before := routerCacheEntries(t, routed)
			for k, ep := range eps {
				label := fmt.Sprintf("v%d query %d via %s", version, qi, ep.name)
				status, header, got := ep.ask(t, routed, "demo/maxent", version, it)
				if status != http.StatusOK || got.Error != "" {
					t.Fatalf("%s: status %d, error %q", label, status, got.Error)
				}
				if !sameBatchAnswer(got, want) {
					t.Errorf("%s: routed %+v, the node %+v", label, got, want)
				}
				// cached is true throughout: on the hits it is the router's
				// word, on the miss the node's own flag, kept — and the oracle
				// ask above warmed the node.
				if hit := header.Get(fleet.RouterCacheHeader) == "hit"; hit != (k > 0) || !got.Cached {
					t.Errorf("%s: X-Router-Cache hit=%t cached=%t on ask %d (the miss went through %s)",
						label, hit, got.Cached, k, eps[0].name)
				}
				// A live answer names its generation on every path; a
				// snapshot answer never does.
				if gen := header.Get(server.EstimatorGenerationHeader); (gen != "") != (version == 0) {
					t.Errorf("%s: X-Estimator-Generation %q at version %d", label, gen, version)
				}
				// Only a response a node produced names the node.
				if name := header.Get(fleet.FleetNodeHeader); (name == "node0") != (k == 0) {
					t.Errorf("%s: X-Fleet-Node %q on ask %d", label, name, k)
				}
			}
			if grew := routerCacheEntries(t, routed) - before; grew != 1 {
				t.Errorf("v%d query %d: router cache grew by %d entries over %d entry points, want 1", version, qi, grew, len(eps))
			}
		}
	}
}

// TestRoutedEntryPointFailureClasses: through a caching router a failed
// read answers what the node would — singles the node's own status (400
// shape, 422 refusal, 404 unknown estimator or version), batches the
// per-item classes in-band under a 200 and the request-level ones as the
// same status — and nothing that failed is cached.
func TestRoutedEntryPointFailureClasses(t *testing.T) {
	f := newRoutedMatrixFleet(t)
	node, routed := f.Primary().URL(), f.RouterURL()
	n := experiment.SyntheticSchema().NumAttrs()
	for _, tc := range []struct {
		name      string
		estimator string
		version   int
		it        query.BatchItem
		status    int
		perItem   bool
	}{
		{"arity mismatch", "demo/maxent", 0, query.BatchItem{Pred: query.NewPredicate(n + 3)}, 400, true},
		{"arity mismatch in a group-by", "demo/maxent", 0, query.BatchItem{Pred: query.NewPredicate(n + 3), GroupBy: []int{0}}, 400, true},
		{"five grouping attributes", "demo/maxent", 0, query.BatchItem{GroupBy: []int{0, 1, 2, 3, 0}}, 400, true},
		{"duplicate group_by", "demo/maxent", 0, query.BatchItem{GroupBy: []int{1, 1}}, 400, true},
		{"refused count", "demo/refuser", 0, query.BatchItem{}, 422, true},
		{"refused group-by", "demo/refuser", 0, query.BatchItem{GroupBy: []int{0}}, 422, true},
		{"unknown estimator", "demo/nope", 0, query.BatchItem{}, 404, false},
		{"unknown estimator, group-by", "demo/nope", 0, query.BatchItem{GroupBy: []int{0}}, 404, false},
		{"unknown version", "demo/maxent", 99, query.BatchItem{}, 404, false},
	} {
		before := routerCacheEntries(t, routed)
		for _, ep := range routedEntryPoints {
			if !ep.carries(tc.it) {
				continue
			}
			wantStatus, _, want := ep.ask(t, node, tc.estimator, tc.version, tc.it)
			if expect := map[bool]int{true: http.StatusOK, false: tc.status}[ep.batch && tc.perItem]; wantStatus != expect {
				t.Fatalf("%s via %s: the node itself answered %d, the class says %d", tc.name, ep.name, wantStatus, expect)
			}
			// Twice: a failure must not turn into something else on a re-ask.
			for ask := 0; ask < 2; ask++ {
				status, header, got := ep.ask(t, routed, tc.estimator, tc.version, tc.it)
				if status != wantStatus {
					t.Errorf("%s via %s: routed status %d, the node answers %d (%s)", tc.name, ep.name, status, wantStatus, got.Error)
				}
				if got.Error == "" || (ep.batch && got.Error != want.Error) {
					t.Errorf("%s via %s: routed error %q, the node's %q", tc.name, ep.name, got.Error, want.Error)
				}
				if header.Get(fleet.RouterCacheHeader) != "" {
					t.Errorf("%s via %s: a failed read claims a router cache hit", tc.name, ep.name)
				}
			}
		}
		if grew := routerCacheEntries(t, routed) - before; grew != 0 {
			t.Errorf("%s: %d failed answers were cached on the router", tc.name, grew)
		}
	}
}

// secondRouter fronts the fleet's nodes with one more router.
func secondRouter(t *testing.T, f *fleettest.Fleet, opts fleet.Options) string {
	t.Helper()
	cfgs := make([]fleet.NodeConfig, len(f.Nodes))
	for i, n := range f.Nodes {
		cfgs[i] = fleet.NodeConfig{Name: n.Name, URL: n.URL()}
	}
	rt, err := fleet.NewRouter(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRoutedReadsAcrossRefresh: through a caching and a cache-less router, on
// all three entry points and as a whole binary batch, routed answers are
// bit-identical to the primary's and carry its X-Estimator-Generation; on the
// caching router the second ask of an item is a cache hit through any entry
// point, and a routed ingest that refreshes the model fences every one of
// them.
func TestRoutedReadsAcrossRefresh(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 3, RefreshRows: 300,
		Router: fleet.Options{Timeout: 5 * time.Second}})
	node, caching := f.Primary().URL(), f.RouterURL()
	cacheless := secondRouter(t, f, fleet.Options{CacheSize: -1, Timeout: 5 * time.Second})
	const est = "demo/maxent"
	pool := routedPool()
	frame, err := query.AppendBatchAt(nil, est, 0, pool)
	if err != nil {
		t.Fatal(err)
	}

	// pass asks everything once through both routers; cold says whether the
	// caching router has yet to see the items at the current generation.
	pass := func(phase string, cold bool) []query.BatchAnswer {
		status, header, raw := postBody(t, node+"/query/batch", server.BinaryBatchContentType, frame)
		if status != http.StatusOK {
			t.Fatalf("%s: the primary answered %d: %s", phase, status, raw)
		}
		want, gen := decodeBatchAnswers(t, header, raw), header.Get(server.EstimatorGenerationHeader)
		for _, routed := range []string{caching, cacheless} {
			for i, it := range pool {
				miss := cold
				for _, ep := range routedEntryPoints {
					if !ep.carries(it) {
						continue
					}
					label := fmt.Sprintf("%s: item %d via %s (caching=%t)", phase, i, ep.name, routed == caching)
					status, header, got := ep.ask(t, routed, est, 0, it)
					if status != http.StatusOK || !sameBatchAnswer(got, want[i]) {
						t.Errorf("%s: status %d, routed %+v, the primary %+v", label, status, got, want[i])
					}
					if g := header.Get(server.EstimatorGenerationHeader); g != gen {
						t.Errorf("%s: X-Estimator-Generation %q, the primary's %q", label, g, gen)
					}
					wantHit := routed == caching && !miss
					if hit := header.Get(fleet.RouterCacheHeader) == "hit"; hit != wantHit {
						t.Errorf("%s: X-Router-Cache hit=%t, want %t", label, hit, wantHit)
					}
					miss = false
				}
			}
			label := fmt.Sprintf("%s: whole batch (caching=%t)", phase, routed == caching)
			status, header, raw := askBatch(t, routed, est, pool)
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", label, status, raw)
			}
			if err := sameAnswers(want, decodeBatchAnswers(t, header, raw)); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			if g := header.Get(server.EstimatorGenerationHeader); g != gen {
				t.Errorf("%s: X-Estimator-Generation %q, the primary's %q", label, g, gen)
			}
			if hit := header.Get(fleet.RouterCacheHeader) == "hit"; hit != (routed == caching) {
				t.Errorf("%s: X-Router-Cache hit=%t", label, hit)
			}
		}
		return want
	}

	before := pass("built", true)
	if entries := routerCacheEntries(t, caching); entries != len(pool) {
		t.Errorf("router cache holds %d entries for %d distinct items", entries, len(pool))
	}
	var ing server.IngestResult
	if s := postJSON(t, caching+"/ingest/demo", server.IngestRequest{Rows: fleettest.Rows(400, 2)}, &ing); s != http.StatusOK || !ing.Refreshed {
		t.Fatalf("routed ingest: status %d, %+v", s, ing)
	}
	if err := f.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	after := pass("refreshed", true)
	if before[0].Count == after[0].Count {
		t.Errorf("the refresh did not move the full count (%v)", after[0].Count)
	}
	pass("refreshed, warm", false)
}
