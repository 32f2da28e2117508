package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/summary"
)

// entryPoint is one of the three ways a read reaches the node. ask sends one
// item and returns the HTTP status plus the item's answer; on a single
// endpoint a non-200 body becomes the answer's Error, so singles and
// batches compare in one shape.
type entryPoint struct {
	name   string
	counts bool // carries counting items
	groups bool // carries group-by items
	batch  bool // reports per-item failures in-band under a 200
	ask    func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer)
}

func singleAnswer(t *testing.T, resp *http.Response, body []byte) (int, query.BatchAnswer) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, query.BatchAnswer{Error: string(body)}
	}
	var out struct {
		Count  float64          `json:"count"`
		Groups []query.GroupRow `json:"groups"`
		Cached bool             `json:"cached"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return resp.StatusCode, query.BatchAnswer{Count: out.Count, Groups: out.Groups, IsGroup: out.Groups != nil, Cached: out.Cached}
}

func batchAnswer(t *testing.T, resp *http.Response, body []byte) (int, query.BatchAnswer) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, query.BatchAnswer{Error: string(body)}
	}
	if ct := resp.Header.Get("Content-Type"); ct != server.BinaryBatchContentType {
		t.Fatalf("batch answered with Content-Type %q", ct)
	}
	_, answers, err := query.DecodeAnswers(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decode answer frame: %v", err)
	}
	if len(answers) != 1 {
		t.Fatalf("%d answers for a batch of one", len(answers))
	}
	return resp.StatusCode, answers[0]
}

var entryPoints = []entryPoint{
	{name: "POST /query", counts: true,
		ask: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer) {
			resp, body := postJSON(t, base+"/query",
				server.QueryRequest{Estimator: estimator, Predicate: it.Pred, Version: version})
			return singleAnswer(t, resp, body)
		}},
	{name: "POST /groupby", groups: true,
		ask: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer) {
			resp, body := postJSON(t, base+"/groupby",
				server.GroupByRequest{Estimator: estimator, Predicate: it.Pred, GroupBy: it.GroupBy, Version: version})
			return singleAnswer(t, resp, body)
		}},
	{name: "binary batch", counts: true, groups: true, batch: true,
		ask: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer) {
			frame, err := query.AppendBatchAt(nil, estimator, version, []query.BatchItem{it})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(base+"/query/batch", server.BinaryBatchContentType, bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return batchAnswer(t, resp, body)
		}},
}

// carries reports whether the entry point can express the item.
func (ep entryPoint) carries(it query.BatchItem) bool {
	if len(it.GroupBy) > 0 {
		return ep.groups
	}
	return ep.counts
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

// newMatrixServer serves a store-backed live dataset (so version=N
// resolves) plus the refuser, and hands back the registry and the store
// for the in-process oracle.
func newMatrixServer(t *testing.T, withStore bool) (*httptest.Server, *server.Registry, *store.Store) {
	t.Helper()
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(2000, rand.New(rand.NewSource(1))))
	opts := server.LiveOptions{Dataset: server.DatasetOptions{
		Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}},
	}}
	var st *store.Store
	if withStore {
		var err error
		if st, err = store.Open(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		opts.Dataset.Store = st
	}
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, opts)
	if err != nil {
		t.Fatal(err)
	}
	if withStore {
		// A second retained version, so version 1 differs from live.
		if _, err := live.Ingest(syntheticRows(150, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := live.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Register("demo/refuser", refuser{}, experiment.SyntheticSchema()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{Store: st})
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg, st
}

func cacheEntries(t *testing.T, base string) int {
	t.Helper()
	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m.Cache.Entries
}

// matrixPool is the valid half of the pool: counts (nil predicate
// included) and 1- and 2-attribute group-bys.
func matrixPool() []query.BatchItem {
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

func oracle(t *testing.T, est core.Estimator, it query.BatchItem) query.BatchAnswer {
	t.Helper()
	if len(it.GroupBy) == 0 {
		c, err := est.EstimateCount(it.Pred)
		if err != nil {
			t.Fatal(err)
		}
		return query.BatchAnswer{Count: c}
	}
	g, err := est.EstimateGroupBy(it.GroupBy, it.Pred)
	if err != nil {
		t.Fatal(err)
	}
	return query.BatchAnswer{IsGroup: true, Groups: g}
}

// TestEntryPointMatrix asks one pool through all three entry points. Every
// answer must be Float64bits-identical to the in-process estimator, and
// every entry point must share one cache entry per distinct query: a miss
// through any of them is a cached hit through every other, and the cache
// grows by exactly one entry per query. Live and time-travel reads alike.
func TestEntryPointMatrix(t *testing.T) {
	ts, reg, st := newMatrixServer(t, true)
	live, ok := reg.Get("demo/maxent")
	if !ok {
		t.Fatal("demo/maxent not registered")
	}
	restored, _, err := st.Load("demo/maxent", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version int
		est     core.Estimator
	}{{0, live.Estimator}, {1, restored.(core.Estimator)}} {
		for qi, it := range matrixPool() {
			want := oracle(t, tc.est, it)
			var eps []entryPoint
			for _, ep := range entryPoints {
				if ep.carries(it) {
					eps = append(eps, ep)
				}
			}
			// Rotate which entry point takes the miss.
			first := qi % len(eps)
			eps[0], eps[first] = eps[first], eps[0]
			before := cacheEntries(t, ts.URL)
			for k, ep := range eps {
				label := fmt.Sprintf("v%d query %d via %s", tc.version, qi, ep.name)
				status, got := ep.ask(t, ts.URL, "demo/maxent", tc.version, it)
				if status != http.StatusOK || got.Error != "" {
					t.Fatalf("%s: status %d, error %q", label, status, got.Error)
				}
				if !sameAnswer(got, want) {
					t.Errorf("%s: served %+v, in-process %+v", label, got, want)
				}
				if got.Cached != (k > 0) {
					t.Errorf("%s: cached=%t on ask %d (the miss went through %s)", label, got.Cached, k, eps[0].name)
				}
			}
			if grew := cacheEntries(t, ts.URL) - before; grew != 1 {
				t.Errorf("v%d query %d: cache grew by %d entries over %d entry points, want 1", tc.version, qi, grew, len(eps))
			}
		}
	}
}

// TestEntryPointFailureClasses pins the documented status per failure
// class: singles answer 400 (shape), 404 (unknown estimator or version),
// 422 (estimator refusal), 501 (version without a store); batches report
// the per-item classes (400, 422) in-band under a 200 and the request-level
// ones (404, 501) as the same status. Nothing that failed is cached.
func TestEntryPointFailureClasses(t *testing.T) {
	ts, _, _ := newMatrixServer(t, true)
	bare, _, _ := newMatrixServer(t, false)
	n := experiment.SyntheticSchema().NumAttrs()
	for _, tc := range []struct {
		name      string
		base      string
		estimator string
		version   int
		it        query.BatchItem
		status    int
		perItem   bool
	}{
		{"arity mismatch", ts.URL, "demo/maxent", 0, query.BatchItem{Pred: query.NewPredicate(n + 3)}, 400, true},
		{"arity mismatch in a group-by", ts.URL, "demo/maxent", 0, query.BatchItem{Pred: query.NewPredicate(n + 3), GroupBy: []int{0}}, 400, true},
		{"duplicate group_by", ts.URL, "demo/maxent", 0, query.BatchItem{GroupBy: []int{1, 1}}, 400, true},
		{"out-of-range group_by", ts.URL, "demo/maxent", 0, query.BatchItem{GroupBy: []int{n}}, 400, true},
		{"five grouping attributes", ts.URL, "demo/maxent", 0, query.BatchItem{GroupBy: []int{0, 1, 2, 3, 0}}, 400, true},
		{"refused count", ts.URL, "demo/refuser", 0, query.BatchItem{}, 422, true},
		{"refused group-by", ts.URL, "demo/refuser", 0, query.BatchItem{GroupBy: []int{0}}, 422, true},
		{"unknown estimator", ts.URL, "demo/nope", 0, query.BatchItem{}, 404, false},
		{"unknown estimator, group-by", ts.URL, "demo/nope", 0, query.BatchItem{GroupBy: []int{0}}, 404, false},
		{"unknown version", ts.URL, "demo/maxent", 99, query.BatchItem{}, 404, false},
		{"version without a store", bare.URL, "demo/maxent", 1, query.BatchItem{}, 501, false},
		{"version without a store, group-by", bare.URL, "demo/maxent", 1, query.BatchItem{GroupBy: []int{0}}, 501, false},
	} {
		before := cacheEntries(t, tc.base)
		for _, ep := range entryPoints {
			if !ep.carries(tc.it) {
				continue
			}
			status, got := ep.ask(t, tc.base, tc.estimator, tc.version, tc.it)
			wantStatus := tc.status
			if ep.batch && tc.perItem {
				wantStatus = http.StatusOK
			}
			if status != wantStatus {
				t.Errorf("%s via %s: status %d, want %d (%s)", tc.name, ep.name, status, wantStatus, got.Error)
			}
			if got.Error == "" {
				t.Errorf("%s via %s: no error reported: %+v", tc.name, ep.name, got)
			}
		}
		if grew := cacheEntries(t, tc.base) - before; grew != 0 {
			t.Errorf("%s: %d failed answers were cached", tc.name, grew)
		}
	}
}

// TestReadsAcrossSwapRace hammers the same keys through concurrent singles
// and batches while the estimator is swapped underneath (run under -race)
// between the served summary and a uniform sample of the same rows, whose
// answers differ. Every answer must equal one of the two generations'
// in-process answers, and all items of one batch must come from the same
// generation: a batch is one registry snapshot.
func TestReadsAcrossSwapRace(t *testing.T) {
	ts, reg, _ := newTestServer(t, server.Options{})
	rel := experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))
	uni, err := sampling.Uniform(rel, 0.05, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("demo/uniform", uni, rel.Schema()); err != nil {
		t.Fatal(err)
	}
	a, _ := reg.Get("demo/maxent")
	b, _ := reg.Get("demo/uniform")
	pool := matrixPool()
	wantA, wantB := make([]query.BatchAnswer, len(pool)), make([]query.BatchAnswer, len(pool))
	for i, it := range pool {
		wantA[i], wantB[i] = oracle(t, a.Estimator, it), oracle(t, b.Estimator, it)
	}
	// generations is the set of estimators the answer is bit-identical to:
	// bit 0 for a, bit 1 for b, 0 when it matches neither.
	generations := func(i int, got query.BatchAnswer) int {
		set := 0
		if sameAnswer(got, wantA[i]) {
			set |= 1
		}
		if sameAnswer(got, wantB[i]) {
			set |= 2
		}
		return set
	}

	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		ests := []core.Estimator{b.Estimator, a.Estimator}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := server.Swap(reg, "demo/maxent", ests[i%2], a.Schema); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for round := 0; round < 15; round++ {
				if w%2 == 0 {
					for i, it := range pool {
						for _, ep := range entryPoints {
							if ep.batch || !ep.carries(it) {
								continue
							}
							status, got := ep.ask(t, ts.URL, "demo/maxent", 0, it)
							if status != http.StatusOK || generations(i, got) == 0 {
								t.Errorf("%s item %d: status %d, answer %+v matches neither generation", ep.name, i, status, got)
							}
						}
					}
					continue
				}
				answers := postBinaryBatch(t, ts.URL, "demo/maxent", pool)
				common := 3
				for i, got := range answers {
					common &= generations(i, got)
				}
				if common == 0 {
					t.Errorf("round %d: no single generation explains the batch: %+v", round, answers)
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	swaps.Wait()
}
