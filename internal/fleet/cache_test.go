package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/query"
	"repro/internal/server"
)

// postTagged posts a JSON body and returns the status, the X-Router-Cache
// header value, and the raw response body.
func postTagged(t testing.TB, url string, body interface{}) (int, string, []byte) {
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
	return resp.StatusCode, resp.Header.Get(fleet.RouterCacheHeader), raw
}

// TestRouterCacheEquivalenceAndHotSwap is the read cache's correctness
// oracle. A randomized workload is asked through the router twice on the
// JSON single endpoints and once as a binary batch: repeat asks must be served
// from the router cache (X-Router-Cache: hit) and every answer — cached
// or not — must stay bit-identical to a direct summaryd query. Then a
// routed ingest crosses the refresh threshold and hot-swaps the
// estimator's generation: the very next ask of every cached query must
// MISS (no cached answer survives a generation change) and match the
// fresh direct answer, and the ask after that must be a hit again.
func TestRouterCacheEquivalenceAndHotSwap(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{
		Nodes:       1,
		RefreshRows: 300,
		Router:      fleet.Options{Timeout: 5 * time.Second},
	})
	primary := f.Primary().URL()
	routed := f.RouterURL()
	est := "demo/maxent"
	rng := rand.New(rand.NewSource(31))

	// Dedupe the workload: the miss-after-invalidation assertion below
	// needs every query to be distinct, or a duplicate's "first" ask would
	// legitimately hit on its twin's entry.
	var workload []experiment.Query
	seen := map[string]bool{}
	for _, q := range experiment.GenerateWorkload(experiment.SyntheticSchema(), 24, rng) {
		key, err := json.Marshal(struct {
			P *query.Predicate
			G []int
		}{q.Pred, q.GroupBy})
		if err != nil {
			t.Fatal(err)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			workload = append(workload, q)
		}
	}

	// check asks one query through the router and compares it bitwise
	// against a fresh direct answer. want is "hit", "miss", or "" (don't
	// care) for the X-Router-Cache header.
	check := func(phase string, qi int, q experiment.Query, want string) {
		t.Helper()
		label := fmt.Sprintf("%s: query %d", phase, qi)
		assertTag := func(tag string) {
			t.Helper()
			if hit := tag == "hit"; want != "" && hit != (want == "hit") {
				t.Fatalf("%s: cache hit = %v, want %s", label, hit, want)
			}
		}
		if q.IsGroupBy() {
			req := server.GroupByRequest{Estimator: est, Predicate: q.Pred, GroupBy: q.GroupBy}
			var direct server.GroupByResponse
			if s := postJSON(t, primary+"/groupby", req, &direct); s != http.StatusOK {
				t.Fatalf("%s: direct status %d", label, s)
			}
			s, tag, raw := postTagged(t, routed+"/groupby", req)
			if s != http.StatusOK {
				t.Fatalf("%s: routed status %d: %s", label, s, raw)
			}
			assertTag(tag)
			var got server.GroupByResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			sameGroups(t, label, direct.Groups, got.Groups)
			return
		}
		req := server.QueryRequest{Estimator: est, Predicate: q.Pred}
		var direct server.QueryResponse
		if s := postJSON(t, primary+"/query", req, &direct); s != http.StatusOK {
			t.Fatalf("%s: direct status %d", label, s)
		}
		s, tag, raw := postTagged(t, routed+"/query", req)
		if s != http.StatusOK {
			t.Fatalf("%s: routed status %d: %s", label, s, raw)
		}
		assertTag(tag)
		var got server.QueryResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		sameCount(t, label, direct.Count, got.Count)
	}

	// checkBatches drives the same workload as one binary batch and asserts
	// the expected cache tag plus bitwise equivalence with the primary's own
	// batch answers.
	items := make([]query.BatchItem, len(workload))
	for i, q := range workload {
		items[i] = query.BatchItem{Pred: q.Pred, GroupBy: q.GroupBy}
	}
	frame, err := query.AppendBatchAt(nil, est, 0, items)
	if err != nil {
		t.Fatal(err)
	}
	checkBatches := func(phase, want string) {
		t.Helper()
		direct := postBinaryBatch(t, primary, frame)

		resp, err := http.Post(routed+"/query/batch", server.BinaryBatchContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		tag := resp.Header.Get(fleet.RouterCacheHeader)
		_, answers, err := query.DecodeAnswers(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hit := tag == "hit"; want != "" && hit != (want == "hit") {
			t.Fatalf("%s: binary batch cache hit = %v, want %s", phase, hit, want)
		}
		if err := sameAnswers(direct, answers); err != nil {
			t.Fatalf("%s: binary batch: %v", phase, err)
		}
	}

	for qi, q := range workload {
		check("pre-swap first ask", qi, q, "") // may hit only if a prior query shares the entry — deduped, so effectively cold
		check("pre-swap second ask", qi, q, "hit")
	}
	checkBatches("pre-swap", "hit") // every item was cached by the sequential pass

	// Time travel: version-1 answers are immutable; the second ask must be
	// a router-cache hit with the bit-identical count.
	var firstCount experiment.Query
	found := false
	for _, q := range workload {
		if !q.IsGroupBy() {
			firstCount, found = q, true
			break
		}
	}
	if !found {
		t.Fatal("workload has no count query")
	}
	vreq := server.QueryRequest{Estimator: est, Predicate: firstCount.Pred, Version: 1}
	var directV1 server.QueryResponse
	if s := postJSON(t, primary+"/query", vreq, &directV1); s != http.StatusOK {
		t.Fatalf("direct v1 query status %d", s)
	}
	if s, _, _ := postTagged(t, routed+"/query", vreq); s != http.StatusOK {
		t.Fatalf("routed v1 query status %d", s)
	}
	s, tag, raw := postTagged(t, routed+"/query", vreq)
	if s != http.StatusOK {
		t.Fatalf("routed v1 repeat status %d", s)
	}
	if tag != "hit" {
		t.Fatal("repeat time-travel query was not a cache hit")
	}
	var gotV1 server.QueryResponse
	if err := json.Unmarshal(raw, &gotV1); err != nil {
		t.Fatal(err)
	}
	sameCount(t, "time travel v1", directV1.Count, gotV1.Count)

	// The hot swap: a routed ingest crosses the 300-row refresh threshold,
	// bumping the live generation and fencing the router cache.
	var ing server.IngestResult
	if s := postJSON(t, routed+"/ingest/demo", server.IngestRequest{Rows: fleettest.Rows(400, 2)}, &ing); s != http.StatusOK {
		t.Fatalf("routed ingest status %d", s)
	}
	if !ing.Refreshed {
		t.Fatalf("ingest of 400 rows above the 300-row threshold did not refresh: %+v", ing)
	}
	if err := f.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The zero-staleness drill: every query was cached above, and every
	// first re-ask must now MISS and match the post-swap direct answer;
	// the re-cached entry then serves hits again.
	for qi, q := range workload {
		check("post-swap first ask", qi, q, "miss")
		check("post-swap second ask", qi, q, "hit")
	}
	checkBatches("post-swap", "hit")

	m := routerMetrics(t, routed)
	if m.Cache == nil {
		t.Fatal("router metrics carry no cache stats with the cache enabled")
	}
	if m.Cache.Hits == 0 {
		t.Fatalf("cache stats do not reflect the run: %+v", *m.Cache)
	}
	if m.StaleSkips != 0 {
		t.Fatalf("%d node answers were refused as stale in a single-node fleet", m.StaleSkips)
	}
}

// TestRouterKeepsVersionedAnswersAcrossARoutedRefresh: a routed write drops
// no cached answer. A ?version=1 answer cached before a routed ingest that
// refreshes the model to v2 is served from the router cache after it,
// bit-identical, while the next live read misses and answers v2 as the
// primary does.
func TestRouterKeepsVersionedAnswersAcrossARoutedRefresh(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{
		Nodes:       2,
		RefreshRows: 300,
		Router:      fleet.Options{Timeout: 5 * time.Second},
	})
	primary := f.Primary().URL()
	routed := f.RouterURL()
	count := server.QueryRequest{Estimator: "demo/maxent", Predicate: query.NewPredicate(4).WhereEq(0, 2)}
	ask := func(url, wantTag string) server.QueryResponse {
		t.Helper()
		s, tag, raw := postTagged(t, url, count)
		var qr server.QueryResponse
		if s != http.StatusOK || tag != wantTag || json.Unmarshal(raw, &qr) != nil {
			t.Fatalf("POST %s: status %d, X-Router-Cache %q, want %q: %s", url, s, tag, wantTag, raw)
		}
		return qr
	}
	v1 := ask(routed+"/query?version=1", "")

	var ing server.IngestResult
	if s := postJSON(t, routed+"/ingest/demo", server.IngestRequest{Rows: fleettest.Rows(400, 2)}, &ing); s != http.StatusOK || !ing.Refreshed || ing.Generation != 2 {
		t.Fatalf("routed ingest: status %d, %+v; want a refresh to generation 2", s, ing)
	}
	if err := f.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	again := ask(routed+"/query?version=1", "hit")
	if again.Version != 1 {
		t.Fatalf("?version=1 after the refresh answered version %d", again.Version)
	}
	sameCount(t, "?version=1 after the refresh", v1.Count, again.Count)
	var direct server.QueryResponse
	if s := postJSON(t, primary+"/query", count, &direct); s != http.StatusOK {
		t.Fatalf("direct count status %d", s)
	}
	live := ask(routed+"/query", "")
	sameCount(t, "live read after the refresh", direct.Count, live.Count)
	if math.Float64bits(live.Count) == math.Float64bits(v1.Count) {
		t.Fatal("the live read after the refresh answered v1's count")
	}
}

// TestRouterCacheOversizedResponseStreamsWhole: a node answer larger than
// the router's MaxBodyBytes must reach the client COMPLETE and cache like
// any other — the cap bounds the request bodies the router buffers for
// retries, never an answer, whose only bound is the answer frame's.
func TestRouterCacheOversizedResponseStreamsWhole(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{
		Nodes: 1,
		Router: fleet.Options{
			Timeout: 5 * time.Second,
			// Small enough that a 48-group group-by response (~2 KB)
			// overflows it while request bodies stay under it.
			MaxBodyBytes: 512,
		},
	})
	primary := f.Primary().URL()
	routed := f.RouterURL()

	// Group-by over attrs 1 and 3 (domains 6 x 8 = 48 rows). Direct answer
	// first, as the bit-identity oracle.
	greq := server.GroupByRequest{Estimator: "demo/maxent", GroupBy: []int{1, 3}}
	var direct server.GroupByResponse
	if s := postJSON(t, primary+"/groupby", greq, &direct); s != http.StatusOK {
		t.Fatalf("direct groupby status %d", s)
	}
	if raw, _ := json.Marshal(direct); len(raw) <= 512 {
		t.Fatalf("fixture too small: direct response is %d bytes, need > MaxBodyBytes=512", len(raw))
	}
	for ask, wantTag := range []string{"", "hit"} {
		s, tag, raw := postTagged(t, routed+"/groupby", greq)
		if s != http.StatusOK {
			t.Fatalf("routed groupby ask %d: status %d: %s", ask, s, raw)
		}
		if tag != wantTag {
			t.Fatalf("routed groupby ask %d: X-Router-Cache %q, want %q", ask, tag, wantTag)
		}
		var got server.GroupByResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("routed groupby ask %d: body is not complete JSON (truncated relay?): %v", ask, err)
		}
		sameGroups(t, fmt.Sprintf("oversized ask %d", ask), direct.Groups, got.Groups)
	}
}

// TestRoutedWriteRelaysWholeResponse: MaxBodyBytes bounds request bodies,
// never a write's response. A routed ingest's result reaches the client
// whole, and the router decides from the whole result that the ingest
// refreshed the model, so the next routed read is fenced off the cache and
// asks a node.
func TestRoutedWriteRelaysWholeResponse(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{
		Nodes:       1,
		RefreshRows: 1,
		Router: fleet.Options{
			Timeout: 5 * time.Second,
			// Above every request body here, below the ingest result
			// (~120 bytes).
			MaxBodyBytes: 100,
		},
	})
	primary := f.Primary().URL()
	routed := f.RouterURL()
	count := server.QueryRequest{Estimator: "demo/maxent"}
	for ask, wantTag := range []string{"", "hit"} {
		if s, tag, raw := postTagged(t, routed+"/query", count); s != http.StatusOK || tag != wantTag {
			t.Fatalf("warm-up ask %d: status %d, X-Router-Cache %q, want %q: %s", ask, s, tag, wantTag, raw)
		}
	}

	s, _, raw := postTagged(t, routed+"/ingest/demo", server.IngestRequest{Rows: fleettest.Rows(2, 1)})
	var ing server.IngestResult
	if s != http.StatusOK || json.Unmarshal(raw, &ing) != nil || len(raw) <= 100 {
		t.Fatalf("routed ingest: status %d, %d bytes, body %q; want 200 and the whole result", s, len(raw), raw)
	}
	if !ing.Refreshed || ing.TotalRows != 3002 {
		t.Fatalf("ingest of 2 rows above a 1-row threshold: %+v", ing)
	}

	var direct, got server.QueryResponse
	if s := postJSON(t, primary+"/query", count, &direct); s != http.StatusOK {
		t.Fatalf("direct count status %d", s)
	}
	s, tag, raw := postTagged(t, routed+"/query", count)
	if s != http.StatusOK || tag == "hit" || json.Unmarshal(raw, &got) != nil {
		t.Fatalf("routed count after the ingest: status %d, X-Router-Cache %q, body %s; want a 200 miss", s, tag, raw)
	}
	if math.Float64bits(got.Count) != math.Float64bits(direct.Count) {
		t.Fatalf("routed count after the ingest %v, the primary %v", got.Count, direct.Count)
	}
}

// TestRoutedWriteGETGoesOnceToThePrimary: the ingest route has no read
// form, so a GET on it goes, like any write, once to the primary. The router
// relays the primary's 405, notifies no replica and fences no cached answer;
// a GET the primary fails is not retried on a replica.
func TestRoutedWriteGETGoesOnceToThePrimary(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 2, Router: fleet.Options{Timeout: 5 * time.Second}})
	routed := f.RouterURL()
	count := server.QueryRequest{Estimator: "demo/maxent"}
	for ask, wantTag := range []string{"", "hit"} {
		if s, tag, raw := postTagged(t, routed+"/query", count); s != http.StatusOK || tag != wantTag {
			t.Fatalf("warm-up ask %d: status %d, X-Router-Cache %q, want %q: %s", ask, s, tag, wantTag, raw)
		}
	}
	before := routerMetrics(t, routed)

	const asks = 4 // a load-balanced GET would reach the replica among these
	for i := 0; i < asks; i++ {
		resp, err := http.Get(routed + "/ingest/demo")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get(fleet.FleetNodeHeader) != f.Primary().Name {
			t.Fatalf("GET /ingest/demo: status %d from %q: %s; want the primary's 405", resp.StatusCode, resp.Header.Get(fleet.FleetNodeHeader), raw)
		}
	}

	after := routerMetrics(t, routed)
	if after.Notifies != before.Notifies {
		t.Errorf("the GETs sent %d sync notifications", after.Notifies-before.Notifies)
	}
	if s, tag, raw := postTagged(t, routed+"/query", count); s != http.StatusOK || tag != "hit" {
		t.Fatalf("read after the GETs: status %d, X-Router-Cache %q: %s; want a hit", s, tag, raw)
	}

	var replicaAsks atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer failing.Close()
	replica := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { replicaAsks.Add(1) }))
	defer replica.Close()
	rt, err := fleet.NewRouter([]fleet.NodeConfig{{Name: "primary", URL: failing.URL}, {Name: "replica", URL: replica.URL}},
		fleet.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/ingest/demo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /ingest/demo past a failing primary: status %d, want its 503", resp.StatusCode)
	}
	if n := replicaAsks.Load(); n != 0 {
		t.Fatalf("the replica was asked %d times", n)
	}
}

// TestRoutedSnapshotSaveIsNoRoute: a version is born at a build or a
// refresh only, so the router has no explicit-save route. A routed POST
// /snapshots/demo gets the router's own 404: it reaches no node, sends no
// /sync/notify, mints no version and leaves a cached read a hit.
func TestRoutedSnapshotSaveIsNoRoute(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 2, Router: fleet.Options{Timeout: 5 * time.Second}})
	routed := f.RouterURL()
	count := server.QueryRequest{Estimator: "demo/maxent"}
	for ask, wantTag := range []string{"", "hit"} {
		if s, tag, raw := postTagged(t, routed+"/query", count); s != http.StatusOK || tag != wantTag {
			t.Fatalf("warm-up ask %d: status %d, X-Router-Cache %q, want %q: %s", ask, s, tag, wantTag, raw)
		}
	}
	before := routerMetrics(t, routed)

	resp, err := http.Post(routed+"/snapshots/demo", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(fleet.FleetNodeHeader) != "" {
		t.Fatalf("routed POST /snapshots/demo: status %d from node %q: %s; want the router's own 404",
			resp.StatusCode, resp.Header.Get(fleet.FleetNodeHeader), raw)
	}

	after := routerMetrics(t, routed)
	for i, n := range after.Nodes {
		if was := before.Nodes[i]; n.Proxied != was.Proxied || n.Failures != was.Failures {
			t.Errorf("node %s was asked: proxied %d -> %d, failures %d -> %d",
				n.Name, was.Proxied, n.Proxied, was.Failures, n.Failures)
		}
	}
	if after.Notifies != before.Notifies {
		t.Errorf("the POST sent %d sync notifications", after.Notifies-before.Notifies)
	}
	man, err := f.Primary().Store.Versions("demo/maxent")
	if err != nil || len(man.Snapshots) != 1 {
		t.Fatalf("primary store after the POST: %+v, %v; want the build's one version", man, err)
	}
	if s, tag, raw := postTagged(t, routed+"/query", count); s != http.StatusOK || tag != "hit" {
		t.Fatalf("read after the POST: status %d, X-Router-Cache %q: %s; want a hit", s, tag, raw)
	}
}

// TestRoutedIngestKeepsGenerationsAligned: one version number names one
// model on every node, so after each routed ingest that refreshes, once the
// fleet converges, the primary and the replica serve demo/maxent at the
// version the ingest reported, and the caching router refuses none of their
// answers (cache_stale_skips does not move). The router is warmed with reads
// first.
func TestRoutedIngestKeepsGenerationsAligned(t *testing.T) {
	routedIngestsStayAligned(t, true)
}

// TestRoutedIngestBeforeAnyReadLiftsItsFence is the same drill without the
// warm-up: the first write fences estimators the router has never observed.
// Every node of the converged fleet answers at the write's version, so the
// first reads are cached and the repeat pass refuses none of them; a third
// pass is answered from the router cache alone.
func TestRoutedIngestBeforeAnyReadLiftsItsFence(t *testing.T) {
	routedIngestsStayAligned(t, false)
}

func routedIngestsStayAligned(t *testing.T, warmUp bool) {
	f := fleettest.New(t, fleettest.Options{
		Nodes:       2,
		RefreshRows: 1,
		Router:      fleet.Options{Timeout: 5 * time.Second},
	})
	routed := f.RouterURL()
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 20, rand.New(rand.NewSource(45)))
	readPass := func(phase string) (hits int) {
		t.Helper()
		for i, q := range workload {
			s, tag, raw := postTagged(t, routed+"/query", server.QueryRequest{Estimator: "demo/maxent", Predicate: q.Pred})
			if s != http.StatusOK {
				t.Fatalf("%s: read %d: status %d: %s", phase, i, s, raw)
			}
			if tag == "hit" {
				hits++
			}
		}
		return hits
	}
	if warmUp {
		readPass("warm-up")
	}

	for ingest := 1; ingest <= 3; ingest++ {
		phase := fmt.Sprintf("ingest %d", ingest)
		var res server.IngestResult
		if s := postJSON(t, routed+"/ingest/demo", server.IngestRequest{Rows: fleettest.Rows(2, ingest)}, &res); s != http.StatusOK || !res.Refreshed {
			t.Fatalf("%s: status %d, result %+v; want a refresh", phase, s, res)
		}
		if err := f.WaitConverged(10 * time.Second); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		primary, _ := f.Primary().Registry.Get("demo/maxent")
		replica, _ := f.Nodes[1].Registry.Get("demo/maxent")
		if primary.Version != replica.Version || uint64(primary.Version) != res.Generation {
			t.Fatalf("%s: primary at v%d, replica at v%d, the ingest reported v%d",
				phase, primary.Version, replica.Version, res.Generation)
		}
		if warmUp {
			before := routerMetrics(t, routed).StaleSkips
			readPass(phase)
			readPass(phase + " again")
			if skips := routerMetrics(t, routed).StaleSkips - before; skips != 0 {
				t.Fatalf("%s: the router refused %d node answers as stale", phase, skips)
			}
			continue
		}
		readPass(phase)
		before := routerMetrics(t, routed).StaleSkips
		readPass(phase + " again")
		if skips := routerMetrics(t, routed).StaleSkips - before; skips != 0 {
			t.Fatalf("%s: the router refused %d node answers as stale on the repeat pass", phase, skips)
		}
		if hits := readPass(phase + " third"); hits != len(workload) {
			t.Fatalf("%s: %d of %d reads of the third pass were router cache hits", phase, hits, len(workload))
		}
	}
}

// TestRouterSingleflightCollapse drills concurrent cache Lookup and Put
// against genTable: 16 identical JSON single reads reach a cold router at
// once, and every answer must be bit-identical to the node's own. The name
// is from the router's former in-flight collapse; the router now sends each
// request's misses in one fetch of its own.
func TestRouterSingleflightCollapse(t *testing.T) {
	concurrentColdReadsAgree(t, "/query", "application/json",
		mustJSON(t, server.QueryRequest{Estimator: "demo/maxent"}),
		func(r io.Reader) ([]query.BatchAnswer, error) {
			var got server.QueryResponse
			err := json.NewDecoder(r).Decode(&got)
			return []query.BatchAnswer{{Count: got.Count}}, err
		})
}

// TestRouterBatchSingleflightCollapse is TestRouterSingleflightCollapse over
// a one-item binary batch.
func TestRouterBatchSingleflightCollapse(t *testing.T) {
	frame, err := query.AppendBatch(nil, "demo/maxent", []query.BatchItem{{GroupBy: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	concurrentColdReadsAgree(t, "/query/batch", server.BinaryBatchContentType, frame,
		func(r io.Reader) ([]query.BatchAnswer, error) {
			_, answers, err := query.DecodeAnswers(r)
			return answers, err
		})
}

// concurrentColdReadsAgree posts body to path on a fresh 2-node fleet's
// primary, then 16 times at once to its cold router, and fails on any routed
// answer that differs from the direct one.
func concurrentColdReadsAgree(t *testing.T, path, contentType string, body []byte, decode func(io.Reader) ([]query.BatchAnswer, error)) {
	t.Helper()
	f := fleettest.New(t, fleettest.Options{Nodes: 2, Router: fleet.Options{Timeout: 5 * time.Second}})
	ask := func(base string) ([]query.BatchAnswer, error) {
		resp, err := http.Post(base+path, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		return decode(resp.Body)
	}
	want, err := ask(f.Primary().URL())
	if err != nil {
		t.Fatalf("direct read: %v", err)
	}

	const concurrent = 16
	start := make(chan struct{})
	errs := make(chan error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got, err := ask(f.RouterURL())
			if err == nil {
				err = sameAnswers(want, got)
			}
			if err != nil {
				errs <- fmt.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
