package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/query"
	"repro/internal/server"
)

// askBatch posts one binary batch and returns the status, the response
// headers, and the raw body.
func askBatch(t *testing.T, base, estimator string, items []query.BatchItem) (int, http.Header, []byte) {
	t.Helper()
	frame, err := query.AppendBatch(nil, estimator, items)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, base+"/query/batch", server.BinaryBatchContentType, frame)
}

// decodeBatchAnswers decodes a binary batch response.
func decodeBatchAnswers(t *testing.T, header http.Header, raw []byte) []query.BatchAnswer {
	t.Helper()
	if ct := header.Get("Content-Type"); ct != server.BinaryBatchContentType {
		t.Fatalf("batch answered with Content-Type %q: %s", ct, raw)
	}
	_, answers, err := query.DecodeAnswers(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode answer frame: %v", err)
	}
	return answers
}

// TestBatchRoutesAgree asks one binary batch on every path a batch can
// take — a node, a cache-less router forwarding whole, and a caching router
// on an all-miss and on an all-hit batch. Every path must answer in a
// binary frame with Float64bits-identical answers.
func TestBatchRoutesAgree(t *testing.T) {
	relay := fleettest.New(t, fleettest.Options{Nodes: 1,
		Router: fleet.Options{CacheSize: -1, Timeout: 5 * time.Second}})
	caching := fleettest.New(t, fleettest.Options{Nodes: 1,
		Router: fleet.Options{Timeout: 5 * time.Second}})
	node := relay.Primary().URL()
	const estimator = "demo/maxent"
	n := experiment.SyntheticSchema().NumAttrs()

	items := []query.BatchItem{
		{Pred: query.NewPredicate(n).WhereEq(3, 0)},
		{Pred: query.NewPredicate(n).WhereRange(3, 0, 7).WhereEq(0, 1)},
		{GroupBy: []int{1}, Pred: query.NewPredicate(n).WhereEq(3, 0)},
		{GroupBy: []int{0, 2}, Pred: query.NewPredicate(n).WhereEq(3, 0)},
		{Pred: query.NewPredicate(n).WhereIn(1, 0, 5).WhereEq(3, 0)},
		{Pred: query.NewPredicate(n + 1)}, // arity mismatch rides in-band
	}
	status, header, raw := askBatch(t, node, estimator, items)
	if status != http.StatusOK {
		t.Fatalf("node answered %d: %s", status, raw)
	}
	want := decodeBatchAnswers(t, header, raw)

	// The in-band error is never cached, so the all-hit column asks only the
	// cacheable prefix.
	for _, col := range []struct {
		name  string
		base  string
		items []query.BatchItem
		cache string // expected X-Router-Cache
	}{
		{"router, cache off", relay.RouterURL(), items, ""},
		{"caching router, all-miss", caching.RouterURL(), items, ""},
		{"caching router, all-hit", caching.RouterURL(), items[:5], "hit"},
	} {
		status, header, raw := askBatch(t, col.base, estimator, col.items)
		if status != http.StatusOK {
			t.Errorf("%s: status %d: %s", col.name, status, raw)
			continue
		}
		if got := header.Get(fleet.RouterCacheHeader); got != col.cache {
			t.Errorf("%s: X-Router-Cache %q, want %q", col.name, got, col.cache)
		}
		got := decodeBatchAnswers(t, header, raw)
		if len(got) != len(col.items) {
			t.Errorf("%s: %d answers for %d items", col.name, len(got), len(col.items))
			continue
		}
		for i, a := range got {
			if !sameBatchAnswer(a, want[i]) {
				t.Errorf("%s: item %d answered %+v, the node %+v", col.name, i, a, want[i])
			}
		}
	}
}

// TestRoutedMissFetchIsOneNodeRequest: every miss of one routed read
// reaches the fleet as one sub-frame to one node, however many items miss
// and however many nodes are healthy, and the answers are the node's bit
// for bit.
func TestRoutedMissFetchIsOneNodeRequest(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 2, Router: fleet.Options{Timeout: 5 * time.Second}})
	const estimator = "demo/maxent"
	n := experiment.SyntheticSchema().NumAttrs()
	// Distinct items, so none joins another's in-flight read.
	items := make([]query.BatchItem, 128)
	for i := range items {
		items[i] = query.BatchItem{Pred: query.NewPredicate(n).
			WhereRange(3, i%8, 7).WhereRange(1, (i/8)%6, 5).WhereEq(0, i/48)}
	}
	status, header, raw := askBatch(t, f.Primary().URL(), estimator, items)
	if status != http.StatusOK {
		t.Fatalf("node answered %d: %s", status, raw)
	}
	want := decodeBatchAnswers(t, header, raw)
	batchRequests := func() uint64 {
		return sumNodeMetrics(t, f, func(m server.MetricsResponse) uint64 { return m.BatchRequestsTotal })
	}

	before := batchRequests()
	status, header, raw = askBatch(t, f.RouterURL(), estimator, items)
	if status != http.StatusOK {
		t.Fatalf("router answered %d: %s", status, raw)
	}
	if d := batchRequests() - before; d != 1 {
		t.Errorf("an all-miss batch of %d items reached the nodes in %d requests, want 1", len(items), d)
	}
	if hdr := header.Get(fleet.RouterCacheHeader); hdr != "" {
		t.Errorf("all-miss batch: X-Router-Cache %q", hdr)
	}
	got := decodeBatchAnswers(t, header, raw)
	if len(got) != len(items) {
		t.Fatalf("%d answers for %d items", len(got), len(items))
	}
	for i, a := range got {
		if !sameBatchAnswer(a, want[i]) {
			t.Errorf("item %d answered %+v, the node %+v", i, a, want[i])
		}
	}
}

// TestRetiredReadFormsAreRefused pins the two refusals of a read the
// surface does not take — a JSON body on /query/batch (415) and a GET
// /query (405) — each naming what to send instead. The router forwards
// what the node's decoders refuse as it came, so a node, a caching router
// and a cache-less router answer with the same status and the same bytes.
func TestRetiredReadFormsAreRefused(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 1, Router: fleet.Options{Timeout: 5 * time.Second}})
	bases := map[string]string{
		"node":              f.Primary().URL(),
		"caching router":    f.RouterURL(),
		"cache-less router": secondRouter(t, f, fleet.Options{CacheSize: -1, Timeout: 5 * time.Second}),
	}
	for _, tc := range []struct {
		name, method, path, ctype, body string
		status                          int
		msg                             string
	}{
		{"JSON batch", http.MethodPost, "/query/batch", "application/json",
			`{"estimator":"demo/maxent","queries":[{}]}`, http.StatusUnsupportedMediaType,
			"/query/batch takes a binary frame (Content-Type: " + server.BinaryBatchContentType +
				"); send a JSON read to POST /query or POST /groupby"},
		{"untyped batch", http.MethodPost, "/query/batch", "text/plain",
			"EDBBATQ1", http.StatusUnsupportedMediaType,
			"/query/batch takes a binary frame (Content-Type: " + server.BinaryBatchContentType +
				"); send a JSON read to POST /query or POST /groupby"},
		{"GET /query", http.MethodGet, "/query?estimator=demo/maxent&version=1", "", "",
			http.StatusMethodNotAllowed, "use POST /query with a JSON body (?version=N selects a snapshot)"},
	} {
		var first []byte
		for name, base := range bases {
			req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.ctype != "" {
				req.Header.Set("Content-Type", tc.ctype)
			}
			status, _, raw := do(t, req)
			var e struct {
				Error string `json:"error"`
			}
			if status != tc.status || json.Unmarshal(raw, &e) != nil || e.Error != tc.msg {
				t.Errorf("%s at the %s: status %d, body %s; want %d %q", tc.name, name, status, raw, tc.status, tc.msg)
			}
			if first == nil {
				first = raw
			} else if !bytes.Equal(raw, first) {
				t.Errorf("%s at the %s: body %s differs from %s", tc.name, name, raw, first)
			}
		}
	}
}

// TestNegativeGroupByRefusedAlike: a negative grouping attribute on POST
// /groupby is refused at decode time, in the binary decoder's words, so the
// node, a caching router and a cache-less router answer with one status and
// one body. Before, the node named the schema range, the caching router its
// sub-frame encoder, and the cache-less router relayed the node.
func TestNegativeGroupByRefusedAlike(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 1, Router: fleet.Options{Timeout: 5 * time.Second}})
	body := []byte(`{"estimator":"demo/maxent","group_by":[-1]}`)
	want := []byte(`{"error":"group-by attribute -1 must be non-negative"}` + "\n")
	for name, base := range map[string]string{
		"node":              f.Primary().URL(),
		"caching router":    f.RouterURL(),
		"cache-less router": secondRouter(t, f, fleet.Options{CacheSize: -1, Timeout: 5 * time.Second}),
	} {
		status, _, raw := postBody(t, base+"/groupby", "application/json", body)
		if status != http.StatusBadRequest || !bytes.Equal(raw, want) {
			t.Errorf("%s: status %d, body %q; want 400 %q", name, status, raw, want)
		}
	}
}

// sameBatchAnswer compares two answers bit-for-bit, ignoring the cached
// flag (which honestly differs between a hit and a miss).
func sameBatchAnswer(a, b query.BatchAnswer) bool {
	if a.IsGroup != b.IsGroup || a.Error != b.Error || len(a.Groups) != len(b.Groups) ||
		math.Float64bits(a.Count) != math.Float64bits(b.Count) {
		return false
	}
	for i, g := range a.Groups {
		if fmt.Sprint(g.Values) != fmt.Sprint(b.Groups[i].Values) ||
			math.Float64bits(g.Estimate) != math.Float64bits(b.Groups[i].Estimate) {
			return false
		}
	}
	return true
}

// TestMissFetchRelaysNodeStatus: a miss fetch every node refuses reaches
// the client with the node's own status, not a blanket 502 — the soft 404
// is retried on the other node, then relayed.
func TestMissFetchRelaysNodeStatus(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 2,
		Router: fleet.Options{Timeout: 5 * time.Second}})
	n := experiment.SyntheticSchema().NumAttrs()
	items := make([]query.BatchItem, 8)
	for i := range items {
		items[i] = query.BatchItem{Pred: query.NewPredicate(n).WhereEq(3, i)}
	}
	want, _, _ := askBatch(t, f.Primary().URL(), "demo/nope", items)
	got, _, raw := askBatch(t, f.RouterURL(), "demo/nope", items)
	if want != http.StatusNotFound || got != want {
		t.Errorf("node answered %d, the router %d (%s)", want, got, raw)
	}
}

// TestRoutedBatchHeaders pins what a batch the router assembles says about
// where its answers came from: X-Estimator-Generation when every answer
// shares one live generation (all-miss, partial hit and all-hit alike — a
// node batch carries it, so must the router's), nothing on a versioned
// read, and X-Fleet-Node only when this request fetched from a node.
func TestRoutedBatchHeaders(t *testing.T) {
	caching := fleettest.New(t, fleettest.Options{Nodes: 1,
		Router: fleet.Options{Timeout: 5 * time.Second}})
	const estimator = "demo/maxent"
	n := experiment.SyntheticSchema().NumAttrs()
	items := make([]query.BatchItem, 8)
	for i := range items {
		items[i] = query.BatchItem{Pred: query.NewPredicate(n).WhereEq(3, i)}
	}
	_, header, _ := askBatch(t, caching.Primary().URL(), estimator, items[:1])
	gen := header.Get(server.EstimatorGenerationHeader)
	if gen == "" {
		t.Fatal("the node answers a live batch without a generation")
	}
	for _, step := range []struct {
		name  string
		items []query.BatchItem
		cache string
		node  string
	}{
		{"all-miss", items[:3], "", "node0"},
		{"partial hit", items[:5], "", "node0"},
		{"all-hit", items[:5], "hit", ""},
		{"all-hit again", items[:5], "hit", ""},
	} {
		status, header, raw := askBatch(t, caching.RouterURL(), estimator, step.items)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.name, status, raw)
		}
		for name, want := range map[string]string{
			server.EstimatorGenerationHeader: gen,
			fleet.RouterCacheHeader:          step.cache,
			fleet.FleetNodeHeader:            step.node,
		} {
			if got := header.Get(name); got != want {
				t.Errorf("%s: %s %q, want %q", step.name, name, got, want)
			}
		}
	}
	// Snapshot answers are immutable and name no generation.
	frame, err := query.AppendBatchAt(nil, estimator, 1, items[:2])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(caching.RouterURL()+"/query/batch", server.BinaryBatchContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(server.EstimatorGenerationHeader); resp.StatusCode != http.StatusOK || got != "" {
		t.Errorf("versioned batch: status %d, X-Estimator-Generation %q, want none", resp.StatusCode, got)
	}
}

// TestRoutedLiveAndVersionedReadsShareEntries: a router keys its cache as a
// node does, by estimator and version, so once a live read has cached its
// answers a ?version=N read of the version that live read reported is
// answered from those entries — all hits, bit-identical counts and groups.
func TestRoutedLiveAndVersionedReadsShareEntries(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 2,
		Router: fleet.Options{Timeout: 5 * time.Second}})
	const estimator = "demo/maxent"
	pool := routedPool()
	status, header, raw := askBatch(t, f.RouterURL(), estimator, pool)
	if status != http.StatusOK {
		t.Fatalf("live read: status %d: %s", status, raw)
	}
	live := decodeBatchAnswers(t, header, raw)
	gen := header.Get(server.EstimatorGenerationHeader)
	if gen == "" {
		t.Fatal("the live read reported no generation")
	}

	frame, err := query.AppendBatch(nil, estimator, pool)
	if err != nil {
		t.Fatal(err)
	}
	status, header, raw = postBody(t, f.RouterURL()+"/query/batch?version="+gen, server.BinaryBatchContentType, frame)
	if status != http.StatusOK {
		t.Fatalf("?version=%s read: status %d: %s", gen, status, raw)
	}
	if tag := header.Get(fleet.RouterCacheHeader); tag != "hit" {
		t.Errorf("?version=%s read after a live read at %s: X-Router-Cache %q, want hit", gen, gen, tag)
	}
	if err := sameAnswers(live, decodeBatchAnswers(t, header, raw)); err != nil {
		t.Errorf("?version=%s read against the live read: %v", gen, err)
	}
}

// TestVersionedReadSkipsAReplicaThatLacksTheVersion pins the router's
// soft-404 hold-and-replay: a replica that has not synced the primary's
// newest version answers a ?version=N read of it 404, and the router must
// hold that answer and ask another node instead of relaying it. The replica
// syncs once at start and never again, the primary publishes v2 by a direct
// ingest (no router, so no /sync/notify), and every distinct ?version=2 read
// through a cacheless router must answer 200 with the primary's count.
func TestVersionedReadSkipsAReplicaThatLacksTheVersion(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 2, SyncInterval: time.Hour})
	if _, err := f.Live.Ingest(fleettest.Rows(150, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Live.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ent, _ := f.Nodes[1].Registry.Get("demo/maxent"); ent.Version != 1 {
		t.Fatalf("the replica serves v%d, want v1: it synced after start", ent.Version)
	}
	replicaErrors := func() uint64 {
		t.Helper()
		resp, err := http.Get(f.Nodes[1].URL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m server.MetricsResponse
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.ErrorsTotal
	}
	before := replicaErrors()

	routed := secondRouter(t, f, fleet.Options{CacheSize: -1, Timeout: 5 * time.Second})
	n := experiment.SyntheticSchema().NumAttrs()
	for i := 0; i < 8; i++ {
		req := server.QueryRequest{Estimator: "demo/maxent", Predicate: query.NewPredicate(n).WhereEq(3, i)}
		var direct, got server.QueryResponse
		if s := postJSON(t, f.Primary().URL()+"/query?version=2", req, &direct); s != http.StatusOK {
			t.Fatalf("read %d: the primary answered %d", i, s)
		}
		if s := postJSON(t, routed+"/query?version=2", req, &got); s != http.StatusOK {
			t.Fatalf("read %d: the router answered %d, want 200", i, s)
		}
		sameCount(t, fmt.Sprintf("read %d", i), direct.Count, got.Count)
	}
	if replicaErrors() == before {
		t.Fatal("no read asked the replica first: the hold was never exercised")
	}
}
