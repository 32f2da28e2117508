package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/query"
	"repro/internal/server"
)

// askBatch posts one batch with the given body wire and Accept header ("" =
// none) and returns the status, the response headers, and the raw body.
func askBatch(t *testing.T, base, estimator string, items []query.BatchItem, binaryBody bool, accept string) (int, http.Header, []byte) {
	t.Helper()
	var body []byte
	contentType := "application/json"
	if binaryBody {
		contentType = server.BinaryBatchContentType
		var err error
		if body, err = query.AppendBatch(nil, estimator, items); err != nil {
			t.Fatal(err)
		}
	} else {
		req := server.BatchQueryRequest{Estimator: estimator}
		for _, it := range items {
			req.Queries = append(req.Queries, server.BatchQueryItem{Predicate: it.Pred, GroupBy: it.GroupBy})
		}
		var err error
		if body, err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, base+"/query/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// decodeBatchAnswers decodes a batch response on whichever wire its
// Content-Type names.
func decodeBatchAnswers(t *testing.T, header http.Header, raw []byte) []query.BatchAnswer {
	t.Helper()
	if header.Get("Content-Type") == server.BinaryBatchContentType {
		_, answers, err := query.DecodeAnswers(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("decode answer frame: %v", err)
		}
		return answers
	}
	var br server.BatchQueryResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return br.Answers
}

// TestBatchWireNegotiation pins the one response-wire rule — an Accept
// naming the binary type gets binary, one naming application/json gets
// JSON, anything else mirrors the request — on every path a batch can take:
// a node, a cache-less router forwarding whole, a caching router on an
// all-miss and on an all-hit batch, and a fanned-out batch. Every column of
// a row must return the same Content-Type and Float64bits-identical
// answers.
func TestBatchWireNegotiation(t *testing.T) {
	relay := fleettest.New(t, fleettest.Options{Nodes: 1,
		Router: fleet.Options{CacheSize: -1, Timeout: 5 * time.Second}})
	caching := fleettest.New(t, fleettest.Options{Nodes: 1,
		Router: fleet.Options{Timeout: 5 * time.Second}})
	fanout := fleettest.New(t, fleettest.Options{Nodes: 2,
		Router: fleet.Options{CacheSize: -1, FanoutBatch: 4, Timeout: 5 * time.Second}})
	node := relay.Primary().URL()
	const estimator = "demo/maxent"
	n := experiment.SyntheticSchema().NumAttrs()

	row := 0
	for _, binaryBody := range []bool{false, true} {
		for _, accept := range []string{"", "*/*", "application/json", server.BinaryBatchContentType} {
			label := fmt.Sprintf("binary body=%t, Accept=%q", binaryBody, accept)
			// Items no other row asks, so the caching router's first ask of
			// the row is all-miss and its second all-hit.
			items := []query.BatchItem{
				{Pred: query.NewPredicate(n).WhereEq(3, row)},
				{Pred: query.NewPredicate(n).WhereRange(3, row, 7).WhereEq(0, 1)},
				{GroupBy: []int{1}, Pred: query.NewPredicate(n).WhereEq(3, row)},
				{GroupBy: []int{0, 2}, Pred: query.NewPredicate(n).WhereEq(3, row)},
				{Pred: query.NewPredicate(n).WhereIn(1, 0, 5).WhereEq(3, row)},
				{Pred: query.NewPredicate(n + 1)}, // arity mismatch rides in-band
			}
			row++
			wantBinary := binaryBody
			switch accept {
			case "application/json":
				wantBinary = false
			case server.BinaryBatchContentType:
				wantBinary = true
			}
			wantType := "application/json"
			if wantBinary {
				wantType = server.BinaryBatchContentType
			}

			status, header, raw := askBatch(t, node, estimator, items, binaryBody, accept)
			if status != http.StatusOK {
				t.Fatalf("%s: node answered %d: %s", label, status, raw)
			}
			if got := header.Get("Content-Type"); got != wantType {
				t.Fatalf("%s: node Content-Type %q, want %q", label, got, wantType)
			}
			want := decodeBatchAnswers(t, header, raw)

			// The in-band error is never cached, so the all-hit column asks
			// only the cacheable prefix.
			for _, col := range []struct {
				name  string
				base  string
				items []query.BatchItem
				cache string // expected X-Router-Cache
			}{
				{"router, cache off", relay.RouterURL(), items, ""},
				{"caching router, all-miss", caching.RouterURL(), items, ""},
				{"caching router, all-hit", caching.RouterURL(), items[:5], "hit"},
				{"fanned-out batch", fanout.RouterURL(), items, ""},
			} {
				status, header, raw := askBatch(t, col.base, estimator, col.items, binaryBody, accept)
				if status != http.StatusOK {
					t.Errorf("%s via %s: status %d: %s", label, col.name, status, raw)
					continue
				}
				if got := header.Get("Content-Type"); got != wantType {
					t.Errorf("%s via %s: Content-Type %q, the node answers %q", label, col.name, got, wantType)
					continue
				}
				if got := header.Get(fleet.RouterCacheHeader); got != col.cache {
					t.Errorf("%s via %s: X-Router-Cache %q, want %q", label, col.name, got, col.cache)
				}
				got := decodeBatchAnswers(t, header, raw)
				if len(got) != len(col.items) {
					t.Errorf("%s via %s: %d answers for %d items", label, col.name, len(got), len(col.items))
					continue
				}
				for i, a := range got {
					if !sameBatchAnswer(a, want[i]) {
						t.Errorf("%s via %s: item %d answered %+v, the node %+v", label, col.name, i, a, want[i])
					}
				}
			}
		}
	}
	var m fleet.FleetMetricsResponse
	resp, err := http.Get(fanout.RouterURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.FannedOut != uint64(row) {
		t.Errorf("fan-out router fanned out %d batches, want %d", m.FannedOut, row)
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

// TestFanoutRelaysNodeStatus: a fanned-out batch a node refuses reaches
// the client with the node's own status, not a blanket 502.
func TestFanoutRelaysNodeStatus(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 2,
		Router: fleet.Options{CacheSize: -1, FanoutBatch: 4, Timeout: 5 * time.Second}})
	items := make([]query.BatchItem, 8)
	for _, binaryBody := range []bool{false, true} {
		want, _, _ := askBatch(t, f.Primary().URL(), "demo/nope", items, binaryBody, "")
		got, _, raw := askBatch(t, f.RouterURL(), "demo/nope", items, binaryBody, "")
		if want != http.StatusNotFound || got != want {
			t.Errorf("binary body=%t: node answered %d, the fanned-out batch %d (%s)", binaryBody, want, got, raw)
		}
	}
}

// TestRoutedBatchHeaders pins what a batch the router assembles says about
// where its answers came from: X-Estimator-Generation when every answer
// shares one live generation (all-miss, partial hit and all-hit alike — a
// node batch carries it, so must the router's), nothing when they do not
// (versioned reads, a fan-out whose nodes differ), and X-Fleet-Node only
// when a single node answered every item that was fetched.
func TestRoutedBatchHeaders(t *testing.T) {
	caching := fleettest.New(t, fleettest.Options{Nodes: 1,
		Router: fleet.Options{Timeout: 5 * time.Second}})
	fanout := fleettest.New(t, fleettest.Options{Nodes: 2,
		Router: fleet.Options{CacheSize: -1, FanoutBatch: 4, Timeout: 5 * time.Second}})
	const estimator = "demo/maxent"
	n := experiment.SyntheticSchema().NumAttrs()
	items := make([]query.BatchItem, 8)
	for i := range items {
		items[i] = query.BatchItem{Pred: query.NewPredicate(n).WhereEq(3, i)}
	}
	nodeGen := func(node *fleettest.Node) string {
		_, header, _ := askBatch(t, node.URL(), estimator, items[:1], true, "")
		gen := header.Get(server.EstimatorGenerationHeader)
		if gen == "" {
			t.Fatalf("%s answers a live batch without a generation", node.Name)
		}
		return gen
	}

	gen := nodeGen(caching.Primary())
	for i, step := range []struct {
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
		binaryBody := i%2 == 1 // both wires, one ask per step
		status, header, raw := askBatch(t, caching.RouterURL(), estimator, step.items, binaryBody, "")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.name, status, raw)
		}
		for name, want := range map[string]string{
			server.EstimatorGenerationHeader: gen,
			fleet.RouterCacheHeader:          step.cache,
			fleet.FleetNodeHeader:            step.node,
		} {
			if got := header.Get(name); got != want {
				t.Errorf("%s (binary body=%t): %s %q, want %q", step.name, binaryBody, name, got, want)
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

	// A fan-out is answered by both nodes: no one node to name, and one
	// generation only if the two agree.
	want := nodeGen(fanout.Nodes[0])
	if nodeGen(fanout.Nodes[1]) != want {
		want = ""
	}
	status, header, raw := askBatch(t, fanout.RouterURL(), estimator, items, true, "")
	if status != http.StatusOK {
		t.Fatalf("fan-out: status %d: %s", status, raw)
	}
	if got := header.Get(server.EstimatorGenerationHeader); got != want {
		t.Errorf("fan-out: X-Estimator-Generation %q, want %q", got, want)
	}
	if got := header.Get(fleet.FleetNodeHeader); got != "" {
		t.Errorf("fan-out: X-Fleet-Node %q on a batch two nodes answered", got)
	}
}
