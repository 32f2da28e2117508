package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/query"
	"repro/internal/server"
)

// routerMetrics reads the router's /metrics surface.
func routerMetrics(t testing.TB, routerURL string) fleet.FleetMetricsResponse {
	t.Helper()
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m fleet.FleetMetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// sumNodeMetrics adds up one counter of every node's /metrics.
func sumNodeMetrics(t testing.TB, f *fleettest.Fleet, counter func(server.MetricsResponse) uint64) uint64 {
	t.Helper()
	var total uint64
	for _, n := range f.Nodes {
		resp, err := http.Get(n.URL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m server.MetricsResponse
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		total += counter(m)
	}
	return total
}

// nodeStatus finds one node's routing state in the router metrics.
func nodeStatus(t testing.TB, routerURL, name string) fleet.NodeStatus {
	t.Helper()
	for _, n := range routerMetrics(t, routerURL).Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("node %q not in router metrics", name)
	return fleet.NodeStatus{}
}

// TestFleetKillReplicaMidLoad is the headline fault drill: four workers
// stream binary batches through the router, a replica is hard-killed
// while they are mid-flight, and every single batch must still come back
// bit-identical to single-node serving — zero failed queries.
func TestFleetKillReplicaMidLoad(t *testing.T) {
	// CacheSize -1: the drill needs every round to reach a node — a warm
	// router cache would absorb the identical frames and the kill would
	// land on no in-flight traffic.
	f := fleettest.New(t, fleettest.Options{
		Nodes: 3,
		Router: fleet.Options{
			RetryBackoff: time.Millisecond,
			Timeout:      5 * time.Second,
			CacheSize:    -1,
		},
	})
	routed := f.RouterURL()
	rng := rand.New(rand.NewSource(21))
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 16, rng)
	items := make([]query.BatchItem, len(workload))
	for i, q := range workload {
		items[i] = query.BatchItem{Pred: q.Pred, GroupBy: q.GroupBy}
	}
	frame, err := query.AppendBatchAt(nil, "demo/maxent", 0, items)
	if err != nil {
		t.Fatal(err)
	}

	// The oracle: the primary's own answers, fetched before any fault.
	want := postBinaryBatch(t, f.Primary().URL(), frame)

	const workers, rounds, warmRounds = 4, 25, 5
	var wg, warm sync.WaitGroup
	warm.Add(workers)
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if i == warmRounds {
					warm.Done()
				}
				resp, err := http.Post(routed+"/query/batch", server.BinaryBatchContentType, bytes.NewReader(frame))
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, i, err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d round %d: status %d: %s", w, i, resp.StatusCode, raw)
					continue
				}
				_, got, err := query.DecodeAnswers(bytes.NewReader(raw))
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, i, err)
					continue
				}
				if err := sameAnswers(want, got); err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, i, err)
				}
			}
		}(w)
	}

	// Hard-kill a replica only once every worker is warmed up and still
	// has most of its rounds ahead — the kill lands mid-load, severing
	// in-flight connections.
	warm.Wait()
	f.Nodes[2].Kill()
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		failed++
		t.Error(err)
	}
	if failed > 0 {
		t.Fatalf("%d queries failed or diverged across the replica kill; a fleet must serve through a single-node loss", failed)
	}

	// The kill must have been visible to the router (failed attempts were
	// retried elsewhere), and sustained traffic must open its breaker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := nodeStatus(t, routed, f.Nodes[2].Name)
		if st.Breaker == "open" && st.Failures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed node never tripped its breaker: %+v", st)
		}
		payload, _ := json.Marshal(server.QueryRequest{Estimator: "demo/maxent"})
		resp, err := http.Post(routed+"/query", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query failed with one node down: status %d", resp.StatusCode)
		}
	}
	if m := routerMetrics(t, routed); m.Retries == 0 {
		t.Fatal("router reports zero retries across a mid-load kill")
	}
}

// TestFleetBreakerOpensAndRecovers drives a replica through the full
// failure lifecycle: fault → breaker opens (traffic keeps flowing via
// peers) → fault cleared → cooldown probe → breaker closes and the node
// serves again.
func TestFleetBreakerOpensAndRecovers(t *testing.T) {
	// CacheSize -1: the probe query is identical every ask — cached hits
	// would never touch the sick node and the breaker could not trip.
	f := fleettest.New(t, fleettest.Options{
		Nodes: 3,
		Router: fleet.Options{
			BreakerThreshold: 2,
			BreakerCooldown:  100 * time.Millisecond,
			RetryBackoff:     time.Millisecond,
			Timeout:          5 * time.Second,
			CacheSize:        -1,
		},
	})
	routed := f.RouterURL()
	sick := f.Nodes[1]
	payload, _ := json.Marshal(server.QueryRequest{Estimator: "demo/maxent"})
	ask := func() {
		t.Helper()
		resp, err := http.Post(routed+"/query", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed query failed during fault drill: status %d", resp.StatusCode)
		}
	}

	sick.SetFault(fleettest.Down)
	deadline := time.Now().Add(5 * time.Second)
	for nodeStatus(t, routed, sick.Name).Breaker != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened on a 503-ing node: %+v", nodeStatus(t, routed, sick.Name))
		}
		ask()
	}
	if st := nodeStatus(t, routed, sick.Name); st.BreakerOpens < 1 {
		t.Fatalf("breaker open but opens counter is %d", st.BreakerOpens)
	}

	// /healthz degrades but stays 200: the router itself is fine.
	hresp, err := http.Get(routed + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("healthz with an open breaker: status %d body %q, want 200/degraded", hresp.StatusCode, health.Status)
	}

	// Recovery: clear the fault, wait out the cooldown, and keep asking —
	// the half-open probe lands on the healed node and closes the breaker.
	sick.SetFault(fleettest.None)
	deadline = time.Now().Add(5 * time.Second)
	for nodeStatus(t, routed, sick.Name).Breaker != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after the fault cleared: %+v", nodeStatus(t, routed, sick.Name))
		}
		time.Sleep(20 * time.Millisecond)
		ask()
	}
}

// TestFleetHangingReplica proves a wedged-but-listening node cannot stall
// the fleet: the router's per-attempt timeout abandons it and a peer
// answers.
func TestFleetHangingReplica(t *testing.T) {
	// CacheSize -1: all eight probes are the same query; the drill wants
	// each one to risk landing on the hanging node.
	f := fleettest.New(t, fleettest.Options{
		Nodes: 3,
		Router: fleet.Options{
			Timeout:      150 * time.Millisecond,
			RetryBackoff: time.Millisecond,
			CacheSize:    -1,
		},
	})
	f.Nodes[1].SetFault(fleettest.Hang)
	payload, _ := json.Marshal(server.QueryRequest{Estimator: "demo/maxent"})
	var direct server.QueryResponse
	if s := postJSON(t, f.Primary().URL()+"/query", server.QueryRequest{Estimator: "demo/maxent"}, &direct); s != http.StatusOK {
		t.Fatalf("direct query status %d", s)
	}
	for i := 0; i < 8; i++ {
		resp, err := http.Post(f.RouterURL()+"/query", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var got server.QueryResponse
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d failed behind a hanging replica: %d %s", i, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Count) != math.Float64bits(direct.Count) {
			t.Fatalf("query %d: routed %v, direct %v", i, got.Count, direct.Count)
		}
	}
}

// postBinaryBatch posts a binary batch frame and decodes the answers.
func postBinaryBatch(t testing.TB, base string, frame []byte) []query.BatchAnswer {
	t.Helper()
	resp, err := http.Post(base+"/query/batch", server.BinaryBatchContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary batch at %s: %d %s", base, resp.StatusCode, b)
	}
	_, answers, err := query.DecodeAnswers(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answers
}

// sameAnswers compares two batch answer streams bitwise (Cached aside).
func sameAnswers(want, got []query.BatchAnswer) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Error != g.Error || w.IsGroup != g.IsGroup || len(w.Groups) != len(g.Groups) {
			return fmt.Errorf("answer %d: got %+v, want %+v", i, g, w)
		}
		if !w.IsGroup && math.Float64bits(w.Count) != math.Float64bits(g.Count) {
			return fmt.Errorf("answer %d: count %v, want %v", i, g.Count, w.Count)
		}
		for j := range w.Groups {
			if fmt.Sprint(w.Groups[j].Values) != fmt.Sprint(g.Groups[j].Values) ||
				math.Float64bits(w.Groups[j].Estimate) != math.Float64bits(g.Groups[j].Estimate) {
				return fmt.Errorf("answer %d group %d: got %+v, want %+v", i, j, g.Groups[j], w.Groups[j])
			}
		}
	}
	return nil
}
