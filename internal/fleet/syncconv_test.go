package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/server"
	"repro/internal/store"
)

// TestFleetSyncConvergence is the replication drill: rows are ingested on
// the primary (through the router) while query load hammers the router
// AND every replica directly; each ingest crosses the refresh threshold,
// publishes a new snapshot generation, and the whole fleet must converge
// to it — replicas then answer bit-identically to the primary. Run under
// -race this covers the concurrent sync + query interleaving end to end.
func TestFleetSyncConvergence(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{
		Nodes:        3,
		RefreshRows:  250,
		SyncInterval: 20 * time.Millisecond,
	})
	routed := f.RouterURL()

	// Background load on every serving surface for the whole drill.
	payload, _ := json.Marshal(server.QueryRequest{Estimator: "demo/maxent"})
	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	targets := []string{routed, f.Nodes[1].URL(), f.Nodes[2].URL()}
	for _, base := range targets {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(payload))
				if err != nil {
					select {
					case errs <- fmt.Errorf("load on %s: %v", base, err):
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Errorf("load on %s: status %d", base, resp.StatusCode):
					default:
					}
				}
			}
		}(base)
	}

	// Two ingest → refresh → converge cycles under that load.
	for gen := 2; gen <= 3; gen++ {
		var ing server.IngestResult
		if s := postJSON(t, routed+"/ingest/demo", server.IngestRequest{Rows: fleettest.Rows(300, gen)}, &ing); s != http.StatusOK {
			t.Fatalf("ingest for generation %d: status %d", gen, s)
		}
		if !ing.Refreshed {
			t.Fatalf("ingest for generation %d did not refresh: %+v", gen, ing)
		}
		if err := f.WaitConverged(30 * time.Second); err != nil {
			t.Fatalf("fleet did not converge to generation %d: %v", gen, err)
		}
	}

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatal("queries failed while the fleet was syncing; sync must never take a node out of service")
	}

	// Every replica now serves generation 3 of the same bits: check the
	// advertised generation and a real workload bitwise against the primary.
	rng := rand.New(rand.NewSource(31))
	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 16, rng)
	for _, n := range f.Nodes[1:] {
		var est server.EstimatorsResponse
		resp, err := http.Get(n.URL() + "/estimators")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		found := false
		for _, e := range est.Estimators {
			if e.Name == "demo/maxent" {
				found = true
				if e.Generation != 3 {
					t.Fatalf("%s serves generation %d after two refreshes, want 3", n.Name, e.Generation)
				}
			}
		}
		if !found {
			t.Fatalf("%s does not serve demo/maxent", n.Name)
		}

		for qi, q := range workload {
			if q.IsGroupBy() {
				var want, got server.GroupByResponse
				req := server.GroupByRequest{Estimator: "demo/maxent", Predicate: q.Pred, GroupBy: q.GroupBy}
				ws := postJSON(t, f.Primary().URL()+"/groupby", req, &want)
				gs := postJSON(t, n.URL()+"/groupby", req, &got)
				if ws != gs {
					t.Fatalf("%s query %d: primary status %d, replica %d", n.Name, qi, ws, gs)
				}
				if ws == http.StatusOK {
					sameGroups(t, fmt.Sprintf("%s query %d", n.Name, qi), want.Groups, got.Groups)
				}
				continue
			}
			var want, got server.QueryResponse
			req := server.QueryRequest{Estimator: "demo/maxent", Predicate: q.Pred}
			ws := postJSON(t, f.Primary().URL()+"/query", req, &want)
			gs := postJSON(t, n.URL()+"/query", req, &got)
			if ws != gs {
				t.Fatalf("%s query %d: primary status %d, replica %d", n.Name, qi, ws, gs)
			}
			if ws == http.StatusOK {
				sameCount(t, fmt.Sprintf("%s query %d", n.Name, qi), want.Count, got.Count)
			}
		}

		// The syncer's own account of the drill: at least the two refresh
		// generations imported, at least two hot swaps, no lingering error.
		st := n.Syncer.Status()
		if st.Imported < 2 || st.Swaps < 2 {
			t.Fatalf("%s syncer status %+v after two refresh cycles", n.Name, st)
		}
		if st.LastError != "" {
			t.Fatalf("%s syncer holds error %q after convergence", n.Name, st.LastError)
		}
	}
}

// TestLateReplicaServesThePrimarysVersion: a version names one model on every
// node. A replica that joins after the primary published v3 — a build and
// two refreshes — imports every version and serves v3 under version 3, not
// under a count of its own swaps: its entry, its /estimators generation and
// its X-Estimator-Generation all say 3, as the primary's do.
func TestLateReplicaServesThePrimarysVersion(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 1})
	const key = "demo/maxent"
	for v := 2; v <= 3; v++ {
		if _, err := f.Live.Ingest(fleettest.Rows(200, v)); err != nil {
			t.Fatal(err)
		}
		if out, err := f.Live.Refresh(); err != nil || out.Generation != uint64(v) {
			t.Fatalf("refresh to v%d: %+v, %v", v, out, err)
		}
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	syncer := fleet.NewSyncer(f.Primary().URL(), st, reg, fleet.SyncerOptions{})
	if rep, err := syncer.SyncOnce(context.Background()); err != nil || rep.Imported != 3 || len(rep.Swapped) != 1 {
		t.Fatalf("joining pass: %+v, %v; want three imports and one swap", rep, err)
	}
	if ent, _ := reg.Get(key); ent.Version != 3 {
		t.Fatalf("late replica's entry at version %d, want 3", ent.Version)
	}
	replica := httptest.NewServer(server.New(reg, server.Options{Store: st}).Handler())
	defer replica.Close()
	for _, base := range []string{f.Primary().URL(), replica.URL} {
		resp, err := http.Get(base + "/estimators")
		if err != nil {
			t.Fatal(err)
		}
		var est server.EstimatorsResponse
		err = json.NewDecoder(resp.Body).Decode(&est)
		resp.Body.Close()
		if err != nil || len(est.Estimators) != 1 || est.Estimators[0].Generation != 3 {
			t.Fatalf("%s/estimators: %+v, %v; want %s at generation 3", base, est, err, key)
		}
		status, header, body := postBody(t, base+"/query", "application/json", mustJSON(t, server.QueryRequest{Estimator: key}))
		if gen := header.Get(server.EstimatorGenerationHeader); status != http.StatusOK || gen != "3" {
			t.Fatalf("%s/query: status %d, X-Estimator-Generation %q: %s; want 3", base, status, gen, body)
		}
	}
}

// damageOnClose is a transport whose snapshot bodies, once armed, run a hook
// as the syncer closes them — which it does after importing the frame and
// before loading it back to serve it.
type damageOnClose struct {
	hook func()
}

func (d *damageOnClose) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && d.hook != nil && req.URL.Path == "/sync/snapshot" {
		resp.Body = closeHook{resp.Body, d.hook}
	}
	return resp, err
}

type closeHook struct {
	io.ReadCloser
	hook func()
}

func (c closeHook) Close() error {
	c.hook()
	return c.ReadCloser.Close()
}

// TestSyncServesAnImportItFailedToLoad: a pass that imports the newest
// version and then fails to load it leaves that version on disk with the
// registry still on the one before. The next pass must serve it — the swap is
// decided from what is served against what the store holds, not from what a
// pass happened to download.
func TestSyncServesAnImportItFailedToLoad(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 1})
	const key = "demo/maxent"
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	transport := &damageOnClose{}
	syncer := fleet.NewSyncer(f.Primary().URL(), st, reg, fleet.SyncerOptions{Client: &http.Client{Transport: transport}})
	replica := httptest.NewServer(server.New(reg, server.Options{Store: st}).Handler())
	defer replica.Close()
	ask := func(base string) (gen string, count float64) {
		status, header, body := postBody(t, base+"/query", "application/json", mustJSON(t, server.QueryRequest{Estimator: key}))
		if status != http.StatusOK {
			t.Fatalf("query at %s: %d %s", base, status, body)
		}
		var out server.QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return header.Get(server.EstimatorGenerationHeader), out.Count
	}

	if rep, err := syncer.SyncOnce(context.Background()); err != nil || len(rep.Swapped) != 1 {
		t.Fatalf("first pass: %+v, %v", rep, err)
	}
	if _, err := f.Live.Ingest(fleettest.Rows(200, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Live.Refresh(); err != nil {
		t.Fatal(err)
	}

	// The pass that imports v2 finds the file damaged before it can load it.
	imported := filepath.Join(st.Dir(), key, "v000002.snap")
	var pristine []byte
	transport.hook = func() {
		var err error
		if pristine, err = os.ReadFile(imported); err == nil {
			err = os.WriteFile(imported, pristine[:len(pristine)-1], 0o644)
		}
		if err != nil {
			t.Errorf("damage hook: %v", err)
		}
	}
	rep, err := syncer.SyncOnce(context.Background())
	if err == nil || rep.Imported != 1 || len(rep.Swapped) != 0 {
		t.Fatalf("damaged pass: %+v, %v — want one import and a failed swap", rep, err)
	}
	if gen, _ := ask(replica.URL); gen != "1" {
		t.Fatalf("replica at generation %s after the failed swap, want 1", gen)
	}

	// The file is sound again; nothing is left to download, and the pass
	// still swaps.
	transport.hook = nil
	if err := os.WriteFile(imported, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = syncer.SyncOnce(context.Background())
	if err != nil || rep.Imported != 0 || len(rep.Swapped) != 1 || rep.Swapped[0] != key {
		t.Fatalf("recovery pass: %+v, %v — want no import and %s swapped", rep, err, key)
	}
	ent, _ := reg.Get(key)
	if ent.Version != 2 {
		t.Fatalf("replica entry at version %d, want 2", ent.Version)
	}
	gen, got := ask(replica.URL)
	_, want := ask(f.Primary().URL())
	if gen != "2" {
		t.Errorf("replica answers at generation %s, want 2", gen)
	}
	sameCount(t, "recovered replica", want, got)
	if rep, err := syncer.SyncOnce(context.Background()); err != nil || len(rep.Swapped) != 0 {
		t.Errorf("converged pass: %+v, %v — want nothing to do", rep, err)
	}
}

// TestReplicaHealsDamagedSnapshot: a replica whose newest local snapshot file
// bit-rots comes back up unable to serve that key. A file that does not
// verify is not a version, so the next pass sees it missing at the origin's
// number, fetches it again and the import replaces the damaged file — with
// nothing new published on the origin. The origin's directory is first put in
// the state a kill -9 before the MANIFEST.json write left under older builds:
// the snapshot files alone must be enough for GET /snapshots to offer the key.
// A handle that described the file while it was sound learns of the damage
// from the restart's failed load, a reopened one from its first listing.
func TestReplicaHealsDamagedSnapshot(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{Nodes: 1})
	const key = "demo/maxent"
	if _, err := f.Live.Ingest(fleettest.Rows(200, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Live.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(f.Primary().Store.Dir(), key, "MANIFEST.json")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	primary, _ := f.Primary().Registry.Get(key)
	want, err := primary.Estimator.EstimateCount(nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, reopen := range []bool{true, false} {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// start is one replica process lifetime over the store directory.
		start := func() (*server.Registry, *fleet.Syncer) {
			reg := server.NewRegistry()
			if _, _, err := server.RestoreStore(reg, st); err != nil {
				t.Fatal(err)
			}
			return reg, fleet.NewSyncer(f.Primary().URL(), st, reg, fleet.SyncerOptions{})
		}
		reg, syncer := start()
		if _, err := syncer.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if ent, _ := reg.Get(key); ent.Version != 2 {
			t.Fatalf("replica converged serving v%d, want v2", ent.Version)
		}

		newest := filepath.Join(dir, key, "v000002.snap")
		data, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-5] ^= 0x10
		if err := os.WriteFile(newest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if reopen {
			if st, err = store.Open(dir); err != nil {
				t.Fatal(err)
			}
		}
		reg, syncer = start()
		if _, ok := reg.Get(key); ok {
			t.Fatalf("reopen=%v: restart restored %s from a damaged file", reopen, key)
		}

		if _, err := syncer.SyncOnce(context.Background()); err != nil {
			t.Fatalf("reopen=%v: healing pass: %v", reopen, err)
		}
		if _, _, err := st.ReadFramed(key, 2); err != nil {
			t.Fatalf("reopen=%v: the replica's v2 still does not verify: %v", reopen, err)
		}
		ent, _ := reg.Get(key)
		if ent.Version != 2 {
			t.Fatalf("reopen=%v: replica serves v%d after healing, want v2", reopen, ent.Version)
		}
		got, err := ent.Estimator.EstimateCount(nil)
		if err != nil {
			t.Fatal(err)
		}
		sameCount(t, "healed replica", want, got)
	}
}
