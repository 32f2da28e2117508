package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/experiment"
	"repro/internal/server"
	"repro/internal/store"
)

// TestSyncSnapshotTransfer proves the peer-sync wire end to end: a frame
// fetched over GET /sync/snapshot imports into a second node's store at
// the origin's version number, and the restored estimator answers
// bit-identically.
func TestSyncSnapshotTransfer(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(2000, rand.New(rand.NewSource(1)))
	if _, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{Store: st}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/sync/snapshot?dataset=demo/maxent")
	if err != nil {
		t.Fatal(err)
	}
	framed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sync/snapshot: %d %s", resp.StatusCode, framed)
	}
	if ct := resp.Header.Get("Content-Type"); ct != server.SnapshotContentType {
		t.Fatalf("Content-Type %q, want %q", ct, server.SnapshotContentType)
	}
	version, err := strconv.Atoi(resp.Header.Get(server.SnapshotVersionHeader))
	if err != nil || version < 1 {
		t.Fatalf("bad %s header %q", server.SnapshotVersionHeader, resp.Header.Get(server.SnapshotVersionHeader))
	}

	peer, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info, err := peer.ImportFramed("demo/maxent", version, framed)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != version {
		t.Fatalf("imported at v%d, want v%d", info.Version, version)
	}
	est, _, err := peer.Load("demo/maxent", version)
	if err != nil {
		t.Fatal(err)
	}
	origin, _ := reg.Get("demo/maxent")
	want, _ := origin.Estimator.EstimateCount(nil)
	got, _ := est.EstimateCount(nil)
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("synced estimator answers %v, origin answers %v", got, want)
	}

	// Error surface: unknown dataset and missing parameter.
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/sync/snapshot?dataset=demo/maxent&version=999", http.StatusNotFound},
		{"/sync/snapshot?dataset=nope/maxent", http.StatusNotFound},
		{"/sync/snapshot", http.StatusBadRequest},
		{"/sync/snapshot?dataset=demo/maxent&version=-3", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s: %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}

	// A store-less node serves 501, mirroring the other snapshot routes.
	bare := httptest.NewServer(server.New(server.NewRegistry(), server.Options{}).Handler())
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/sync/snapshot?dataset=demo/maxent")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("store-less /sync/snapshot: %d, want 501", resp.StatusCode)
	}
}

// TestSyncNotifyHook proves POST /sync/notify invokes the node's sync
// hook with the requested dataset, and degrades to a harmless no-op on
// nodes without one.
func TestSyncNotifyHook(t *testing.T) {
	var notified []string
	srv := server.New(server.NewRegistry(), server.Options{
		SyncNotify: func(dataset string) { notified = append(notified, dataset) },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(url string, body []byte) (int, server.SyncNotifyResponse) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out server.SyncNotifyResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	code, out := post(ts.URL+"/sync/notify", []byte(`{"dataset":"demo"}`))
	if code != http.StatusOK || !out.Accepted {
		t.Fatalf("notify: %d accepted=%v", code, out.Accepted)
	}
	code, out = post(ts.URL+"/sync/notify", nil)
	if code != http.StatusOK || !out.Accepted {
		t.Fatalf("empty-body notify: %d accepted=%v", code, out.Accepted)
	}
	if len(notified) != 2 || notified[0] != "demo" || notified[1] != "" {
		t.Fatalf("hook saw %q, want [demo \"\"]", notified)
	}

	hookless := httptest.NewServer(server.New(server.NewRegistry(), server.Options{}).Handler())
	defer hookless.Close()
	code, out = post(hookless.URL+"/sync/notify", []byte(`{}`))
	if code != http.StatusOK || out.Accepted {
		t.Fatalf("hook-less notify: %d accepted=%v, want 200/false", code, out.Accepted)
	}
}
