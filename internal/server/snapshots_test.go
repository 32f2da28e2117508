package server_test

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/frame"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
)

// TestRestartRoundTrip is the persistence acceptance test: a dataset is
// built once with a store attached (snapshots saved on build), then a
// completely fresh registry is cold-started from the store alone — no
// relation, no solver — and must answer a randomized workload
// bit-identically to the original in-process estimators, over HTTP.
func TestRestartRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// First process lifetime: build from data, snapshotting on build.
	reg1 := server.NewRegistry()
	rel := experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))
	built, err := server.BuildDataset(reg1, "demo", rel, server.DatasetOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}

	// Second process lifetime: restore from the store alone.
	reg2 := server.NewRegistry()
	restored, problems, err := server.RestoreStore(reg2, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("restore problems: %+v", problems)
	}
	sort.Strings(restored)
	want := []string{"demo/maxent"}
	if len(restored) != len(want) || restored[0] != want[0] {
		t.Fatalf("restored %v, want %v (built: %v)", restored, want, built.Name)
	}

	srv := server.New(reg2, server.Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(99))
	sch := rel.Schema()
	for _, name := range want {
		orig, ok := reg1.Get(name)
		if !ok {
			t.Fatalf("original registry lost %q", name)
		}
		for q := 0; q < 50; q++ {
			pred := query.NewPredicate(sch.NumAttrs())
			for a := 0; a < sch.NumAttrs(); a++ {
				if rng.Intn(2) == 0 {
					continue
				}
				lo := rng.Intn(sch.Attr(a).Size())
				pred.WhereRange(a, lo, lo+rng.Intn(sch.Attr(a).Size()-lo))
			}
			wantCount, err := orig.Estimator.EstimateCount(pred)
			if err != nil {
				t.Fatal(err)
			}
			resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Estimator: name, Predicate: pred})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /query (%s): %d %s", name, resp.StatusCode, body)
			}
			var qr server.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(qr.Count) != math.Float64bits(wantCount) {
				t.Fatalf("%s query %d: restored-over-HTTP count %v != freshly-built %v",
					name, q, qr.Count, wantCount)
			}
		}
	}
}

// TestSnapshotEndpoints drives the admin surface: GET /snapshots lists the
// versions the build saved, a version is born at a build or a refresh only
// (POST /snapshots/{dataset} is no route), and the listing fails cleanly
// without a store.
func TestSnapshotEndpoints(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(2000, rand.New(rand.NewSource(2)))
	if _, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{
		Store: st, // v1 of demo/maxent saved on build
	}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// No explicit save: POST /snapshots/demo is no route, even with a store.
	resp, body := postJSON(t, ts.URL+"/snapshots/demo", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /snapshots/demo: %d %s, want 404", resp.StatusCode, body)
	}

	// GET /snapshots lists the one version the build saved.
	getResp, err := http.Get(ts.URL + "/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var list server.SnapshotsResponse
	if err := json.NewDecoder(getResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Dataset != "demo/maxent" || len(list.Datasets[0].Snapshots) != 1 {
		t.Fatalf("GET /snapshots: %+v", list.Datasets)
	}

	// Bad method → 405.
	resp, _ = postJSON(t, ts.URL+"/snapshots", struct{}{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /snapshots: %d, want 405", resp.StatusCode)
	}

	// Without a store, the listing reports 501.
	bare := httptest.NewServer(server.New(reg, server.Options{}).Handler())
	defer bare.Close()
	getResp2, err := http.Get(bare.URL + "/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	getResp2.Body.Close()
	if getResp2.StatusCode != http.StatusNotImplemented {
		t.Errorf("storeless GET /snapshots: %d, want 501", getResp2.StatusCode)
	}
}

// TestRestoreProblemsAreIsolated: a name collision (or any per-dataset
// failure) is reported as a problem and skipped — it must neither
// silently shadow the registered estimator nor abort the rest of the
// restore.
func TestRestoreProblemsAreIsolated(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(1500, rand.New(rand.NewSource(3)))
	if _, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{Store: st}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.BuildDataset(server.NewRegistry(), "other", rel, server.DatasetOptions{Store: st}); err != nil {
		t.Fatal(err)
	}

	// demo/maxent collides with the live registration; other/maxent is
	// new and must restore anyway.
	restored, problems, err := server.RestoreStore(reg, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || problems[0].Dataset != "demo/maxent" {
		t.Fatalf("problems = %+v, want exactly the demo/maxent collision", problems)
	}
	if len(restored) != 1 || restored[0] != "other/maxent" {
		t.Fatalf("restored = %v, want [other/maxent]", restored)
	}
}

// TestRestoreFindsKeyWithoutManifest: a kill -9 between linking a key's first
// snapshot file and writing the MANIFEST.json older builds kept beside it
// left a loadable version no listing showed. The snapshot files are what a
// listing reads, so a restart restores the key and GET /snapshots — what a
// replica's syncer pulls from — names it.
func TestRestoreFindsKeyWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel := experiment.SyntheticRelation(1500, rand.New(rand.NewSource(3)))
	if _, err := server.BuildDataset(server.NewRegistry(), "demo", rel, server.DatasetOptions{Store: st}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "demo", "maxent", "MANIFEST.json")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}

	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	restored, problems, err := server.RestoreStore(reg, reopened)
	if err != nil || len(problems) != 0 || len(restored) != 1 || restored[0] != "demo/maxent" {
		t.Fatalf("restored %v, problems %+v, err %v; want [demo/maxent]", restored, problems, err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{Store: reopened}).Handler())
	defer ts.Close()
	resp, body := get(t, ts.URL+"/snapshots")
	var listed server.SnapshotsResponse
	if err := json.Unmarshal(body, &listed); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshots: %d %s (%v)", resp.StatusCode, body, err)
	}
	if len(listed.Datasets) != 1 || listed.Datasets[0].Dataset != "demo/maxent" || len(listed.Datasets[0].Snapshots) != 1 {
		t.Fatalf("GET /snapshots = %+v, want demo/maxent at one version", listed.Datasets)
	}
	if _, err := reopened.Prune("demo/maxent", 1); err != nil {
		t.Fatalf("Prune of the key: %v", err)
	}
}

// TestRestoreOlderBuildBranch: an older build kept a branch as its own
// dataset key whose MANIFEST.json named the parent snapshot it was forked
// from. The branch's v1 is a full snapshot of its own, so a restart serves
// that key as a plain dataset: no problem, answers equal to an in-process
// load of it, and a GET /snapshots listing without the old parent record.
func TestRestoreOlderBuildBranch(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"demo", "fork"} {
		rel := experiment.SyntheticRelation(1500, rand.New(rand.NewSource(int64(3+i))))
		if _, err := server.BuildDataset(server.NewRegistry(), name, rel, server.DatasetOptions{Store: st}); err != nil {
			t.Fatal(err)
		}
	}
	record := `{"dataset": "fork/maxent", "parent": {"dataset": "demo/maxent", "version": 1}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "fork", "maxent", "MANIFEST.json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	restored, problems, err := server.RestoreStore(reg, reopened)
	if err != nil || len(problems) != 0 || !reflect.DeepEqual(restored, []string{"demo/maxent", "fork/maxent"}) {
		t.Fatalf("restored %v, problems %+v, err %v; want [demo/maxent fork/maxent]", restored, problems, err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{Store: reopened, CacheSize: -1}).Handler())
	defer ts.Close()

	est, _, err := reopened.Load("fork/maxent", 1)
	if err != nil {
		t.Fatal(err)
	}
	sch := experiment.SyntheticSchema()
	for v := 0; v < sch.Attr(0).Size(); v++ {
		pred := query.NewPredicate(sch.NumAttrs()).WhereEq(0, v)
		want, err := est.EstimateCount(pred)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Estimator: "fork/maxent", Predicate: pred})
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query: %d %s (%v)", resp.StatusCode, body, err)
		}
		if math.Float64bits(qr.Count) != math.Float64bits(want) {
			t.Fatalf("fork/maxent attr 0 = %d: served %v, in-process load %v", v, qr.Count, want)
		}
	}

	resp, body := get(t, ts.URL+"/snapshots")
	var listed server.SnapshotsResponse
	if err := json.Unmarshal(body, &listed); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshots: %d %s (%v)", resp.StatusCode, body, err)
	}
	if len(listed.Datasets) != 2 || listed.Datasets[1].Dataset != "fork/maxent" || len(listed.Datasets[1].Snapshots) != 1 {
		t.Fatalf("GET /snapshots = %+v, want fork/maxent at one version", listed.Datasets)
	}
	if strings.Contains(string(body), "parent") {
		t.Fatalf("GET /snapshots carries the old parent record: %s", body)
	}
}

// TestRestoreRefusesRetiredKind: stores written by earlier builds can hold
// kind-tag-2 snapshots (K per-partition summaries), a kind no longer served.
// Restoring such a store serves everything else and reports that key as its
// one problem, while the key stays listed and prunable.
func TestRestoreRefusesRetiredKind(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rel := experiment.SyntheticRelation(1500, rand.New(rand.NewSource(3)))
	if _, err := server.BuildDataset(server.NewRegistry(), "demo", rel, server.DatasetOptions{Store: st}); err != nil {
		t.Fatal(err)
	}
	// The retired layout, framed like the maxent file: kind 2, name, N, K = 1,
	// then the one summary's payload without its kind tag.
	framed, _, err := st.ReadFramed("demo/maxent", 1)
	if err != nil {
		t.Fatal(err)
	}
	const oldName = "partitioned[K=1]×maxent"
	old := append([]byte(nil), framed[:frame.HeaderSize]...)
	old = append(old, 2)
	old = binary.AppendUvarint(old, uint64(len(oldName)))
	old = append(old, oldName...)
	old = binary.LittleEndian.AppendUint64(old, math.Float64bits(float64(rel.NumRows())))
	old = binary.AppendUvarint(old, 1)
	old = append(old, framed[frame.HeaderSize+1:]...)
	if _, err := frame.Seal(old, string(framed[:8]), binary.LittleEndian.Uint16(framed[8:10]), 1<<30); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 2; v++ {
		if _, err := st.ImportFramed("demo/partitioned", v, old); err != nil {
			t.Fatalf("import of a retired-kind file, v%d: %v", v, err)
		}
	}

	reg := server.NewRegistry()
	restored, problems, err := server.RestoreStore(reg, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0] != "demo/maxent" {
		t.Fatalf("restored %v, want [demo/maxent]", restored)
	}
	if len(problems) != 1 || problems[0].Dataset != "demo/partitioned" ||
		!strings.Contains(problems[0].Err.Error(), "partitioned snapshots are no longer served; prune the key or rebuild") {
		t.Fatalf("problems = %+v, want exactly the demo/partitioned refusal", problems)
	}

	ts := httptest.NewServer(server.New(reg, server.Options{Store: st}).Handler())
	defer ts.Close()
	resp, body := get(t, ts.URL+"/snapshots")
	var listed server.SnapshotsResponse
	if err := json.Unmarshal(body, &listed); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshots: %d %s (%v)", resp.StatusCode, body, err)
	}
	keys := map[string]int{}
	for _, man := range listed.Datasets {
		keys[man.Dataset] = len(man.Snapshots)
	}
	if len(keys) != 2 || keys["demo/maxent"] != 1 || keys["demo/partitioned"] != 2 {
		t.Fatalf("GET /snapshots lists %v, want demo/maxent at 1 version and demo/partitioned at 2", keys)
	}
	if removed, err := st.Prune("demo/partitioned", 1); err != nil || len(removed) != 1 || removed[0].Version != 1 {
		t.Fatalf("Prune of the retired key removed %+v, %v; want v1", removed, err)
	}
}
