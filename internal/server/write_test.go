package server_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/summary"
)

// writeOptions build the test datasets' models.
func writeOptions(st *store.Store) server.DatasetOptions {
	return server.DatasetOptions{
		Summary: summary.Options{Solver: solver.Options{MaxSweeps: 60}},
		Store:   st,
	}
}

// TestBuildAndRefreshPublishOneModel: a dataset serves one model. A live
// dataset built over a store and grown by a 5000-row ingest leaves one
// registry entry, "demo/maxent", at version 2, saved at both versions —
// and the served model is the built one with the ingested rows folded in,
// bit for bit.
func TestBuildAndRefreshPublishOneModel(t *testing.T) {
	base := experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))
	rows := syntheticRows(5000, 3)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	live, built, err := server.BuildLiveDataset(reg, "demo", relation.NewMutable(base),
		server.LiveOptions{Dataset: writeOptions(st), RefreshRows: 5000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.Ingest(rows)
	if err != nil || !res.Refreshed || res.RefreshError != "" {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	if built.Name != "demo/maxent" || reg.Len() != 1 {
		t.Fatalf("built %q; %d registry entries, want demo/maxent alone", built.Name, reg.Len())
	}
	ent, _ := reg.Get("demo/maxent")
	if ent.Version != 2 {
		t.Errorf("demo/maxent at version %d, want 2", ent.Version)
	}
	var versions []int
	if man, err := st.Versions("demo/maxent"); err == nil {
		for _, sn := range man.Snapshots {
			versions = append(versions, sn.Version)
		}
	}
	if !reflect.DeepEqual(versions, []int{1, 2}) {
		t.Errorf("store versions %v, want [1 2]", versions)
	}

	delta := relation.New(base.Schema())
	if err := delta.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	want, _, err := built.Estimator.(*summary.Summary).Fold(delta, summary.RefreshOptions{Solver: writeOptions(nil).Summary.Solver})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, ent.Estimator), encoded(t, want)) {
		t.Fatal("the refreshed model differs from the built one with the ingest folded in")
	}
}

// encoded is est's snapshot payload.
func encoded(t *testing.T, est core.Estimator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := summary.EncodeEstimator(&buf, est); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPublishIsTheOneWriter walks one dataset through every way a model
// becomes the served one — build, refresh, restore, and a replica's adoption
// of an imported version — and checks after each that the entry's version
// and the store's newest version are what that path promises, and that no
// live read is answered from the replaced version's cached answers. The
// entry's version is the store version on every path, a restart's restore
// included.
func TestPublishIsTheOneWriter(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	live, _, err := server.BuildLiveDataset(reg, "demo",
		relation.NewMutable(experiment.SyntheticRelation(2000, rand.New(rand.NewSource(1)))),
		server.LiveOptions{Dataset: writeOptions(st)})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{Store: st})
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// warm caches n distinct answers of demo/maxent at base, or with want > 0
	// checks that a live read of each answers version want afresh: the
	// answer cached before the swap is unreachable.
	warm := func(base string, n, want int) {
		t.Helper()
		for v := 0; v < n; v++ {
			pred := query.NewPredicate(4).WhereEq(3, v)
			resp, body := postJSON(t, base+"/query", server.QueryRequest{Estimator: "demo/maxent", Predicate: pred})
			var qr server.QueryResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &qr) != nil {
				t.Fatalf("read %d at %s: %d %s", v, base, resp.StatusCode, body)
			}
			if gen := resp.Header.Get(server.EstimatorGenerationHeader); want > 0 && (qr.Cached || gen != strconv.Itoa(want)) {
				t.Errorf("read %d at %s: cached %t at generation %q, want a miss at %d", v, base, qr.Cached, gen, want)
			}
		}
	}
	type state struct {
		version int // Entry.Version
		newest  int // the store's newest version of the key, 0 = none
	}
	observe := func(reg *server.Registry, st *store.Store, name string) state {
		ent, _ := reg.Get(name)
		s := state{version: ent.Version}
		if man, err := st.Versions(name); err == nil {
			if last, ok := man.Latest(); ok {
				s.newest = last.Version
			}
		}
		return s
	}

	// The replica of the sync-import step: its own store, registry and cache.
	rst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rreg := server.NewRegistry()
	rsrv := server.New(rreg, server.Options{Store: rst})
	rts := httptest.NewServer(rsrv.Handler())
	defer rts.Close()
	importVersion := func(version int) {
		t.Helper()
		framed, _, err := st.ReadFramed("demo/maxent", version)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rst.ImportFramed("demo/maxent", version, framed); err != nil {
			t.Fatal(err)
		}
	}
	// The restart of the restore step: a fresh handle on the same directory
	// and an empty registry.
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored := server.NewRegistry()

	for _, step := range []struct {
		name   string
		do     func()
		reg    *server.Registry
		st     *store.Store
		base   string // the node serving reg
		warmed int    // answers the step cached at base before its swap
		want   map[string]state
	}{
		{name: "build", do: func() {}, // BuildLiveDataset above
			reg: reg, st: st,
			want: map[string]state{
				"demo/maxent": {1, 1},
			}},
		{name: "refresh", do: func() {
			warm(ts.URL, 3, 0)
			if _, err := live.Ingest(syntheticRows(300, 2)); err != nil {
				t.Fatal(err)
			}
			if _, err := live.Refresh(); err != nil {
				t.Fatal(err)
			}
		},
			reg: reg, st: st, base: ts.URL, warmed: 3,
			want: map[string]state{
				"demo/maxent": {2, 2},
			}},
		{name: "restore", do: func() {
			names, problems, err := server.RestoreStore(restored, reopened)
			if err != nil || len(problems) != 0 || len(names) != 1 {
				t.Fatalf("restore: %v, %v, %v", names, problems, err)
			}
		},
			reg: restored, st: reopened,
			want: map[string]state{"demo/maxent": {2, 2}}},
		{name: "sync import, first version", do: func() {
			importVersion(1)
			if _, err := server.Adopt(rreg, rst, "demo/maxent"); err != nil {
				t.Fatal(err)
			}
		},
			reg: rreg, st: rst,
			want: map[string]state{"demo/maxent": {1, 1}}},
		{name: "sync import, next version", do: func() {
			warm(rts.URL, 4, 0)
			importVersion(2)
			if _, err := server.Adopt(rreg, rst, "demo/maxent"); err != nil {
				t.Fatal(err)
			}
		},
			reg: rreg, st: rst, base: rts.URL, warmed: 4,
			want: map[string]state{"demo/maxent": {2, 2}}},
	} {
		step.do()
		for name, want := range step.want {
			if got := observe(step.reg, step.st, name); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s is %+v, want %+v", step.name, name, got, want)
			}
		}
		if step.warmed > 0 {
			warm(step.base, step.warmed, step.want["demo/maxent"].version)
		}
	}
}
