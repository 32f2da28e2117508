package server_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/summary"
)

// writeOptions ask for every strategy a dataset can serve.
func writeOptions(st *store.Store) server.DatasetOptions {
	return server.DatasetOptions{
		Summary: summary.Options{Solver: solver.Options{MaxSweeps: 60}},
		Store:   st,
	}
}

// TestDeriveIsOneList: a build and a refresh run the same derivation, so
// they yield the same strategies in the same order — and a live dataset built
// and then grown by a 5000-row ingest leaves the registry, the store and the
// serving pins exactly where the hand-copied build and refresh lists left
// them: the summary saved at every generation, the exact engine never.
func TestDeriveIsOneList(t *testing.T) {
	want := []struct {
		name  string
		saved bool
	}{{"demo/maxent", true}, {"demo/exact", false}}
	shape := func(list []server.Strategy) []string {
		out := make([]string, len(list))
		for i, s := range list {
			out[i] = s.Name
		}
		return out
	}
	wantNames := []string{"demo/maxent", "demo/exact"}
	mut := relation.NewMutable(experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1))))
	rel, _ := mut.Freeze()
	built, _, err := server.Derive("demo", rel, writeOptions(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := shape(built); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("a build derives %v, want %v", got, wantNames)
	}
	if _, err := mut.AppendRows(syntheticRows(400, 3)); err != nil {
		t.Fatal(err)
	}
	grown, _ := mut.Freeze()
	refreshed, info, err := server.Derive("demo", grown, writeOptions(nil), built[0].Estimator.(*summary.Summary))
	if err != nil {
		t.Fatal(err)
	}
	if got := shape(refreshed); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("a refresh derives %v, want %v", got, wantNames)
	}
	if info.DeltaRows != 400 || refreshed[0].Estimator.(*summary.Summary).N() != 3400 {
		t.Fatalf("the refresh folded %d rows into a summary of %v", info.DeltaRows, refreshed[0].Estimator.(*summary.Summary).N())
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	live, names, err := server.BuildLiveDataset(reg, "demo",
		relation.NewMutable(experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))),
		server.LiveOptions{Dataset: writeOptions(st), RefreshRows: 5000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.Ingest(syntheticRows(5000, 3))
	if err != nil || !res.Refreshed || res.RefreshError != "" {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	for i, w := range want {
		if names[i] != w.name {
			t.Errorf("registered name %d is %q, want %q", i, names[i], w.name)
		}
		ent, ok := reg.Get(w.name)
		if !ok || ent.Generation != 2 {
			t.Errorf("%s: registered=%t at generation %d, want generation 2", w.name, ok, ent.Generation)
		}
		var versions []int
		if man, err := st.Versions(w.name); err == nil {
			for _, sn := range man.Snapshots {
				versions = append(versions, sn.Version)
			}
		}
		wantVersions, wantPins := []int(nil), []int(nil)
		if w.saved {
			wantVersions, wantPins = []int{1, 2}, []int{2}
		}
		if !reflect.DeepEqual(versions, wantVersions) {
			t.Errorf("%s: store versions %v, want %v", w.name, versions, wantVersions)
		}
		if pins := st.Pinned(w.name); len(pins)+len(wantPins) > 0 && !reflect.DeepEqual(pins, wantPins) {
			t.Errorf("%s: pinned %v, want %v", w.name, pins, wantPins)
		}
	}
	if reg.Len() != len(want) {
		t.Errorf("%d registry entries, want %d", reg.Len(), len(want))
	}
}

// TestPublishIsTheOneWriter walks one dataset through every way a model
// becomes the served one — build, refresh, restore, and a replica's adoption
// of an imported version — and checks after each that the registry
// generation, the recorded served version, the store's newest version, the
// serving pin and the cache entries dropped are what that path promises.
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

	// warm caches n distinct answers of the estimator at base.
	warm := func(base, estimator string, n int) {
		t.Helper()
		for v := 0; v < n; v++ {
			pred := query.NewPredicate(4).WhereEq(3, v)
			if resp, body := postJSON(t, base+"/query", server.QueryRequest{Estimator: estimator, Predicate: pred}); resp.StatusCode != http.StatusOK {
				t.Fatalf("warm %s: %d %s", estimator, resp.StatusCode, body)
			}
		}
	}
	type state struct {
		generation uint64
		served     int // Entry.Served
		newest     int // the store's newest version of the key, 0 = none
		pinned     []int
	}
	observe := func(reg *server.Registry, st *store.Store, name string) state {
		ent, _ := reg.Get(name)
		s := state{generation: ent.Generation, served: ent.Served}
		if pins := st.Pinned(name); len(pins) > 0 {
			s.pinned = pins
		}
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
	// (pins live in the process, not on disk) and an empty registry.
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored := server.NewRegistry()

	for _, step := range []struct {
		name    string
		do      func()
		reg     *server.Registry
		st      *store.Store
		cache   *server.Cache
		dropped uint64 // cache entries the step invalidates
		want    map[string]state
	}{
		{name: "build", do: func() {}, // BuildLiveDataset above
			reg: reg, st: st, cache: srv.Cache(),
			want: map[string]state{
				"demo/maxent": {1, 1, 1, []int{1}},
				"demo/exact":  {1, 0, 0, nil},
			}},
		{name: "refresh", do: func() {
			warm(ts.URL, "demo/maxent", 3)
			warm(ts.URL, "demo/exact", 2)
			if _, err := live.Ingest(syntheticRows(300, 2)); err != nil {
				t.Fatal(err)
			}
			if _, err := live.Refresh(); err != nil {
				t.Fatal(err)
			}
		},
			reg: reg, st: st, cache: srv.Cache(), dropped: 5,
			want: map[string]state{
				"demo/maxent": {2, 2, 2, []int{2}},
				"demo/exact":  {2, 0, 0, nil},
			}},
		{name: "restore", do: func() {
			names, problems, err := server.RestoreStore(restored, reopened)
			if err != nil || len(problems) != 0 || len(names) != 1 {
				t.Fatalf("restore: %v, %v, %v", names, problems, err)
			}
		},
			reg: restored, st: reopened,
			want: map[string]state{"demo/maxent": {1, 2, 2, []int{2}}}},
		{name: "sync import, first version", do: func() {
			importVersion(1)
			if _, err := server.Adopt(rreg, rsrv.Cache(), rst, "demo/maxent"); err != nil {
				t.Fatal(err)
			}
		},
			reg: rreg, st: rst, cache: rsrv.Cache(),
			want: map[string]state{"demo/maxent": {1, 1, 1, []int{1}}}},
		{name: "sync import, next version", do: func() {
			warm(rts.URL, "demo/maxent", 4)
			importVersion(2)
			if _, err := server.Adopt(rreg, rsrv.Cache(), rst, "demo/maxent"); err != nil {
				t.Fatal(err)
			}
		},
			reg: rreg, st: rst, cache: rsrv.Cache(), dropped: 4,
			want: map[string]state{"demo/maxent": {2, 2, 2, []int{2}}}},
	} {
		var before uint64
		if step.cache != nil {
			before = step.cache.Stats().Invalidations
		}
		step.do()
		for name, want := range step.want {
			if got := observe(step.reg, step.st, name); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s is %+v, want %+v", step.name, name, got, want)
			}
		}
		if step.cache != nil {
			if dropped := step.cache.Stats().Invalidations - before; dropped != step.dropped {
				t.Errorf("%s: %d cache entries invalidated, want %d", step.name, dropped, step.dropped)
			}
		}
	}
}
