package server_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/store"
)

// TestRestartedPrimaryMatchesUninterrupted is the kill-and-restart drill. A
// primary on a store ingests a stream's first batches, then restarts — a new
// registry, RestoreStore on a fresh handle of its directory, a resumed Live
// — and ingests the rest. Its model must be bit-identical to the one of a
// primary that never restarted and was fed the same stream: the same saved
// snapshot bytes and the same answers to a fixed workload. After every
// refresh that left nothing pending, the live dataset holds no row.
func TestRestartedPrimaryMatchesUninterrupted(t *testing.T) {
	// With a 250-row threshold the 100-row batches stay pending until the
	// next batch crosses it; the restart comes after a refresh that folded
	// everything, as the durability contract requires.
	sizes := []int{300, 100, 200, 400, 120, 180}
	const restartAfter = 3
	stream := make([][][]int, len(sizes))
	for i, n := range sizes {
		stream[i] = syntheticRows(n, i)
	}
	liveOptions := func(st *store.Store) server.LiveOptions {
		return server.LiveOptions{Dataset: writeOptions(st), RefreshRows: 250}
	}
	base := func() *relation.Mutable {
		return relation.NewMutable(experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1))))
	}
	ingest := func(live *server.Live, batches [][][]int) {
		t.Helper()
		for i, rows := range batches {
			res, err := live.Ingest(rows)
			if err != nil || res.RefreshError != "" {
				t.Fatalf("ingest %d: %+v, %v", i, res, err)
			}
			if pending := server.PendingRows(live).NumRows(); pending != res.PendingRows || res.Refreshed && pending != 0 {
				t.Fatalf("ingest %d: the live dataset holds %d rows, its result %+v", i, pending, res)
			}
		}
	}

	// The uninterrupted primary.
	ust, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ureg := server.NewRegistry()
	ulive, _, err := server.BuildLiveDataset(ureg, "demo", base(), liveOptions(ust))
	if err != nil {
		t.Fatal(err)
	}
	ingest(ulive, stream)

	// The restarted one: the same build, the first batches, then a process
	// that knows only the directory.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := server.BuildLiveDataset(server.NewRegistry(), "demo", base(), liveOptions(st))
	if err != nil {
		t.Fatal(err)
	}
	ingest(live, stream[:restartAfter])
	if s := live.Status(); s.PendingRows != 0 {
		t.Fatalf("%d rows pending at the restart", s.PendingRows)
	}
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if names, problems, err := server.RestoreStore(reg, reopened); err != nil || len(problems) != 0 || len(names) != 1 {
		t.Fatalf("restore: %v, %v, %v", names, problems, err)
	}
	live, err = server.ResumeLive(reg, "demo", liveOptions(reopened))
	if err != nil {
		t.Fatal(err)
	}
	ingest(live, stream[restartAfter:])

	if got, want := live.Status().TotalRows, ulive.Status().TotalRows; got != want {
		t.Fatalf("the restarted primary covers %d rows, the uninterrupted one %d", got, want)
	}
	framed := func(st *store.Store) []byte {
		t.Helper()
		b, _, err := st.ReadFramed("demo/maxent", 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(framed(reopened), framed(ust)) {
		t.Fatal("the restarted primary's newest snapshot differs from the uninterrupted primary's")
	}
	got, _ := reg.Get("demo/maxent")
	want, _ := ureg.Get("demo/maxent")
	if !bytes.Equal(encoded(t, got.Estimator), encoded(t, want.Estimator)) {
		t.Fatal("the restarted primary serves a model that differs from the uninterrupted primary's")
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 40; q++ {
		pred := query.NewPredicate(4).WhereEq(q%4, rng.Intn(3))
		if q%2 == 1 {
			pred.WhereRange((q+1)%4, 0, 1+rng.Intn(2))
		}
		g, err1 := got.Estimator.EstimateCount(pred)
		w, err2 := want.Estimator.EstimateCount(pred)
		if err1 != nil || err2 != nil || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("query %d: restarted %v (%v), uninterrupted %v (%v)", q, g, err1, w, err2)
		}
	}
	g, err1 := got.Estimator.EstimateGroupBy([]int{0, 1}, nil)
	w, err2 := want.Estimator.EstimateGroupBy([]int{0, 1}, nil)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(g, w) {
		t.Fatalf("group-by: restarted %v (%v), uninterrupted %v (%v)", g, err1, w, err2)
	}
}
