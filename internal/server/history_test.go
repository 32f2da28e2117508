package server_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/raceflag"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/summary"
)

// TestHistoryBudgetsResidentHeap fills a History with 24 versions of one
// benchmark-shaped model under a 3 MiB budget, each version read the way a
// served model is (a count and a one-attribute group-by per attribute, so
// its masked-read caches are built): what the resident versions hold on the
// heap after a collection must stay within 1.1·budget + 1 MiB.
func TestHistoryBudgetsResidentHeap(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes differ under -race")
	}
	const versions, budget = 24, 3 << 20
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes, specs, terms := saveVersions(t, st, versions)
	if terms < 5000 {
		t.Fatalf("model has %d terms, want the benchmark's shape (≥ 5000)", terms)
	}
	// The built model is gone: a resident structure would make the heap grow
	// by less than the History holds.
	for i := 0; ; i++ {
		runtime.GC()
		if live, filed := polynomial.Resident(sizes, specs); live == nil && !filed {
			break
		}
		if i == 500 {
			t.Fatal("the built model's structure was never collected")
		}
		time.Sleep(2 * time.Millisecond)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := server.NewHistory(st, budget, nil)
	pred := query.NewPredicate(len(sizes)).WhereEq(1, 3).WhereRange(4, 10, 40)
	for v := 1; v <= versions; v++ {
		ent, err := h.Get("demo/maxent", v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ent.Estimator.EstimateCount(pred); err != nil {
			t.Fatal(err)
		}
		for a := range sizes {
			if _, err := ent.Estimator.EstimateGroupBy([]int{a}, pred); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	stats := h.Stats()
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d-term model: %d resident versions, %d evictions, %d budgeted bytes, heap grew %d bytes", terms, stats.Entries, stats.Evictions, stats.Bytes, grew)
	if stats.Entries < 2 || stats.Evictions == 0 {
		t.Fatalf("history stats %+v: want several resident versions and some evicted", stats)
	}
	if stats.Bytes > budget {
		t.Fatalf("history budgets %d bytes, over its %d budget", stats.Bytes, budget)
	}
	if limit := int64(budget)*11/10 + 1<<20; grew > limit {
		t.Fatalf("%d resident versions grew the heap by %d bytes, over 1.1·budget + 1 MiB = %d", stats.Entries, grew, limit)
	}
	runtime.KeepAlive(h)
}

// saveVersions builds a model of the repository benchmark's shape (two
// COMPOSITE pairs of 300 rectangles over the flights domains) and saves it
// as versions 1..n of demo/maxent. It returns the model's structure and term
// count, and keeps no reference to the model.
func saveVersions(t *testing.T, st *store.Store, n int) ([]int, []polynomial.MultiStatSpec, int) {
	t.Helper()
	sch := flightsIngestSchema()
	rng := rand.New(rand.NewSource(5))
	rel := relation.NewWithCapacity(sch, 60000)
	row := make([]int, sch.NumAttrs())
	for range 60000 {
		// origin skewed, dest and distance tied to it, so both pairs the
		// selection picks carry structure.
		u := rng.Float64()
		origin := int(u * u * 53)
		row[0], row[1], row[2], row[3] = rng.Intn(307), origin, (origin*5+1+4*rng.Intn(12))%54, rng.Intn(62)
		row[4] = (origin*7 + rng.Intn(5)) % 81
		rel.MustAppend(row)
	}
	sum, err := summary.Build(rel, summary.Options{
		PairBudget:    2,
		PerPairBudget: 300,
		Heuristic:     stats.Composite,
		Solver:        solver.Options{MaxSweeps: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for range n {
		if _, err := st.Save("demo/maxent", sum); err != nil {
			t.Fatal(err)
		}
	}
	return sum.Stats().DomainSizes, sum.Stats().MultiSpecs(), sum.System().Poly().NumTerms()
}
