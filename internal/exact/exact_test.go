package exact

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
)

// mapGroupBy is GroupBy as it was built before the dense table: every
// group the relation yields, collected through a map and sorted. It is the
// reference the dense path's output must equal, down to an empty result
// being an empty, non-nil slice.
func mapGroupBy(rel *relation.Relation, groupAttrs []int, pred *query.Predicate) []core.GroupEstimate {
	counts := make(map[core.GroupKey]int)
	for vals, c := range rel.Groups(groupAttrs, pred) {
		counts[core.MakeGroupKey(vals)] = c
	}
	out := make([]core.GroupEstimate, 0, len(counts))
	for key, c := range counts {
		out = append(out, core.GroupEstimate{Values: key.Values(len(groupAttrs)), Estimate: float64(c)})
	}
	core.SortGroupEstimates(out)
	return out
}

// TestGroupByMatchesMapReference holds GroupBy to the map reference on a
// skewed relation, grouped inside the dense cap and beyond it, with no
// predicate, a selective one and an unsatisfiable one.
func TestGroupByMatchesMapReference(t *testing.T) {
	sch := schema.MustNew(
		schema.MustBinned("a", 0, 1, 6),
		schema.MustBinned("b", 0, 1, 40),
		schema.MustBinned("c", 0, 1, 900),
	)
	rel := relation.NewWithCapacity(sch, 20_000)
	rng := rand.New(rand.NewSource(46))
	for range 20_000 {
		rel.MustAppend([]int{rng.Intn(6) * rng.Intn(2), min(rng.Intn(40), rng.Intn(40)), rng.Intn(900)})
	}
	preds := []*query.Predicate{
		nil,
		query.NewPredicate(3).WhereRange(1, 3, 12).WhereIn(0, 0, 4),
		query.NewPredicate(3).WhereRange(2, 950, 990),
	}
	for _, attrs := range [][]int{{0}, {1, 0}, {0, 1}, {2, 1}, {0, 1, 2}} {
		for _, pred := range preds {
			got, want := New(rel).GroupBy(attrs, pred), mapGroupBy(rel, attrs, pred)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GroupBy(%v, %v): %d groups, the map reference %d", attrs, pred, len(got), len(want))
			}
		}
	}
}
