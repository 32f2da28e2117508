package summary

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/raceflag"
	"repro/internal/solver"
)

// TestGroupByRejectsRepeatedAttribute: grouping twice by one attribute has
// only diagonal groups, which the per-attribute pinning cannot express (the
// second pin would overwrite the first and every cell would be a phantom),
// so the summary rejects it like the HTTP layer does.
func TestGroupByRejectsRepeatedAttribute(t *testing.T) {
	rel := testRelation(t, 1200, 5)
	sum, err := Build(rel, Options{Solver: solver.Options{MaxSweeps: 50}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		attrs []int
		ok    bool
	}{
		{[]int{1, 1}, false},
		{[]int{0, 1, 0}, false},
		{[]int{2, 0, 1, 2}, false},
		{[]int{1, 0}, true},
		{[]int{2, 1, 0}, true},
	}
	for _, c := range cases {
		groups, err := sum.EstimateGroupBy(c.attrs, nil)
		if c.ok != (err == nil) {
			t.Errorf("group-by %v: error %v, want accepted=%v", c.attrs, err, c.ok)
		}
		if !c.ok {
			continue
		}
		total := 0.0
		for _, g := range groups {
			total += g.Estimate
		}
		if n := float64(rel.NumRows()); math.Abs(total-n) > 1e-6*n {
			t.Errorf("group-by %v sums to %g, want %g", c.attrs, total, n)
		}
	}
}

// TestGroupByCellsOwnTheirValues: the cells' Values share one backing slab,
// so each must be capped at its own length — a caller appending to one cell
// must not overwrite its neighbour.
func TestGroupByCellsOwnTheirValues(t *testing.T) {
	s := buildSolved(t, testRelation(t, 1500, 11), Options{})
	groups, err := s.EstimateGroupBy([]int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][2]int, len(groups))
	for i, g := range groups {
		want[i] = [2]int{g.Values[0], g.Values[1]}
	}
	for i := range groups {
		_ = append(groups[i].Values, -1)
	}
	for i, g := range groups {
		if g.Values[0] != want[i][0] || g.Values[1] != want[i][1] {
			t.Fatalf("cell %d reads %v after appending to its neighbours, want %v", i, g.Values, want[i])
		}
	}
}

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
}

// cellMap indexes a group-by answer by its value tuple.
func cellMap(groups []core.GroupEstimate) map[core.GroupKey]float64 {
	m := make(map[core.GroupKey]float64, len(groups))
	for _, g := range groups {
		m[core.MakeGroupKey(g.Values)] = g.Estimate
	}
	return m
}

// TestGroupByInvariantsFlightsShape pins, on the benchmark-shaped model (5
// attributes, two statistic pairs sharing one, thousands of terms, one α at
// exactly 0), what the column-pass group-by must preserve: each cell is the
// count estimate of pred ∧ cell and exactly the positive cells are
// returned; an unfiltered group-by sums to N; multi-attribute group-bys
// marginalize to the single-attribute one; a filter on the grouping
// attribute only removes cells.
func TestGroupByInvariantsFlightsShape(t *testing.T) {
	sum := flightsShapedSummary(t, 120, 0)
	if terms := sum.System().Poly().NumTerms(); terms < 2000 {
		t.Fatalf("model has %d terms, want ≥ 2000", terms)
	}
	sizes := sum.Schema().DomainSizes()
	const date, origin, dest, dist = 0, 1, 2, 4

	// Every cell against the per-cell oracle, for 1- and 2-attribute
	// group-bys under no filter, filters on other attributes, and a filter
	// on a grouping attribute.
	queries := []struct {
		attrs []int
		pred  *query.Predicate
	}{
		{[]int{origin}, nil},
		{[]int{date}, query.NewPredicate(5).WhereEq(origin, 3)},
		{[]int{origin}, query.NewPredicate(5).WhereEq(date, 17).WhereRange(dist, 10, 40)},
		{[]int{dist}, query.NewPredicate(5).WhereIn(origin, 1, 5, 9).WhereEq(dest, 21)},
		{[]int{origin}, query.NewPredicate(5).WhereRange(origin, 2, 30).WhereRange(dest, 5, 30)},
		{[]int{origin, dest}, query.NewPredicate(5).WhereIn(origin, 0, 3, 53).WhereRange(dist, 0, 60)},
		{[]int{dest, origin}, query.NewPredicate(5).WhereRange(origin, 0, 9)},
	}
	for _, q := range queries {
		groups, err := sum.EstimateGroupBy(q.attrs, q.pred)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) == 0 {
			t.Fatalf("group-by %v where %v returned no cells", q.attrs, q.pred)
		}
		got := cellMap(groups)
		vals := make([]int, len(q.attrs))
		var walk func(i int)
		walk = func(i int) {
			if i < len(q.attrs) {
				for v := 0; v < sizes[q.attrs[i]]; v++ {
					vals[i] = v
					walk(i + 1)
				}
				return
			}
			cell := query.NewPredicate(5)
			if q.pred != nil {
				cell = q.pred.Clone()
			}
			inPred := true
			for j, a := range q.attrs {
				inPred = inPred && cell.Constraint(a).Matches(vals[j])
				cell.WhereEq(a, vals[j])
			}
			want := 0.0
			if inPred {
				if want, err = sum.EstimateCount(cell); err != nil {
					t.Fatal(err)
				}
			}
			// The oracle's mask-delta identity subtracts at the magnitude of
			// P, so its answer carries an absolute residue of a few ulps of
			// N — visible on cells that are (nearly) empty; the column pass
			// sums the cell's own terms and has no such floor.
			floor := 1e-14 * sum.N()
			est, returned := got[core.MakeGroupKey(vals)]
			switch {
			case returned && math.Abs(est-want) > floor && !relClose(est, want, 1e-12):
				t.Fatalf("group-by %v where %v: cell %v = %g, EstimateCount = %g", q.attrs, q.pred, vals, est, want)
			case !returned && want > floor:
				t.Fatalf("group-by %v where %v: cell %v omitted, EstimateCount = %g", q.attrs, q.pred, vals, want)
			}
		}
		walk(0)
	}

	// An unfiltered single-attribute group-by sums to N, and the absent
	// origin (α = 0) is not a group.
	byOrigin, err := sum.EstimateGroupBy([]int{origin}, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, g := range byOrigin {
		total += g.Estimate
		if g.Values[0] == 53 {
			t.Fatalf("the origin with α = 0 came back as a group with estimate %g", g.Estimate)
		}
	}
	if !relClose(total, sum.N(), 1e-9) {
		t.Fatalf("origin group-by sums to %g, want N = %g", total, sum.N())
	}

	// 2- and 3-attribute group-bys marginalize to the 1-attribute answer
	// (the smallest three-attribute space here is 54·54·62 cells, over the
	// default enumeration bound).
	sum.maxCombos = 1 << 18
	pred := query.NewPredicate(5).WhereRange(dist, 0, 20)
	one, err := sum.EstimateGroupBy([]int{origin}, pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]int{{origin, dest}, {dest, origin}, {dist, origin, dest}} {
		groups, err := sum.EstimateGroupBy(attrs, pred)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for attrs[at] != origin {
			at++
		}
		marginal := make([]float64, sizes[origin])
		for _, g := range groups {
			marginal[g.Values[at]] += g.Estimate
		}
		for _, g := range one {
			if got := marginal[g.Values[0]]; !relClose(got, g.Estimate, 1e-9) {
				t.Fatalf("group-by %v marginalizes origin %d to %g, the origin group-by says %g", attrs, g.Values[0], got, g.Estimate)
			}
		}
	}

	// A filter on the grouping attribute only removes cells.
	kept := cellMap(byOrigin)
	filtered, err := sum.EstimateGroupBy([]int{origin}, query.NewPredicate(5).WhereIn(origin, 40, 2, 53, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 3 {
		t.Fatalf("filter origin ∈ {2,7,40,53} left %d cells, want 3 (53 never occurs)", len(filtered))
	}
	for _, g := range filtered {
		if want := kept[core.MakeGroupKey(g.Values)]; !relClose(g.Estimate, want, 1e-12) {
			t.Fatalf("filtered cell %v = %g, unfiltered %g", g.Values, g.Estimate, want)
		}
	}

}

// TestMaskedReadAllocations holds the masked reads to their allocation
// budgets at the repository benchmark's model shape, which the benchmark
// gate does not compare: a warm EstimateCount allocates nothing, whatever
// the predicate's shape, and a one-attribute EstimateGroupBy under a filter
// on an attribute that carries statistics — one masked column pass —
// allocates only its column, its value buffer and its result (7
// allocations).
func TestMaskedReadAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	sum := flightsShapedSummary(t, 300, 0)
	counts := []*query.Predicate{
		query.NewPredicate(5).WhereEq(1, 3),
		query.NewPredicate(5).WhereEq(1, 3).WhereEq(2, 17),
		query.NewPredicate(5).WhereRange(4, 10, 30).WhereEq(1, 8).WhereEq(0, 40),
		query.NewPredicate(5).WhereIn(2, 40, 3, 9).WhereEq(1, 5),
	}
	for _, pred := range counts {
		if n := testing.AllocsPerRun(50, func() {
			if _, err := sum.EstimateCount(pred); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("EstimateCount(%v) allocates %.0f times, want 0", pred, n)
		}
	}
	const groupByBudget = 7
	for _, pred := range []*query.Predicate{
		query.NewPredicate(5).WhereEq(2, 17),
		query.NewPredicate(5).WhereRange(4, 10, 30).WhereEq(0, 40),
	} {
		if n := testing.AllocsPerRun(50, func() {
			if _, err := sum.EstimateGroupBy([]int{1}, pred); err != nil {
				t.Fatal(err)
			}
		}); n > groupByBudget {
			t.Errorf("EstimateGroupBy(origin | %v) allocates %.0f times, want at most %d", pred, n, groupByBudget)
		}
	}
}

// TestOwnHeapBound holds a resident model's own heap to its budget at the
// repository benchmark's model shape, which the benchmark gate does not
// compare: with one cached factor per range group, not per term and
// attribute, the solved system, its caches and the statistics stay under
// 400,000 bytes.
func TestOwnHeapBound(t *testing.T) {
	const budget = 400_000
	if own, _ := flightsShapedSummary(t, 300, 0).HeapBytes(); own > budget {
		t.Errorf("the summary holds %d bytes of its own, want at most %d", own, budget)
	}
}

// TestStructureHeapBound holds the polynomial structure a resident model
// shares with every model of its shape to its budget at the repository
// benchmark's model shape: with the range groups' member runs as the one term
// index, it stays under 1,600,000 bytes.
func TestStructureHeapBound(t *testing.T) {
	const budget = 1_600_000
	if got := flightsShapedSummary(t, 300, 0).System().Poly().HeapBytes(); got > budget {
		t.Errorf("the polynomial structure holds %d bytes, want at most %d", got, budget)
	}
}

// BenchmarkEstimateGroupBy measures the group-by path at the repository
// benchmark's model shape (2 pairs x 300 statistics, ~10k terms): one column
// pass, one column pass under a filter, and one pass per outer value.
func BenchmarkEstimateGroupBy(b *testing.B) {
	sum := flightsShapedSummary(b, 300, 0)
	cases := []struct {
		name  string
		attrs []int
		pred  *query.Predicate
	}{
		{"origin", []int{1}, nil},
		{"origin|date=17", []int{1}, query.NewPredicate(5).WhereEq(0, 17)},
		{"origin×dest", []int{1, 2}, nil},
	}
	for _, c := range cases {
		b.Run("flights/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				groups, err := sum.EstimateGroupBy(c.attrs, c.pred)
				if err != nil || len(groups) == 0 {
					b.Fatalf("%d groups, error %v", len(groups), err)
				}
			}
		})
	}
}

// BenchmarkEstimateCount measures the count path at the same model shape,
// one case per predicate shape of the repository benchmark's query mix. Each
// case cycles through 64 predicates pinned at the values of seeded random
// rows over every attribute subset of its size, so it averages over masks
// that reach the 2D statistics (origin, dest, distance) and masks that only
// rescale (fl_date, fl_time), as `polynomial.eval_*_us` does.
func BenchmarkEstimateCount(b *testing.B) {
	sum := flightsShapedSummary(b, 300, 0)
	rel := flightsShapedRelation(b, 2000, 11, 0)
	sizes := sum.System().Poly().DomainSizes()
	var subsets [][][]int // by size
	for size := 0; size <= 3; size++ {
		var sets [][]int
		for mask := 1; mask < 1<<len(sizes); mask++ {
			var set []int
			for a := range sizes {
				if mask&(1<<a) != 0 {
					set = append(set, a)
				}
			}
			if len(set) == size {
				sets = append(sets, set)
			}
		}
		subsets = append(subsets, sets)
	}
	row := make([]int, len(sizes))
	pool := func(size int, constrain func(p *query.Predicate, i, a, v int)) []*query.Predicate {
		preds := make([]*query.Predicate, 64)
		for q := range preds {
			rel.Row(q*31%rel.NumRows(), row)
			preds[q] = query.NewPredicate(len(sizes))
			for i, a := range subsets[size][q%len(subsets[size])] {
				constrain(preds[q], i, a, row[a])
			}
		}
		return preds
	}
	point := func(p *query.Predicate, _, a, v int) { p.WhereEq(a, v) }
	cases := []struct {
		name  string
		preds []*query.Predicate
	}{
		{"1attr", pool(1, point)},
		{"2attr", pool(2, point)},
		{"3attr", pool(3, point)},
		{"range", pool(2, func(p *query.Predicate, i, a, v int) {
			if i > 0 {
				p.WhereEq(a, v)
				return
			}
			w := sizes[a] / 16
			p.WhereRange(a, max(v-w, 0), min(v+w, sizes[a]-1))
		})},
		{"inset", pool(2, func(p *query.Predicate, i, a, v int) {
			if i > 0 {
				p.WhereEq(a, v)
				return
			}
			p.WhereIn(a, v, (v+7)%sizes[a], (v+19)%sizes[a])
		})},
	}
	for _, c := range cases {
		b.Run("flights/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sum.EstimateCount(c.preds[i%len(c.preds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
