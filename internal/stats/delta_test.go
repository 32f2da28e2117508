package stats

import (
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
)

func deltaTestSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustCategorical("a", []string{"u", "v", "w", "x"}),
		schema.MustCategorical("b", []string{"p", "q", "r"}),
		schema.MustBinned("c", 0, 100, 5),
		schema.MustBinned("d", 0, 100, 20),
	)
}

func randomRelation(sch *schema.Schema, rows int, rng *rand.Rand) *relation.Relation {
	rel := relation.NewWithCapacity(sch, rows)
	tuple := make([]int, sch.NumAttrs())
	for i := 0; i < rows; i++ {
		for a := range tuple {
			tuple[a] = rng.Intn(sch.Attr(a).Size())
		}
		rel.MustAppend(tuple)
	}
	return rel
}

// statPredicate is the query predicate a statistic counts: its ranges on
// its attributes, over a relation of numAttrs attributes.
func statPredicate(st Statistic, numAttrs int) *query.Predicate {
	p := query.NewPredicate(numAttrs)
	for k, a := range st.Attrs {
		p.Where(a, query.ValueIn(st.Ranges[k]))
	}
	return p
}

// gridStatistics returns pairwise disjoint 3-attribute statistics over
// attributes (0, 2, 3): a random subset of the grid of a's ranges
// {[0,1],[2,2],[3,3]} × c's {[0,0],[1,3],[4,4]} × every value of d. There
// are 180 grid cells, so a set spans several 64-bit words.
func gridStatistics(rng *rand.Rand) []Statistic {
	aRanges := []query.Range{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 2}, {Lo: 3, Hi: 3}}
	cRanges := []query.Range{{Lo: 0, Hi: 0}, {Lo: 1, Hi: 3}, {Lo: 4, Hi: 4}}
	var out []Statistic
	for _, ra := range aRanges {
		for _, rc := range cRanges {
			for d := 0; d < 20; d++ {
				if rng.Intn(10) < 7 {
					out = append(out, Statistic{
						Attrs:  []int{0, 2, 3},
						Ranges: []query.Range{ra, rc, {Lo: d, Hi: d}},
					})
				}
			}
		}
	}
	return out
}

// TestApplyDeltaMatchesFullRecount appends random deltas to a random base
// and checks that incrementally updated statistics are exactly equal (counts
// are integers, so float64 addition is exact) to statistics recomputed from
// scratch over the combined relation, each multi-dimensional one by its own
// Count scan. The sets hold 2- and 3-attribute statistics, some over more
// than 64 statistics per attribute set; the delta never draws a = 3, so the
// statistics over a = 3 get no delta row. Every fifth trial grows a base
// that is one unfilled part, so its delta straddles a part boundary.
func TestApplyDeltaMatchesFullRecount(t *testing.T) {
	const partRows = 1 << 16 // the rows of a part an append opens
	rng := rand.New(rand.NewSource(42))
	sch := deltaTestSchema()
	for trial := 0; trial < 20; trial++ {
		baseRows := 50 + rng.Intn(400)
		deltaRows := 2 + rng.Intn(200)
		base := relation.NewWithCapacity(sch, baseRows)
		straddle := trial%5 == 1
		if straddle {
			// Leave fewer free rows in the last part than the delta holds.
			baseRows = partRows - 1 - rng.Intn(deltaRows-1)
			base = relation.New(sch)
		}
		tuple := make([]int, sch.NumAttrs())
		for i := 0; i < baseRows; i++ {
			for a := range tuple {
				tuple[a] = rng.Intn(sch.Attr(a).Size())
			}
			base.MustAppend(tuple)
		}
		mut := relation.NewMutable(base)

		frozen, _ := mut.Freeze()
		set := NewSet(frozen)
		// Give the set some multi statistics to maintain.
		multi, err := SelectPairStatistics(frozen, 0, 1, 4, Composite)
		if err != nil {
			t.Fatal(err)
		}
		grid := gridStatistics(rng)
		for j := range grid {
			grid[j].Count = float64(frozen.Count(statPredicate(grid[j], sch.NumAttrs())))
		}
		if err := set.AddMulti(append(multi, grid...)...); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < deltaRows; i++ {
			for a := range tuple {
				tuple[a] = rng.Intn(sch.Attr(a).Size())
			}
			tuple[0] = rng.Intn(3)
			if err := mut.Append(tuple); err != nil {
				t.Fatal(err)
			}
		}
		full, _ := mut.Freeze()
		delta, err := full.Slice(baseRows, full.NumRows())
		if err != nil {
			t.Fatal(err)
		}
		parts := 0
		for range delta.Parts() {
			parts++
		}
		if straddle != (parts == 2) || parts > 2 {
			t.Fatalf("trial %d: delta spans %d parts (straddle %v)", trial, parts, straddle)
		}

		clone := set.Clone()
		if err := clone.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}

		// Recount from scratch with the same structure.
		want := NewSet(full)
		for _, st := range set.Multi {
			st.Count = float64(full.Count(statPredicate(st, sch.NumAttrs())))
			if err := want.AddMulti(st); err != nil {
				t.Fatal(err)
			}
		}

		if clone.N != want.N {
			t.Fatalf("trial %d: N = %d, want %d", trial, clone.N, want.N)
		}
		for a := range clone.OneD {
			for v := range clone.OneD[a] {
				if clone.OneD[a][v] != want.OneD[a][v] {
					t.Fatalf("trial %d: OneD[%d][%d] = %g, want %g", trial, a, v, clone.OneD[a][v], want.OneD[a][v])
				}
			}
		}
		untouched := 0
		for j := range clone.Multi {
			if clone.Multi[j].Count != want.Multi[j].Count {
				t.Fatalf("trial %d: Multi[%d] %v: count %g, want %g", trial, j, set.Multi[j], clone.Multi[j].Count, want.Multi[j].Count)
			}
			if set.Multi[j].Ranges[0].Lo == 3 && clone.Multi[j].Count == set.Multi[j].Count {
				untouched++
			}
		}
		if untouched == 0 {
			t.Fatalf("trial %d: no statistic over a = 3, which no delta row hits", trial)
		}

		// The base set must be untouched (Clone isolated it).
		if set.N != baseRows {
			t.Fatalf("trial %d: ApplyDelta mutated the original set (N=%d)", trial, set.N)
		}
	}
}

func TestApplyDeltaRejectsSchemaMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := NewSet(randomRelation(deltaTestSchema(), 10, rng))

	other := schema.MustNew(schema.MustCategorical("a", []string{"u", "v"}))
	if err := set.ApplyDelta(randomRelation(other, 5, rng)); err == nil {
		t.Fatal("ApplyDelta accepted a delta with a different arity")
	}

	sameArity := schema.MustNew(
		schema.MustCategorical("a", []string{"u", "v", "w", "x"}),
		schema.MustCategorical("b", []string{"p", "q"}), // size 2, set has 3
		schema.MustBinned("c", 0, 100, 5),
		schema.MustBinned("d", 0, 100, 20),
	)
	if err := set.ApplyDelta(randomRelation(sameArity, 5, rng)); err == nil {
		t.Fatal("ApplyDelta accepted a delta with mismatched domain sizes")
	}
}
