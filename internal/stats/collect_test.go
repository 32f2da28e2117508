package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
)

// blockedRelation draws skewedRelation-like rows over five attributes of
// small domains (so a block of the pair tables' scan is 65,536 rows) and
// stores them as ingestion does: AppendRows batches into parts of 65,536
// rows, then a Slice that starts and ends mid-part. The view spans more
// than three blocks, none of whose boundaries lines up with a part's.
func blockedRelation(t *testing.T, rng *rand.Rand) *relation.Relation {
	attrs := make([]schema.Attribute, 5)
	for a := range attrs {
		n := 2 + rng.Intn(19)
		attrs[a] = schema.MustBinned(string(rune('a'+a)), 0, float64(n), n)
	}
	sch := schema.MustNew(attrs...)
	const rows = 3*(1<<16) + 30_000
	rel := relation.New(sch)
	for left := rows; left > 0; {
		batch := make([][]int, min(left, 1+rng.Intn(20_000)))
		for i := range batch {
			tuple := make([]int, len(attrs))
			for a := range tuple {
				n := sch.Attr(a).Size()
				u := rng.Float64()
				tuple[a] = int(u * u * float64(n))
				if a > 0 && rng.Intn(3) > 0 {
					tuple[a] = (tuple[a-1] + rng.Intn(2)) % n
				}
			}
			batch[i] = tuple
		}
		if err := rel.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		left -= len(batch)
	}
	view, err := rel.Slice(777, rows-333)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// perPassPipeline is the statistics of a build as they were computed
// before Collect: NewSet's Histogram1D per attribute, a Histogram2D per
// pair to rank it, and another per chosen pair for its buckets.
func perPassPipeline(t *testing.T, rel *relation.Relation, pairBudget, perPair int, h Heuristic) (*Set, []PairCorrelation) {
	set := NewSet(rel)
	chosen := SelectPairs(RankPairs(rel, nil), pairBudget)
	for _, pc := range chosen {
		sts, err := SelectPairStatistics(rel, pc.A1, pc.A2, perPair, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.AddMulti(sts...); err != nil {
			t.Fatal(err)
		}
	}
	return set, chosen
}

// TestCollectMatchesPerPassPipeline holds Collect, one scan of the rows,
// to the per-pass pipeline it replaced: the same N, 1D families, chosen
// pairs (χ² and V to the bit) and multi-dimensional statistics with their
// counts, under every heuristic, several budgets and one, two and four
// counting workers, on multi-block relations cut off their block grid.
func TestCollectMatchesPerPassPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	heuristics := []Heuristic{LargeSingleCell, ZeroSingleCell, Composite}
	budgets := [][2]int{{1, 1}, {2, 8}, {3, 40}, {10, 5}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for trial := 0; trial < 3; trial++ {
		rel := blockedRelation(t, rng)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for k, h := range heuristics {
				b := budgets[(trial+procs+k)%len(budgets)]
				name := fmt.Sprintf("trial %d GOMAXPROCS=%d %v B_a=%d B_s=%d", trial, procs, h, b[0], b[1])
				set, chosen, err := Collect(rel, b[0], b[1], h)
				if err != nil {
					t.Fatal(err)
				}
				want, wantChosen := perPassPipeline(t, rel, b[0], b[1], h)
				if set.N != want.N || !reflect.DeepEqual(set.DomainSizes, want.DomainSizes) {
					t.Fatalf("%s: N %d, domains %v; the per-pass pipeline %d, %v", name, set.N, set.DomainSizes, want.N, want.DomainSizes)
				}
				if !reflect.DeepEqual(set.OneD, want.OneD) {
					t.Fatalf("%s: the 1D families differ from NewSet's", name)
				}
				if len(chosen) != len(wantChosen) {
					t.Fatalf("%s: chose %d pairs, the per-pass pipeline %d", name, len(chosen), len(wantChosen))
				}
				for i, pc := range chosen {
					w := wantChosen[i]
					if pc.A1 != w.A1 || pc.A2 != w.A2 ||
						math.Float64bits(pc.Chi2) != math.Float64bits(w.Chi2) || math.Float64bits(pc.V) != math.Float64bits(w.V) {
						t.Fatalf("%s: chosen pair %d is %+v, the per-pass pipeline's %+v", name, i, pc, w)
					}
				}
				if !reflect.DeepEqual(set.Multi, want.Multi) {
					t.Fatalf("%s: selected %v, the per-pass pipeline %v", name, set.Multi, want.Multi)
				}
			}
		}
	}
}

// TestCollectWithoutPairsIsNewSet: with no pair to choose — a
// non-positive pair budget, or one attribute — Collect returns NewSet's
// set and no pairs, and does not read the per-pair budget.
func TestCollectWithoutPairsIsNewSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	single := randomRelation(schema.MustNew(schema.MustCategorical("a", []string{"u", "v", "w"})), 50, rng)
	for _, c := range []struct {
		rel                 *relation.Relation
		pairBudget, perPair int
	}{
		{randomRelation(deltaTestSchema(), 300, rng), -1, 0},
		{randomRelation(deltaTestSchema(), 300, rng), 0, 8},
		{single, 2, 8},
	} {
		set, chosen, err := Collect(c.rel, c.pairBudget, c.perPair, Composite)
		if err != nil {
			t.Fatal(err)
		}
		if chosen != nil || !reflect.DeepEqual(set, NewSet(c.rel)) {
			t.Fatalf("B_a=%d over %d attributes: Collect gave %+v and pairs %v, want NewSet's set", c.pairBudget, c.rel.NumAttrs(), set, chosen)
		}
	}
}
