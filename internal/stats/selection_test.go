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

// skewedRelation draws a relation over 3–5 attributes of random domain
// sizes whose values crowd the low end of their domains, with every
// attribute after the first leaning on its predecessor, so the pairs rank
// apart and the joint tables mix heavy, light and empty cells.
func skewedRelation(rng *rand.Rand, rows int) *relation.Relation {
	attrs := make([]schema.Attribute, 3+rng.Intn(3))
	for a := range attrs {
		n := 2 + rng.Intn(19)
		attrs[a] = schema.MustBinned(string(rune('a'+a)), 0, float64(n), n)
	}
	sch := schema.MustNew(attrs...)
	rel := relation.NewWithCapacity(sch, rows)
	tuple := make([]int, len(attrs))
	for i := 0; i < rows; i++ {
		for a := range tuple {
			n := sch.Attr(a).Size()
			u := rng.Float64()
			tuple[a] = int(u * u * float64(n))
			if a > 0 && rng.Intn(3) > 0 {
				tuple[a] = (tuple[a-1] + rng.Intn(2)) % n
			}
		}
		rel.MustAppend(tuple)
	}
	return rel
}

// The per-pass pipeline Collect and SelectMulti replaced, kept as their
// oracle: every pair's joint table is counted by its own Histogram2D scan.

// ChiSquared is the chi-squared statistic of independence between two
// attributes, computed over their joint table in ascending attribute
// order, so the argument order does not change a bit of it.
func ChiSquared(rel *relation.Relation, a1, a2 int) float64 {
	return chiSquared(rel.Histogram2D(min(a1, a2), max(a1, a2)))
}

// CramersV normalizes the chi-squared statistic to [0, 1].
func CramersV(rel *relation.Relation, a1, a2 int) float64 {
	return cramersV(rel, a1, a2, ChiSquared(rel, a1, a2))
}

// RankPairs scores every pair drawn from the candidate attribute list (all
// attributes when candidates is nil), in candidate order, off one
// Histogram2D per pair in ascending attribute order, and sorts the scores
// from most to least correlated.
func RankPairs(rel *relation.Relation, candidates []int) []PairCorrelation {
	if candidates == nil {
		candidates = make([]int, rel.NumAttrs())
		for i := range candidates {
			candidates[i] = i
		}
	}
	var pairs [][2]int
	var tables [][][]int
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			a1, a2 := candidates[i], candidates[j]
			pairs = append(pairs, [2]int{a1, a2})
			tables = append(tables, rel.Histogram2D(min(a1, a2), max(a1, a2)))
		}
	}
	return rankPairs(rel, pairs, tables)
}

// SelectPairStatistics computes the 2D statistics of attribute pair
// (a1, a2) under the heuristic and per-pair budget from the pair's own
// Histogram2D. Attribute indexes in the returned statistics are sorted.
func SelectPairStatistics(rel *relation.Relation, a1, a2 int, budget int, h Heuristic) ([]Statistic, error) {
	if a1 == a2 {
		return nil, fmt.Errorf("stats: 2D statistic needs two distinct attributes, got %d twice", a1)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("stats: per-pair budget must be positive, got %d", budget)
	}
	a1, a2 = min(a1, a2), max(a1, a2)
	return pairStatistics(a1, a2, rel.Histogram2D(a1, a2), budget, h)
}

// checkHistogram2D holds Histogram2D to a per-row count.
func checkHistogram2D(t *testing.T, rel *relation.Relation, a1, a2 int) {
	t.Helper()
	n1, n2 := rel.Schema().Attr(a1).Size(), rel.Schema().Attr(a2).Size()
	want := make([][]int, n1)
	for v := range want {
		want[v] = make([]int, n2)
	}
	for i := 0; i < rel.NumRows(); i++ {
		want[rel.Value(i, a1)][rel.Value(i, a2)]++
	}
	if got := rel.Histogram2D(a1, a2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Histogram2D(%d, %d) differs from a per-row count", a1, a2)
	}
}

// TestSelectionReadsEachPairOnce holds the one-table-per-pair selection to
// what it replaced, on random skewed relations: RankPairs' χ² and V are
// bit-identical to ChiSquared and CramersV of the pair (whatever the
// candidate order), and SelectMulti, under every heuristic, chooses the same pairs and the same statistics as ranking, choosing and
// calling SelectPairStatistics pair by pair.
func TestSelectionReadsEachPairOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	heuristics := []Heuristic{LargeSingleCell, ZeroSingleCell, Composite}
	for trial := 0; trial < 8; trial++ {
		rel := skewedRelation(rng, 200+rng.Intn(2000))
		m := rel.NumAttrs()
		reversed := make([]int, m)
		for a := range reversed {
			reversed[a] = m - 1 - a
		}
		for _, candidates := range [][]int{nil, reversed} {
			for _, pc := range RankPairs(rel, candidates) {
				chi, v := ChiSquared(rel, pc.A1, pc.A2), CramersV(rel, pc.A1, pc.A2)
				if math.Float64bits(pc.Chi2) != math.Float64bits(chi) || math.Float64bits(pc.V) != math.Float64bits(v) {
					t.Fatalf("trial %d pair (%d, %d): RankPairs gives χ² %v, V %v; ChiSquared %v, CramersV %v",
						trial, pc.A1, pc.A2, pc.Chi2, pc.V, chi, v)
				}
				checkHistogram2D(t, rel, pc.A1, pc.A2)
			}
		}
		for _, h := range heuristics {
			pairBudget, perPair := 1+rng.Intn(m), 1+rng.Intn(12)
			set := NewSet(rel)
			chosen, err := SelectMulti(rel, set, pairBudget, perPair, ByCorrelation, h)
			if err != nil {
				t.Fatal(err)
			}
			want := NewSet(rel)
			wantChosen := SelectPairs(RankPairs(rel, nil), pairBudget)
			for _, pc := range wantChosen {
				sts, err := SelectPairStatistics(rel, pc.A1, pc.A2, perPair, h)
				if err != nil {
					t.Fatal(err)
				}
				if err := want.AddMulti(sts...); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(chosen, wantChosen) {
				t.Fatalf("trial %d %v: SelectMulti chose %+v, the per-pair oracle %+v", trial, h, chosen, wantChosen)
			}
			if !reflect.DeepEqual(set.Multi, want.Multi) {
				t.Fatalf("trial %d %v: SelectMulti selected %v, the per-pair oracle %v", trial, h, set.Multi, want.Multi)
			}
		}
	}
}

// TestHistogram2DAtTheDomainCap counts a pair whose first attribute spans
// the widest domain a column encodes, value 65535 included, in both
// orientations and through a slice that starts mid-column.
func TestHistogram2DAtTheDomainCap(t *testing.T) {
	const top = 1<<16 - 1
	sch := schema.MustNew(
		schema.MustBinned("wide", 0, 1<<16, 1<<16),
		schema.MustCategorical("narrow", []string{"x", "y"}),
	)
	rel := relation.New(sch)
	for _, row := range [][]int{{top, 1}, {0, 0}, {top, 1}, {40000, 0}, {top, 0}, {1, 1}} {
		rel.MustAppend(row)
	}
	checkHistogram2D(t, rel, 0, 1)
	checkHistogram2D(t, rel, 1, 0)
	if got := rel.Histogram2D(0, 1)[top]; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Histogram2D(0, 1)[65535] = %v, want [1 2]", got)
	}
	tail, err := rel.Slice(2, rel.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	checkHistogram2D(t, tail, 0, 1)
}

// TestSelectMultiRefusesBadBudgetFirst checks that a non-positive per-pair
// budget is refused by SelectMulti and by Collect with
// SelectPairStatistics' message before any pair is counted: over three 512-value attributes, ranking alone would allocate a
// 2 MB joint table per pair.
func TestSelectMultiRefusesBadBudgetFirst(t *testing.T) {
	attrs := make([]schema.Attribute, 3)
	for a := range attrs {
		attrs[a] = schema.MustBinned(string(rune('a'+a)), 0, 512, 512)
	}
	rel := randomRelation(schema.MustNew(attrs...), 100, rand.New(rand.NewSource(1)))
	for _, budget := range []int{0, -3} {
		_, want := SelectPairStatistics(rel, 0, 1, budget, Composite)
		if want == nil {
			t.Fatalf("SelectPairStatistics accepted budget %d", budget)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := SelectMulti(rel, NewSet(rel), 2, budget, ByCorrelation, Composite)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("SelectMulti with per-pair budget %d: error %v, want %q", budget, err, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("SelectMulti allocated %d bytes before refusing per-pair budget %d: it counted pairs first", grew, budget)
		}
		runtime.ReadMemStats(&before)
		_, _, err = Collect(rel, 2, budget, Composite)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("Collect with per-pair budget %d: error %v, want %q", budget, err, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("Collect allocated %d bytes before refusing per-pair budget %d: it counted pairs first", grew, budget)
		}
	}
}

// flightsShaped draws a relation with the repository benchmark's flights
// shape: five attributes with its domain sizes (date, origin, destination,
// time, distance), a skewed origin, a dozen destinations per origin, and a
// distance the route fixes up to a small jitter.
func flightsShaped(rows int, seed int64) *relation.Relation {
	const dates, airports, times, dists, routes = 307, 54, 62, 81, 12
	sch := schema.MustNew(
		schema.MustBinned("fl_date", 0, dates, dates),
		schema.MustBinned("origin", 0, airports, airports),
		schema.MustBinned("dest", 0, airports, airports),
		schema.MustBinned("fl_time", 0, times, times),
		schema.MustBinned("distance", 0, dists, dists),
	)
	rng := rand.New(rand.NewSource(seed))
	rel := relation.NewWithCapacity(sch, rows)
	for i := 0; i < rows; i++ {
		u := rng.Float64()
		origin := int(u * u * (airports - 1))
		dest := (origin*5 + 1 + 4*rng.Intn(routes)) % airports
		gap := origin - dest
		if gap < 0 {
			gap = -gap
		}
		dist := gap*(dists-5)/airports + rng.Intn(5)
		rel.MustAppend([]int{rng.Intn(dates), origin, dest, rng.Intn(times), dist})
	}
	return rel
}

// BenchmarkSelectMulti measures statistic selection — the 1D families and
// the ranking, choice and bucketing of the pairs — at the repository
// benchmark's shape: 1M flights-shaped rows, B_a = 2, B_s = 300, COMPOSITE.
func BenchmarkSelectMulti(b *testing.B) {
	rel := flightsShaped(1_000_000, 1)
	b.Run("flights", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set := NewSet(rel)
			if _, err := SelectMulti(rel, set, 2, 300, ByCorrelation, Composite); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApplyDelta measures the statistics half of a refresh at the
// repository benchmark's shape: a 5,000-row flights-shaped delta folded
// into the 1D families and the 2 × 300 COMPOSITE statistics chosen over
// 1M rows.
func BenchmarkApplyDelta(b *testing.B) {
	rel := flightsShaped(1_000_000, 1)
	set := NewSet(rel)
	if _, err := SelectMulti(rel, set, 2, 300, ByCorrelation, Composite); err != nil {
		b.Fatal(err)
	}
	delta := flightsShaped(5000, 2)
	b.Run("flights", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := set.ApplyDelta(delta); err != nil {
				b.Fatal(err)
			}
		}
	})
}
