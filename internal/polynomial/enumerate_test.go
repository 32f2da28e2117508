package polynomial

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/raceflag"
)

// referenceSets enumerates, by brute force over every subset of the specs,
// the compatible statistic sets: those whose ranges have a common
// intersection on every attribute. The result is ordered by
// (|S|, lexicographic S) and carries each set's effective ranges.
func referenceSets(numAttrs int, specs []MultiStatSpec) []term {
	var out []term
	for mask := 0; mask < 1<<len(specs); mask++ {
		eff := make([]query.Range, numAttrs)
		used := make([]bool, numAttrs)
		t := term{}
		ok := true
		for j, spec := range specs {
			if mask&(1<<j) == 0 {
				continue
			}
			t.stats = append(t.stats, j)
			for k, a := range spec.Attrs {
				if !used[a] {
					used[a], eff[a] = true, spec.Ranges[k]
					continue
				}
				eff[a] = eff[a].Intersect(spec.Ranges[k])
				ok = ok && !eff[a].Empty()
			}
		}
		if !ok {
			continue
		}
		for a := range eff {
			if used[a] {
				t.attrs = append(t.attrs, a)
				t.ranges = append(t.ranges, eff[a])
			}
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, k int) bool { return setLess(out[i].stats, out[k].stats) })
	return out
}

// setLess orders statistic sets by (|S|, numeric-lexicographic S).
func setLess(a, b []int) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for x := range a {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return false
}

// randomSpecs draws up to ten statistics over a handful of attribute sets
// that all share attribute 0 (so more than two "pairs" meet on one
// attribute), including a 3-attribute set and repeated draws from the same
// set with wide, overlapping ranges.
func randomSpecs(rng *rand.Rand) ([]int, []MultiStatSpec) {
	m := 3 + rng.Intn(3) // 3..5 attributes
	sizes := make([]int, m)
	for i := range sizes {
		sizes[i] = 4 + rng.Intn(5) // 4..8 values
	}
	attrSets := [][]int{{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}
	if m > 3 {
		attrSets = append(attrSets, []int{0, m - 1}, []int{1, m - 2, m - 1})
	}
	specs := make([]MultiStatSpec, rng.Intn(11))
	for j := range specs {
		attrs := attrSets[rng.Intn(len(attrSets))]
		ranges := make([]query.Range, len(attrs))
		for k, a := range attrs {
			lo := rng.Intn(sizes[a])
			hi := lo + rng.Intn(sizes[a]-lo)
			if rng.Intn(3) == 0 {
				lo, hi = 0, sizes[a]-1
			}
			ranges[k] = query.NewRange(lo, hi)
		}
		specs[j] = MultiStatSpec{Attrs: attrs, Ranges: ranges}
	}
	return sizes, specs
}

// TestBuildTermsMatchesBruteForce checks the level-wise enumeration against
// the subset-by-subset reference — the same compatible sets with the same
// effective ranges, each exactly once, in (|S|, lexicographic S) order — and
// every table and index against the oracle's.
func TestBuildTermsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	deepest := 0
	for trial := 0; trial < 300; trial++ {
		sizes, specs := randomSpecs(rng)
		comp, err := NewCompressed(sizes, specs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkMatchesOracle(t, fmt.Sprintf("trial %d", trial), comp, oracleCompressed(sizes, specs, bitsetTerms(specs)))
		want := referenceSets(len(sizes), specs)
		if comp.NumTerms() != len(want) {
			t.Fatalf("trial %d: %d terms, brute force finds %d compatible sets (specs %v)",
				trial, comp.NumTerms(), len(want), specs)
		}
		for i, w := range want {
			if got := termAt(t, comp, i); !reflect.DeepEqual(got, w) {
				t.Fatalf("trial %d term %d: got %+v, want %+v (specs %v)", trial, i, got, w, specs)
			}
			if len(w.stats) > deepest {
				deepest = len(w.stats)
			}
		}
	}
	if deepest < 4 {
		t.Fatalf("random inputs only reached sets of size %d; the test needs depth ≥ 4", deepest)
	}
}

// levelWalkTerms is the enumeration the pairwise bitsets replaced, kept as
// their oracle: every term of a level is tested against every later
// statistic by a merge walk over its effective ranges, with no appeal to
// pairwise compatibility.
func levelWalkTerms(specs []MultiStatSpec) []term {
	terms := []term{{}}
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, len(terms) {
		for i := lo; i < hi; i++ {
			t := terms[i]
			first := 0
			if n := len(t.stats); n > 0 {
				first = t.stats[n-1] + 1
			}
			for j := first; j < len(specs); j++ {
				if compatible(&MultiStatSpec{Attrs: t.attrs, Ranges: t.ranges}, &specs[j]) {
					terms = append(terms, t.extend(j, specs[j]))
				}
			}
			if len(terms) > 1e6 {
				// Statistics too wide for the test: fail before the
				// enumeration eats the machine's memory.
				panic("levelWalkTerms: more than a million compatible sets")
			}
		}
	}
	return terms
}

// manySpecs draws 65–250 statistics — more than one bitset word — over
// attribute sets that share attributes, 3-attribute sets among them, with
// same-set statistics free to overlap, so that sets of three and more
// statistics are compatible. Every set holds attribute 0 and the ranges are
// short, which keeps the number of compatible sets in the thousands.
func manySpecs(rng *rand.Rand) ([]int, []MultiStatSpec) {
	m := 4 + rng.Intn(3) // 4..6 attributes
	sizes := make([]int, m)
	for i := range sizes {
		sizes[i] = 24 + rng.Intn(17) // 24..40 values
	}
	attrSets := [][]int{{0, 1}, {0, 2}, {0, 1, 2}, {0, 3}, {0, 2, 3}, {0, m - 1}, {0, 1, m - 1}}
	specs := make([]MultiStatSpec, 65+rng.Intn(186))
	for j := range specs {
		attrs := attrSets[rng.Intn(len(attrSets))]
		ranges := make([]query.Range, len(attrs))
		for k, a := range attrs {
			lo := rng.Intn(sizes[a])
			hi := min(lo+rng.Intn(4), sizes[a]-1)
			ranges[k] = query.NewRange(lo, hi)
		}
		specs[j] = MultiStatSpec{Attrs: attrs, Ranges: ranges}
	}
	return sizes, specs
}

// TestBuildTermsMatchesLevelWalk holds the structure to the per-(term,
// later statistic) walk on inputs past one bitset word: the same statistic
// sets with the same effective ranges, in the same order, and the same
// indexes, field by field.
func TestBuildTermsMatchesLevelWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	deepest := 0
	for trial := 0; trial < 40; trial++ {
		sizes, specs := manySpecs(rng)
		terms := levelWalkTerms(specs)
		got, err := NewCompressed(sizes, specs)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesOracle(t, fmt.Sprintf("trial %d (%d statistics)", trial, len(specs)), got, oracleCompressed(sizes, specs, terms))
		for _, w := range terms {
			deepest = max(deepest, len(w.stats))
		}
	}
	if deepest < 3 {
		t.Fatalf("random inputs only reached sets of size %d; the test needs depth ≥ 3", deepest)
	}
	t.Logf("deepest compatible set: %d statistics", deepest)
}

// flightsShapedSpecs is the structure of the repository benchmark's model:
// five attributes with the flights domain sizes and two attribute pairs of
// 300 disjoint rectangles each that share attribute 1, so the compatible
// sets are the base term, the 600 singletons, and every cross-pair couple
// whose rectangles overlap on the shared attribute (9,301 terms).
func flightsShapedSpecs() ([]int, []MultiStatSpec) {
	sizes := []int{307, 54, 54, 62, 81}
	cut := func(n, k int) []query.Range {
		out := make([]query.Range, k)
		for i := range out {
			out[i] = query.NewRange(i*n/k, (i+1)*n/k-1)
		}
		return out
	}
	var specs []MultiStatSpec
	grid := func(a1, k1, a2, k2 int) {
		for _, r1 := range cut(sizes[a1], k1) {
			for _, r2 := range cut(sizes[a2], k2) {
				specs = append(specs, MultiStatSpec{Attrs: []int{a1, a2}, Ranges: []query.Range{r1, r2}})
			}
		}
	}
	grid(1, 20, 2, 15)
	grid(1, 15, 4, 20)
	return sizes, specs
}

// TestFlightsShapeEnumeration pins the benchmark-shaped structure: it
// equals the oracle's field by field, every term is the base, a singleton,
// or a cross-pair couple, the sets ascend strictly in (|S|,
// numeric-lexicographic S) order — which at three-digit statistic indexes
// differs from a decimal-string order and rules out duplicates — and the
// Size report agrees with a direct per-term count.
func TestFlightsShapeEnumeration(t *testing.T) {
	sizes, specs := flightsShapedSpecs()
	comp, err := NewCompressed(sizes, specs)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesOracle(t, "flights shape", comp, oracleCompressed(sizes, specs, bitsetTerms(specs)))
	if n := comp.NumTerms(); n != 9301 {
		t.Fatalf("flights-shaped model has %d terms, want 9301", n)
	}
	var factors int64
	for i := 0; i < comp.NumTerms(); i++ {
		tm := termAt(t, comp, i)
		if len(tm.stats) > 2 || (len(tm.stats) == 2 && (tm.stats[0] >= 300 || tm.stats[1] < 300)) {
			t.Fatalf("term %d holds statistics %v, want at most one of each pair", i, tm.stats)
		}
		if i > 0 && !setLess(comp.stats[i-1], tm.stats) {
			t.Fatalf("term %d (%v) does not ascend from term %d (%v)", i, tm.stats, i-1, comp.stats[i-1])
		}
		for a, n := range sizes {
			if r, ok := termRange(tm, a); ok {
				n = r.Len()
			}
			factors += int64(n)
		}
		factors += int64(len(tm.stats))
	}
	rep := comp.Size()
	if rep.CompressedFactors != factors || rep.Terms != comp.NumTerms() {
		t.Fatalf("Size() = %+v, direct count gives %d factors over %d terms", rep, factors, comp.NumTerms())
	}
	if got := bits.OnesCount64(comp.attrBits[comp.NumTerms()-1]); got != 3 {
		t.Fatalf("a cross-pair couple constrains %d attributes, want 3", got)
	}
}

// termAt reassembles term i from what a built Compressed keeps of it — the
// statistic set, the attribute bitmask and the flat range table the
// evaluators read — and checks that the table holds the full domain exactly
// where the term does not constrain an attribute.
func termAt(t *testing.T, c *Compressed, i int) term {
	t.Helper()
	tm := term{stats: c.stats[i]}
	for a, n := range c.sizes {
		r := c.rangeAt(i*len(c.sizes) + a)
		if c.attrBits[i]&(1<<uint(a)) != 0 {
			tm.attrs = append(tm.attrs, a)
			tm.ranges = append(tm.ranges, r)
		} else if r != fullRange(n) {
			t.Fatalf("term %d does not constrain attribute %d but the range table holds %v, want the full domain", i, a, r)
		}
	}
	return tm
}

// termRange looks the attribute up in the term by linear scan — the
// independent counterpart of the flat table read Size uses.
func termRange(t term, a int) (query.Range, bool) {
	for k, ta := range t.attrs {
		if ta == a {
			return t.ranges[k], true
		}
	}
	return query.Range{}, false
}

// TestNewCompressedAllocations pins the structure build at the benchmark's
// shape to a fixed number of allocations: the tables grow once per level
// and every index is carved from one slab, so the count does not grow with
// the 9,301 terms.
func TestNewCompressedAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	sizes, specs := flightsShapedSpecs()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewCompressed(sizes, specs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Fatalf("NewCompressed at the flights shape makes %.0f allocations, want at most 300", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

var sinkCompressed *Compressed

// BenchmarkNewCompressed measures the structure build (term enumeration and
// the inverted indexes) at the repository benchmark's model shape — the cost
// behind every Build, and every snapshot restore that finds no resident
// model of its structure (Shared).
func BenchmarkNewCompressed(b *testing.B) {
	sizes, specs := flightsShapedSpecs()
	b.Run("flights", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comp, err := NewCompressed(sizes, specs)
			if err != nil {
				b.Fatal(err)
			}
			sinkCompressed = comp
		}
	})
}
