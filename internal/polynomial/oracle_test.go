package polynomial

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/query"
)

// term is one summand of the compressed polynomial as the oracle
// enumerates it: the set I of attributes covered by the statistics in S,
// the intersected per-attribute ranges ρ_iS, and the statistic indexes S
// themselves. The base term has empty attrs and stats.
type term struct {
	attrs  []int         // sorted attribute indexes in I
	ranges []query.Range // aligned with attrs: the intersection ρ_iS
	stats  []int         // sorted multi-statistic indexes in S
}

// bitsetTerms is the enumeration NewCompressed ran before it wrote its
// tables directly, kept as their oracle. It enumerates the compatible
// statistic sets level by level (|S| = 0, 1, 2, ...), extending each term
// of the previous level only with statistics j > max(S) and testing every
// statistic pair by a merge walk. Compatibility is hereditary — every subset of a
// compatible set is compatible — so each set S is produced exactly once,
// from S \ {max(S)}, and the terms come out already ordered by
// (|S|, lexicographic S): no deduplication and no sort.
//
// Compatibility is also pairwise. On one attribute, ranges that pairwise
// overlap share a point (Helly's theorem for intervals), so a compatible S
// extends to a compatible S ∪ {j} iff j is compatible with every member of
// S. The pairs are tested once, up front, into one bitset row per statistic
// (later[i] holds the compatible j > i), and a term is extended by exactly
// the set bits of ⋀_{s∈S} later[s], in ascending j. The cost is the
// n(n−1)/2 pair tests, one AND of |S| rows per term, and the surviving terms
// themselves.
func bitsetTerms(specs []MultiStatSpec) []term {
	n := len(specs)
	words := (n + 63) / 64
	later := make([]uint64, n*words)
	for i := range specs {
		row := later[i*words : (i+1)*words]
		x := &specs[i]
		for j := i + 1; j < n; j++ {
			if compatible(x, &specs[j]) {
				row[j/64] |= 1 << uint(j%64)
			}
		}
	}

	terms := make([]term, 1, 1+n)
	for j, spec := range specs {
		terms = append(terms, terms[0].extend(j, spec))
	}
	cand := make([]uint64, words)
	for lo, hi := 1, len(terms); lo < hi; lo, hi = hi, len(terms) {
		for i := lo; i < hi; i++ {
			t := terms[i]
			copy(cand, later[t.stats[0]*words:])
			for _, s := range t.stats[1:] {
				for w, x := range later[s*words : (s+1)*words] {
					cand[w] &= x
				}
			}
			for w, x := range cand {
				for ; x != 0; x &= x - 1 {
					j := w*64 + bits.TrailingZeros64(x)
					terms = append(terms, t.extend(j, specs[j]))
				}
			}
		}
	}
	return terms
}

// compatible reports whether two statistics' ranges intersect on every
// attribute they share, by a merge walk over their sorted attribute lists.
func compatible(x, y *MultiStatSpec) bool {
	k := 0
	for i, a := range y.Attrs {
		for k < len(x.Attrs) && x.Attrs[k] < a {
			k++
		}
		if k < len(x.Attrs) && x.Attrs[k] == a && !x.Ranges[k].Overlaps(y.Ranges[i]) {
			return false
		}
	}
	return true
}

// extend returns the term for S ∪ {j}, j > max(S): the merged attribute
// list with the ranges intersected on shared attributes. The statistic must
// be compatible with the term.
func (t term) extend(j int, spec MultiStatSpec) term {
	n := len(t.attrs) + len(spec.Attrs)
	nt := term{
		attrs:  make([]int, 0, n),
		ranges: make([]query.Range, 0, n),
		stats:  append(append(make([]int, 0, len(t.stats)+1), t.stats...), j),
	}
	k := 0
	for i, a := range spec.Attrs {
		for ; k < len(t.attrs) && t.attrs[k] < a; k++ {
			nt.attrs = append(nt.attrs, t.attrs[k])
			nt.ranges = append(nt.ranges, t.ranges[k])
		}
		r := spec.Ranges[i]
		if k < len(t.attrs) && t.attrs[k] == a {
			r = r.Intersect(t.ranges[k])
			k++
		}
		nt.attrs = append(nt.attrs, a)
		nt.ranges = append(nt.ranges, r)
	}
	nt.attrs = append(nt.attrs, t.attrs[k:]...)
	nt.ranges = append(nt.ranges, t.ranges[k:]...)
	return nt
}

// oracleCompressed is the structure NewCompressed built before it wrote its
// tables directly, kept as their oracle: it derives the flat range table and
// the term indexes from enumerated terms, and keeps of the terms themselves
// only their statistic sets. The range groups and their runs come from their
// definition: on each attribute, the terms of one (attribute set, range)
// pair, the pairs of the sets that do not constrain the attribute first, then
// by the value the range begins at, then by first member.
func oracleCompressed(sizes []int, specs []MultiStatSpec, terms []term) *Compressed {
	c := &Compressed{sizes: sizes, specs: specs}
	m := len(c.sizes)
	c.stats = make([][]int, len(terms))
	c.ranges = make([]span, len(terms)*m)
	c.termSet = make([]int32, len(terms))
	c.statTerms = make([][]int32, len(c.specs))
	setIndex := map[uint64]int32{}
	for i, t := range terms {
		c.stats[i] = t.stats
		row := i * m
		for a, n := range c.sizes {
			c.ranges[row+a].hi = int32(n - 1)
		}
		var bits uint64
		for k, a := range t.attrs {
			r := t.ranges[k]
			c.ranges[row+a] = span{int32(r.Lo), int32(r.Hi)}
			bits |= 1 << uint(a)
		}
		for _, j := range t.stats {
			c.statTerms[j] = append(c.statTerms[j], int32(i))
		}
		k, ok := setIndex[bits]
		if !ok {
			k = int32(len(c.attrSets))
			setIndex[bits] = k
			c.attrSets = append(c.attrSets, bits)
		}
		c.termSet[i] = k
	}
	for j := range c.statTerms {
		if c.statTerms[j] == nil {
			c.statTerms[j] = []int32{}
		}
	}

	c.termGroup = make([][]int32, m)
	c.groups = make([][]rangeGroup, m)
	c.members = make([][]int32, m)
	for a := range c.sizes {
		type key struct {
			set int32
			r   span
		}
		var keys []key // in order of first member
		byKey := map[key][]int32{}
		for i := range terms {
			k := key{c.termSet[i], c.ranges[i*m+a]}
			if byKey[k] == nil {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], int32(i))
		}
		order := func(k key) int {
			if c.attrSets[k.set]&(1<<uint(a)) == 0 {
				return -1
			}
			return int(k.r.lo)
		}
		slices.SortStableFunc(keys, func(x, y key) int { return order(x) - order(y) })
		c.termGroup[a] = make([]int32, len(terms))
		c.members[a] = []int32{}
		for g, k := range keys {
			c.groups[a] = append(c.groups[a], rangeGroup{span: k.r, set: k.set, first: int32(len(c.members[a]))})
			for _, i := range byKey[k] {
				c.termGroup[a][i] = int32(g)
			}
			c.members[a] = append(c.members[a], byKey[k]...)
		}
	}
	return c
}

// checkMatchesOracle holds a built Compressed to the oracle's structure for
// the same specs, field by field: statistic sets, range table, attribute
// sets, the statistics' terms, and the range groups with their runs.
func checkMatchesOracle(t *testing.T, what string, got, want *Compressed) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"sizes", got.sizes, want.sizes},
		{"stats", got.stats, want.stats},
		{"ranges", got.ranges, want.ranges},
		{"attrSets", got.attrSets, want.attrSets},
		{"termSet", got.termSet, want.termSet},
		{"statTerms", got.statTerms, want.statTerms},
		{"groups", got.groups, want.groups},
		{"termGroup", got.termGroup, want.termGroup},
		{"members", got.members, want.members},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs from the oracle's", what, f.name)
		}
	}
	checkRangeGroups(t, what, got)
}

// checkRangeGroups holds the range groups to their definition: on every
// attribute, each term's group has the term's attribute set and range, and
// every group has a member; the groups ascend by the value
// their range begins at; two groups never share both;
// and a set that does not constrain the attribute is one group over the
// whole domain. Each group's run lists exactly its members, ascending; the
// runs tile the attribute's members list in group order; and the attributes
// no term constrains share one list.
func checkRangeGroups(t *testing.T, what string, c *Compressed) {
	t.Helper()
	m := len(c.sizes)
	var shared []int32
	for a, n := range c.sizes {
		type key struct {
			set int32
			r   span
		}
		seen := map[key]int32{}
		members := make([][]int32, len(c.groups[a]))
		constrained := false
		for i, g := range c.termGroup[a] {
			gr := c.groups[a][g]
			if gr.set != c.termSet[i] || gr.span != c.ranges[i*m+a] {
				t.Fatalf("%s: attribute %d term %d (set %d, range %v) is in group %d (set %d, range %v)", what, a, i, c.termSet[i], c.ranges[i*m+a], g, gr.set, gr.span)
			}
			members[g] = append(members[g], int32(i))
			seen[key{gr.set, gr.span}] = g
			constrained = constrained || c.attrSets[c.termSet[i]]&(1<<uint(a)) != 0
		}
		tiled := 0
		for g, gr := range c.groups[a] {
			if g > 0 && gr.lo < c.groups[a][g-1].lo {
				t.Fatalf("%s: attribute %d group %d begins at %d, before group %d at %d", what, a, g, gr.lo, g-1, c.groups[a][g-1].lo)
			}
			if len(members[g]) == 0 {
				t.Fatalf("%s: attribute %d group %d has no member", what, a, g)
			}
			if seen[key{gr.set, gr.span}] != int32(g) {
				t.Fatalf("%s: attribute %d groups %d and %d share set %d and range %v", what, a, g, seen[key{gr.set, gr.span}], gr.set, gr.span)
			}
			if c.attrSets[gr.set]&(1<<uint(a)) == 0 && gr.span != (span{0, int32(n - 1)}) {
				t.Fatalf("%s: attribute %d group %d of a set not constraining it has range %v", what, a, g, gr.span)
			}
			if run := c.run(a, g); !slices.Equal(run, members[g]) {
				t.Fatalf("%s: attribute %d group %d runs %v, its members are %v", what, a, g, run, members[g])
			}
			if int(gr.first) != tiled {
				t.Fatalf("%s: attribute %d group %d's run begins at %d, the runs before it end at %d", what, a, g, gr.first, tiled)
			}
			tiled += len(members[g])
		}
		if tiled != len(c.members[a]) {
			t.Fatalf("%s: attribute %d's runs end at %d of %d members", what, a, tiled, len(c.members[a]))
		}
		if constrained != c.constrains(a) {
			t.Fatalf("%s: attribute %d reports constrained %t, its terms say %t", what, a, c.constrains(a), constrained)
		}
		if !constrained {
			if shared == nil {
				shared = c.members[a]
			}
			if unsafe.SliceData(c.members[a]) != unsafe.SliceData(shared) {
				t.Fatalf("%s: attribute %d constrains no term but has a members list of its own", what, a)
			}
		}
	}
}
