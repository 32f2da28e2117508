package polynomial

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

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
// the inverted variable→term indexes from enumerated terms, and keeps of the
// terms themselves only their statistic sets. Every list is sized by a
// counting pass and carved out of one slab per index, in term order.
func oracleCompressed(sizes []int, specs []MultiStatSpec, terms []term) *Compressed {
	c := &Compressed{sizes: sizes, specs: specs}
	m := len(c.sizes)
	c.stats = make([][]int, len(terms))
	c.ranges = make([]span, len(terms)*m)
	c.attrBits = make([]uint64, len(terms))
	c.termSet = make([]int32, len(terms))

	// Pass 1: the range table, the attribute sets, and the list lengths.
	// covers[a][v] first holds the difference of the number of ranges on a
	// covering v and v−1, so a term costs O(|I|) here instead of O(Σ|ρ|).
	covers := make([][]int32, m)
	begins := make([][]int32, m)
	for a, n := range c.sizes {
		covers[a] = make([]int32, n+1)
		begins[a] = make([]int32, n+1)
	}
	constraining := make([]int, m)
	perStat := make([]int, len(c.specs))
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
			covers[a][r.Lo]++
			covers[a][r.Hi+1]--
			begins[a][r.Lo]++
			constraining[a]++
			bits |= 1 << uint(a)
		}
		for _, j := range t.stats {
			perStat[j]++
		}
		k, ok := setIndex[bits]
		if !ok {
			k = int32(len(c.attrSets))
			setIndex[bits] = k
			c.attrSets = append(c.attrSets, bits)
		}
		c.attrBits[i], c.termSet[i] = bits, k
	}

	// Carve the lists. touch[a][v], loose[a] and statTerms[j] start empty
	// with exactly the counted capacity; starts[a] is filled through one
	// cursor per begin value, which starts at startOff.
	nTouch, nCon := 0, 0
	for a := range c.sizes {
		run := int32(0)
		for v := range covers[a] {
			run += covers[a][v]
			covers[a][v] = run
			nTouch += int(run)
		}
		nCon += constraining[a]
	}
	touchSlab := make([]int32, nTouch)
	startSlab := make([]int32, nCon)
	looseSlab := make([]int32, len(terms)*m-nCon)
	c.touch = make([][][]int32, m)
	c.loose = make([][]int32, m)
	c.starts = make([][]int32, m)
	c.startOff = begins
	cursor := make([][]int32, m)
	for a, n := range c.sizes {
		c.touch[a] = make([][]int32, n)
		for v := range c.touch[a] {
			k := int(covers[a][v])
			c.touch[a][v], touchSlab = touchSlab[:0:k], touchSlab[k:]
		}
		c.starts[a], startSlab = startSlab[:constraining[a]], startSlab[constraining[a]:]
		k := len(terms) - constraining[a]
		c.loose[a], looseSlab = looseSlab[:0:k], looseSlab[k:]
		off := int32(0)
		for v, k := range begins[a] {
			begins[a][v] = off
			off += k
		}
		cursor[a] = slices.Clone(begins[a])
	}
	nStat := 0
	for _, k := range perStat {
		nStat += k
	}
	statSlab := make([]int32, nStat)
	c.statTerms = make([][]int32, len(c.specs))
	for j, k := range perStat {
		c.statTerms[j], statSlab = statSlab[:0:k], statSlab[k:]
	}

	// Pass 2: fill, in term order.
	for i := range terms {
		row := i * m
		t := terms[i]
		k := 0
		for a := range c.sizes {
			if k == len(t.attrs) || t.attrs[k] != a {
				c.loose[a] = append(c.loose[a], int32(i))
				continue
			}
			k++
			r := c.ranges[row+a]
			for v := r.lo; v <= r.hi; v++ {
				c.touch[a][v] = append(c.touch[a][v], int32(i))
			}
			c.starts[a][cursor[a][r.lo]] = int32(i)
			cursor[a][r.lo]++
		}
		for _, j := range t.stats {
			c.statTerms[j] = append(c.statTerms[j], int32(i))
		}
	}
	return c
}

// checkMatchesOracle holds a built Compressed to the oracle's structure for
// the same specs, field by field: statistic sets, range table, attribute
// masks and sets, and every inverted index.
func checkMatchesOracle(t *testing.T, what string, got, want *Compressed) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"sizes", got.sizes, want.sizes},
		{"stats", got.stats, want.stats},
		{"ranges", got.ranges, want.ranges},
		{"attrBits", got.attrBits, want.attrBits},
		{"attrSets", got.attrSets, want.attrSets},
		{"termSet", got.termSet, want.termSet},
		{"touch", got.touch, want.touch},
		{"loose", got.loose, want.loose},
		{"starts", got.starts, want.starts},
		{"startOff", got.startOff, want.startOff},
		{"statTerms", got.statTerms, want.statTerms},
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
// whole domain.
func checkRangeGroups(t *testing.T, what string, c *Compressed) {
	t.Helper()
	m := len(c.sizes)
	for a, n := range c.sizes {
		type key struct {
			set int32
			r   span
		}
		seen := map[key]int32{}
		members := make([]int, len(c.groups[a]))
		for i, g := range c.termGroup[a] {
			gr := c.groups[a][g]
			if gr.set != c.termSet[i] || gr.span != c.ranges[i*m+a] {
				t.Fatalf("%s: attribute %d term %d (set %d, range %v) is in group %d (set %d, range %v)", what, a, i, c.termSet[i], c.ranges[i*m+a], g, gr.set, gr.span)
			}
			members[g]++
			seen[key{gr.set, gr.span}] = g
		}
		for g, gr := range c.groups[a] {
			if g > 0 && gr.lo < c.groups[a][g-1].lo {
				t.Fatalf("%s: attribute %d group %d begins at %d, before group %d at %d", what, a, g, gr.lo, g-1, c.groups[a][g-1].lo)
			}
			if members[g] == 0 {
				t.Fatalf("%s: attribute %d group %d has no member", what, a, g)
			}
			if seen[key{gr.set, gr.span}] != int32(g) {
				t.Fatalf("%s: attribute %d groups %d and %d share set %d and range %v", what, a, g, seen[key{gr.set, gr.span}], gr.set, gr.span)
			}
			if c.attrSets[gr.set]&(1<<uint(a)) == 0 && gr.span != (span{0, int32(n - 1)}) {
				t.Fatalf("%s: attribute %d group %d of a set not constraining it has range %v", what, a, g, gr.span)
			}
		}
	}
}
