// Package polynomial implements the factorized MaxEnt polynomial P of the
// EntropyDB summary (Lemma 3.1 and Theorem 4.1 of the paper).
//
// The uncompressed polynomial has one monomial per possible tuple, which is
// far too large to materialize. The compressed representation built here has
// one term per compatible set S of multi-dimensional statistics (plus the
// base term S = ∅), where each term is a product of per-attribute sums of
// 1-dimensional variables and of (δ_j − 1) factors — exactly the
// inclusion/exclusion form of Theorem 4.1.
//
// The package provides:
//
//   - Compressed: the structural representation (terms), built from the
//     multi-dimensional statistic specifications.
//   - System: a Compressed polynomial together with concrete variable values
//     (α for 1D statistics, δ for multi-dimensional statistics), supporting
//     masked evaluation (Sec. 4.2: "set the non-qualifying 1D variables to
//     0") and analytic partial derivatives.
//   - Naive: a brute-force reference that enumerates the tuple space, used
//     by tests to validate the compression and the query-answering formulas.
package polynomial

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/query"
)

// VarKind distinguishes the two families of polynomial variables.
type VarKind int

const (
	// OneD is an α variable attached to a complete 1-dimensional statistic
	// (A_i = v).
	OneD VarKind = iota
	// Multi is a δ variable attached to a multi-dimensional range statistic.
	Multi
)

// VarRef identifies a single polynomial variable.
type VarRef struct {
	Kind  VarKind
	Attr  int // OneD: attribute index
	Value int // OneD: encoded domain value
	Stat  int // Multi: index of the multi-dimensional statistic
}

// String renders the variable reference.
func (v VarRef) String() string {
	if v.Kind == OneD {
		return fmt.Sprintf("α[%d,%d]", v.Attr, v.Value)
	}
	return fmt.Sprintf("δ[%d]", v.Stat)
}

// MultiStatSpec is the structural part of a multi-dimensional statistic: a
// conjunction of per-attribute inclusive ranges over a subset of attributes.
type MultiStatSpec struct {
	Attrs  []int         // sorted attribute indexes
	Ranges []query.Range // aligned with Attrs
}

// Validate checks structural invariants of the specification.
func (s MultiStatSpec) Validate(domainSizes []int) error {
	if len(s.Attrs) == 0 {
		return fmt.Errorf("polynomial: multi-dimensional statistic needs at least one attribute")
	}
	if len(s.Attrs) != len(s.Ranges) {
		return fmt.Errorf("polynomial: %d attributes but %d ranges", len(s.Attrs), len(s.Ranges))
	}
	if !sort.IntsAreSorted(s.Attrs) {
		return fmt.Errorf("polynomial: statistic attributes must be sorted, got %v", s.Attrs)
	}
	for i := 1; i < len(s.Attrs); i++ {
		if s.Attrs[i] == s.Attrs[i-1] {
			return fmt.Errorf("polynomial: duplicate attribute %d in statistic", s.Attrs[i])
		}
	}
	for k, a := range s.Attrs {
		if a < 0 || a >= len(domainSizes) {
			return fmt.Errorf("polynomial: attribute index %d out of range [0,%d)", a, len(domainSizes))
		}
		r := s.Ranges[k]
		if r.Empty() || r.Lo < 0 || r.Hi >= domainSizes[a] {
			return fmt.Errorf("polynomial: range %v out of domain [0,%d) for attribute %d", r, domainSizes[a], a)
		}
	}
	return nil
}

// rangeOn returns the statistic's range on attribute a and whether the
// statistic constrains a.
func (s MultiStatSpec) rangeOn(a int) (query.Range, bool) {
	i := sort.SearchInts(s.Attrs, a)
	if i < len(s.Attrs) && s.Attrs[i] == a {
		return s.Ranges[i], true
	}
	return query.Range{}, false
}

// term is one summand of the compressed polynomial while it is being
// enumerated: the set I of attributes covered by the statistics in S, the
// intersected per-attribute ranges ρ_iS, and the statistic indexes S
// themselves. The base term has empty attrs and stats. Once the indexes are
// built only stats is kept (Compressed.stats); the attribute set and the
// ranges live on in attrBits and the flat range table.
type term struct {
	attrs  []int         // sorted attribute indexes in I
	ranges []query.Range // aligned with attrs: the intersection ρ_iS
	stats  []int         // sorted multi-statistic indexes in S
}

// span is one entry of the flat range table: an inclusive, non-empty,
// in-domain value range.
type span struct{ lo, hi int32 }

// Compressed is the factorized polynomial structure. It depends only on the
// domain sizes and the multi-dimensional statistic specifications, not on
// the variable values. Alongside the terms it keeps the inverted indexes
// the incremental System maintenance and the masked reads are built on: for
// every α variable the terms whose effective range covers it or begins at
// it, and for every δ variable the terms whose statistic set contains it.
type Compressed struct {
	sizes []int
	specs []MultiStatSpec
	// stats[i] is the sorted statistic set S of term i, in (|S|,
	// lexicographic S) order; stats[0] is the base term S = ∅.
	stats [][]int
	// ranges is the flat range table: entry i·m+a holds term i's effective
	// range ρ_iS on attribute a, and the full domain [0, N_a−1] where the
	// term does not constrain a — so every per-attribute factor of every term
	// is one indexed read, in attribute order a = 0..m−1.
	ranges []span
	// touch[a][v] lists the indexes of the terms whose effective range
	// ρ_iS on attribute a contains value v, and loose[a] the terms that do
	// not constrain attribute a at all (their factor is the full-domain
	// sum, touched by every value). Together they are exactly the terms
	// whose value changes when α_{a,v} changes, and the terms ∂P/∂α_{a,v}
	// sums over; sharing one loose list per attribute keeps the index
	// O(Σ_terms Σ_a |ρ_iS|) instead of O(terms · Σ_a N_a).
	touch [][][]int32
	loose [][]int32
	// starts[a] lists the terms that constrain attribute a ordered by the
	// value their range on a begins at (then by term index), and
	// startOff[a][v] is the position of the first one beginning at or after
	// v (len N_a+1). The terms constraining a whose range overlaps [lo, hi]
	// are exactly touch[a][lo] ∪ starts[a][startOff[a][lo+1]:startOff[a][hi+1]],
	// a disjoint union never longer than starts[a]: the candidate list of a
	// mask on a with hull [lo, hi].
	starts   [][]int32
	startOff [][]int32
	// statTerms[j] lists the indexes of the terms whose statistic set S
	// contains j — the terms carrying a (δ_j − 1) factor.
	statTerms [][]int32
	// attrBits[i] is the bitmask of term i's attribute set I (bit a set
	// iff the term constrains a). It makes the membership test against a
	// constrained attribute set and the lowest-constrained-attribute dedup of
	// the candidate lists O(1). nil when the schema has more than 64
	// attributes, which disables the pruned masked paths (they fall back to
	// the full walk).
	attrBits []uint64
	// attrSets are the distinct values of attrBits in order of first
	// appearance and termSet[i] is the position of term i's set in it. The
	// terms of one set react to a mask the same way — all of them rescale or
	// all of them are candidates — which is what lets a solved System answer
	// the rescaled part from one partial sum per set. nil with attrBits.
	attrSets []uint64
	termSet  []int32
}

// NewCompressed builds the compressed polynomial for the given active-domain
// sizes and multi-dimensional statistics, closing the statistic sets under
// compatible combination exactly as described after Theorem 4.1.
func NewCompressed(domainSizes []int, specs []MultiStatSpec) (*Compressed, error) {
	sizes := append([]int(nil), domainSizes...)
	for i, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("polynomial: attribute %d has non-positive domain size %d", i, n)
		}
	}
	for i, s := range specs {
		if err := s.Validate(sizes); err != nil {
			return nil, fmt.Errorf("statistic %d: %w", i, err)
		}
	}
	c := &Compressed{sizes: sizes, specs: append([]MultiStatSpec(nil), specs...)}
	c.buildIndexes(c.buildTerms())
	return c, nil
}

// buildTerms enumerates the compatible statistic sets level by level
// (|S| = 0, 1, 2, ...), extending each term of the previous level only with
// statistics j > max(S). Compatibility is hereditary — every subset of a
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
func (c *Compressed) buildTerms() []term {
	n := len(c.specs)
	words := (n + 63) / 64
	later := make([]uint64, n*words)
	for i := range c.specs {
		row := later[i*words : (i+1)*words]
		x := &c.specs[i]
		for j := i + 1; j < n; j++ {
			if compatible(x, &c.specs[j]) {
				row[j/64] |= 1 << uint(j%64)
			}
		}
	}

	terms := make([]term, 1, 1+n)
	for j, spec := range c.specs {
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
					terms = append(terms, t.extend(j, c.specs[j]))
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

// buildIndexes derives the flat range table and the inverted variable→term
// indexes from the enumerated terms, and keeps of the terms themselves only
// their statistic sets. Every list is sized by a counting pass and carved
// out of one slab per index, in term order.
func (c *Compressed) buildIndexes(terms []term) {
	m := len(c.sizes)
	c.stats = make([][]int, len(terms))
	c.ranges = make([]span, len(terms)*m)
	if m <= 64 {
		c.attrBits = make([]uint64, len(terms))
		c.termSet = make([]int32, len(terms))
	}

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
		if c.attrBits != nil {
			k, ok := setIndex[bits]
			if !ok {
				k = int32(len(c.attrSets))
				setIndex[bits] = k
				c.attrSets = append(c.attrSets, bits)
			}
			c.attrBits[i], c.termSet[i] = bits, k
		}
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
}

// rangeAt returns entry k = i·m+a of the range table: term i's effective
// range on attribute a, the full domain where it does not constrain a.
func (c *Compressed) rangeAt(k int) query.Range {
	return query.Range{Lo: int(c.ranges[k].lo), Hi: int(c.ranges[k].hi)}
}

// NumAttrs returns the number of attributes m.
func (c *Compressed) NumAttrs() int { return len(c.sizes) }

// DomainSizes returns a copy of [N_1, ..., N_m].
func (c *Compressed) DomainSizes() []int { return append([]int(nil), c.sizes...) }

// NumMultiStats returns the number of multi-dimensional statistics.
func (c *Compressed) NumMultiStats() int { return len(c.specs) }

// MultiStat returns the j-th multi-dimensional statistic specification.
func (c *Compressed) MultiStat(j int) MultiStatSpec { return c.specs[j] }

// NumTerms returns the number of terms of the compressed representation
// (including the base term).
func (c *Compressed) NumTerms() int { return len(c.stats) }

// PrunedIndexed reports whether the attribute-set index is available, i.e.
// whether masked reads can cost their candidate terms (polynomials over
// more than 64 attributes fall back to the full walk). Every construction
// path — including codec restore, which rebuilds the polynomial via
// NewCompressed — populates the index.
func (c *Compressed) PrunedIndexed() bool { return c.attrBits != nil }

// SizeReport summarizes the memory shape of the representation, mirroring
// the size analysis of Sec. 4.1.
type SizeReport struct {
	// Terms is the number of summands of the compressed polynomial
	// (including the base term for S = ∅).
	Terms int
	// CompressedFactors counts the 1D-variable slots referenced by the
	// compressed form: for every term, the sizes of the per-attribute sums
	// it touches plus one slot per (δ_j − 1) factor. This is the quantity
	// the paper compares against the uncompressed monomial count.
	CompressedFactors int64
	// OneDVariables is Σ_i N_i, the number of α variables.
	OneDVariables int
	// MultiVariables is the number of δ variables.
	MultiVariables int
	// UncompressedMonomials is Π_i N_i, the number of monomials of the
	// sum-of-products form (saturating at 2^62).
	UncompressedMonomials int64
}

// Size computes the SizeReport for the polynomial.
func (c *Compressed) Size() SizeReport {
	var rep SizeReport
	rep.Terms = len(c.stats)
	for _, n := range c.sizes {
		rep.OneDVariables += n
	}
	rep.MultiVariables = len(c.specs)
	d := int64(1)
	for _, n := range c.sizes {
		nn := int64(n)
		if d > (1<<62)/nn {
			d = 1 << 62
			break
		}
		d *= nn
	}
	rep.UncompressedMonomials = d
	for _, r := range c.ranges {
		rep.CompressedFactors += int64(r.hi-r.lo) + 1
	}
	for _, st := range c.stats {
		rep.CompressedFactors += int64(len(st))
	}
	return rep
}

// String renders a compact structural description of the polynomial.
func (c *Compressed) String() string {
	return fmt.Sprintf("P{m=%d, multiStats=%d, terms=%d}", len(c.sizes), len(c.specs), len(c.stats))
}
