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

// term is one summand of the compressed polynomial: the set I of attributes
// covered by the statistics in S, the intersected per-attribute ranges ρ_iS,
// and the statistic indexes S themselves. The base term has empty attrs and
// stats.
type term struct {
	attrs  []int         // sorted attribute indexes in I
	ranges []query.Range // aligned with attrs: the intersection ρ_iS
	stats  []int         // sorted multi-statistic indexes in S
}

// Compressed is the factorized polynomial structure. It depends only on the
// domain sizes and the multi-dimensional statistic specifications, not on
// the variable values. Alongside the terms it keeps two inverted indexes
// that the incremental System maintenance is built on: for every α variable
// the terms whose effective range covers it, and for every δ variable the
// terms whose statistic set contains it.
type Compressed struct {
	sizes []int
	specs []MultiStatSpec
	terms []term
	// touch[a][v] lists the indexes of the terms whose effective range
	// ρ_iS on attribute a contains value v, and loose[a] the terms that do
	// not constrain attribute a at all (their factor is the full-domain
	// sum, touched by every value). Together they are exactly the terms
	// whose value changes when α_{a,v} changes, and the terms ∂P/∂α_{a,v}
	// sums over; sharing one loose list per attribute keeps the index
	// O(Σ_terms Σ_a |ρ_iS|) instead of O(terms · Σ_a N_a).
	touch [][][]int32
	loose [][]int32
	// statTerms[j] lists the indexes of the terms whose statistic set S
	// contains j — the terms carrying a (δ_j − 1) factor.
	statTerms [][]int32
	// constrained[a] lists (in term order) the indexes of the terms whose
	// attribute set I contains a — the complement of loose[a], and the
	// per-attribute half of the attribute→term index behind the pruned
	// masked evaluation: a predicate constraining attribute set S can only
	// change the *range-restricted* factors of terms in ∪_{a∈S}
	// constrained[a]; every other term keeps its cached unmasked range
	// factors and is answered by the mask-delta identity without being
	// visited. conRanges[a] is aligned with constrained[a] and carries the
	// term's effective range ρ_iS on a, so InRange masks can reject terms
	// whose buckets provably miss the mask with one interval test and no
	// term-struct dereference.
	constrained [][]int32
	conRanges   [][]query.Range
	// conBits[a] is constrained[a] as a bitset over term indexes (bit i set
	// iff a ∈ terms[i].attrs) — the posting lists in popcountable form, so
	// the exact touched-set cardinality |∪_{a∈S} constrained[a]| behind the
	// route-to-full-walk cutoff costs O(|S|·terms/64) instead of a term walk.
	conBits [][]uint64
	// attrBits[i] is the bitmask of term i's attribute set I (bit a set
	// iff a ∈ terms[i].attrs). It makes the touched(S) membership test and
	// the first-constrained-attribute dedup of the union iterator O(1).
	// nil when the schema has more than 64 attributes, which disables the
	// pruned masked paths (they fall back to the full walk).
	attrBits []uint64
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
	c.buildTerms()
	c.buildIndexes()
	return c, nil
}

// buildTerms enumerates the compatible statistic sets level by level
// (|S| = 0, 1, 2, ...), extending each term of the previous level only with
// statistics j > max(S). Compatibility is hereditary — every subset of a
// compatible set is compatible — so each set S is produced exactly once,
// from S \ {max(S)}, and the terms come out already ordered by
// (|S|, lexicographic S): no deduplication and no sort. The cost is one
// allocation-free compatibility walk per (term, later statistic) pair plus
// the surviving terms themselves.
func (c *Compressed) buildTerms() {
	c.terms = []term{{}}
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, len(c.terms) {
		for i := lo; i < hi; i++ {
			t := c.terms[i]
			first := 0
			if n := len(t.stats); n > 0 {
				first = t.stats[n-1] + 1
			}
			for j := first; j < len(c.specs); j++ {
				if t.compatible(c.specs[j]) {
					c.terms = append(c.terms, t.extend(j, c.specs[j]))
				}
			}
		}
	}
}

// compatible reports whether the statistic's range intersects the term's
// effective range ρ_iS on every attribute they share, by a merge walk over
// the two sorted attribute lists.
func (t term) compatible(spec MultiStatSpec) bool {
	k := 0
	for i, a := range spec.Attrs {
		for k < len(t.attrs) && t.attrs[k] < a {
			k++
		}
		if k < len(t.attrs) && t.attrs[k] == a && !t.ranges[k].Overlaps(spec.Ranges[i]) {
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

// buildIndexes derives the inverted variable→term indexes from the final
// term list. Must run after buildTerms: the indexes store term positions.
func (c *Compressed) buildIndexes() {
	c.touch = make([][][]int32, len(c.sizes))
	c.loose = make([][]int32, len(c.sizes))
	for a, n := range c.sizes {
		c.touch[a] = make([][]int32, n)
	}
	c.statTerms = make([][]int32, len(c.specs))
	c.constrained = make([][]int32, len(c.sizes))
	c.conRanges = make([][]query.Range, len(c.sizes))
	words := (len(c.terms) + 63) / 64
	c.conBits = make([][]uint64, len(c.sizes))
	slab := make([]uint64, words*len(c.sizes))
	for a := range c.conBits {
		c.conBits[a], slab = slab[:words], slab[words:]
	}
	if len(c.sizes) <= 64 {
		c.attrBits = make([]uint64, len(c.terms))
	}
	for i, t := range c.terms {
		k := 0
		for a := range c.sizes {
			if k < len(t.attrs) && t.attrs[k] == a {
				r := t.ranges[k]
				k++
				for v := r.Lo; v <= r.Hi; v++ {
					c.touch[a][v] = append(c.touch[a][v], int32(i))
				}
				c.constrained[a] = append(c.constrained[a], int32(i))
				c.conRanges[a] = append(c.conRanges[a], r)
				c.conBits[a][i>>6] |= 1 << uint(i&63)
				if c.attrBits != nil {
					c.attrBits[i] |= 1 << uint(a)
				}
				continue
			}
			c.loose[a] = append(c.loose[a], int32(i))
		}
		for _, j := range t.stats {
			c.statTerms[j] = append(c.statTerms[j], int32(i))
		}
	}
}

// touchedCount returns the exact touched-set cardinality
// |touched(S)| = |∪_{a∈attrs} constrained[a]| by OR-ing the per-attribute
// term bitsets into buf (len ≥ ⌈terms/64⌉) and popcounting —
// O(|S|·terms/64), never a per-term walk. A single constrained attribute
// reads its posting-list length directly.
func (c *Compressed) touchedCount(attrs []int, buf []uint64) int {
	if len(attrs) == 1 {
		return len(c.constrained[attrs[0]])
	}
	for i := range buf {
		buf[i] = 0
	}
	for _, a := range attrs {
		for i, w := range c.conBits[a] {
			buf[i] |= w
		}
	}
	n := 0
	for _, w := range buf {
		n += bits.OnesCount64(w)
	}
	return n
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
func (c *Compressed) NumTerms() int { return len(c.terms) }

// PrunedIndexed reports whether the attribute→term pruning index is
// available, i.e. whether masked evaluation can take the term-pruned
// delta path (polynomials over more than 64 attributes fall back to the
// full walk). Every construction path — including codec restore, which
// rebuilds the polynomial via NewCompressed — populates the index.
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
	rep.Terms = len(c.terms)
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
	for _, t := range c.terms {
		k := 0
		for a, n := range c.sizes {
			if k < len(t.attrs) && t.attrs[k] == a {
				n = t.ranges[k].Len()
				k++
			}
			rep.CompressedFactors += int64(n)
		}
		rep.CompressedFactors += int64(len(t.stats))
	}
	return rep
}

// String renders a compact structural description of the polynomial.
func (c *Compressed) String() string {
	return fmt.Sprintf("P{m=%d, multiStats=%d, terms=%d}", len(c.sizes), len(c.specs), len(c.terms))
}
