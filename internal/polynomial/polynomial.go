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
//     multi-dimensional statistic specifications. It is immutable, and
//     Shared hands the live one of a structure to every model that needs it.
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
	// the candidate lists O(1).
	attrBits []uint64
	// attrSets are the distinct values of attrBits in order of first
	// appearance and termSet[i] is the position of term i's set in it. The
	// terms of one set react to a mask the same way — all of them rescale or
	// all of them are candidates — which is what lets a solved System answer
	// the rescaled part from one partial sum per set.
	attrSets []uint64
	termSet  []int32
	// termGroup[a][i] is term i's range group on attribute a, and
	// groups[a][g] describes group g: the terms of one attribute set whose
	// effective range on a is the same. The groups ascend by the value their
	// range begins at. The terms of a group share their a-factor, so a
	// System caches it once per group (System.gf), a column read of a sums
	// the group's all-but-a products once and spreads that sum over the
	// group's range once, and a column write computes the group's new factor
	// once. A set that does not constrain a is one group with the full
	// domain.
	termGroup [][]int32
	groups    [][]rangeGroup
}

// rangeGroup is one range group of an attribute: its attribute set (an
// index into attrSets) and its effective range on the attribute.
type rangeGroup struct {
	span
	set int32
}

// maxAttrs is the widest schema a polynomial covers: a term's attribute set
// is one uint64 mask (Compressed.attrBits). schema.New refuses wider
// schemas up front.
const maxAttrs = 64

// NewCompressed builds the compressed polynomial for the given active-domain
// sizes and multi-dimensional statistics, closing the statistic sets under
// compatible combination exactly as described after Theorem 4.1. It always
// builds, and records what it builds in the structure table (Shared).
func NewCompressed(domainSizes []int, specs []MultiStatSpec) (*Compressed, error) {
	sizes := append([]int(nil), domainSizes...)
	if len(sizes) > maxAttrs {
		return nil, fmt.Errorf("polynomial: %d attributes, more than the %d a polynomial may cover", len(sizes), maxAttrs)
	}
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
	c.enumerate(c.compatibility())
	c.index()
	record(digest(c.sizes, c.specs), c)
	return c, nil
}

// compatibility returns one bitset row per statistic, words = ⌈n/64⌉ words
// each: row i holds the statistics j > i whose ranges meet i's on every
// attribute both constrain. The rows are computed word by word, one
// attribute at a time. On attribute a the statistics overlapping i are
// those that start at or before i's end and end at or after i's start — a
// prefix of the statistics on a ordered by start, ANDed with a suffix of
// them ordered by end. ORing in the statistics that do not constrain a
// gives those compatible with i on a, and i's row is the AND of that over
// i's attributes. The cost is O(n·m·n/64) word operations.
func (c *Compressed) compatibility() []uint64 {
	n := len(c.specs)
	words := (n + 63) / 64
	later := make([]uint64, n*words)
	for i := range n {
		row := later[i*words : (i+1)*words]
		for w := i / 64; w < words; w++ {
			row[w] = ^uint64(0)
		}
		row[i/64] &^= 1<<uint(i%64+1) - 1
		if n%64 != 0 {
			row[words-1] &= 1<<uint(n%64) - 1
		}
	}
	type on struct{ j, lo, hi int }
	var (
		byStart, byEnd []on
		pre, suf       = make([]uint64, (n+1)*words), make([]uint64, (n+1)*words)
		free, ok       = make([]uint64, words), make([]uint64, words)
	)
	for a := range c.sizes {
		byStart = byStart[:0]
		for j := range c.specs {
			if r, hit := c.specs[j].rangeOn(a); hit {
				byStart = append(byStart, on{j, r.Lo, r.Hi})
			}
		}
		if len(byStart) == 0 {
			continue
		}
		byEnd = append(byEnd[:0], byStart...)
		slices.SortFunc(byStart, func(x, y on) int { return x.lo - y.lo })
		slices.SortFunc(byEnd, func(x, y on) int { return x.hi - y.hi })
		// pre[k] is the set of the k earliest-starting statistics on a,
		// suf[k] the set of all but the k earliest-ending ones, and free
		// the statistics that do not constrain a.
		k := len(byStart)
		clear(pre[:words])
		clear(suf[k*words : (k+1)*words])
		for q := range k {
			row := pre[(q+1)*words : (q+2)*words]
			copy(row, pre[q*words:])
			row[byStart[q].j/64] |= 1 << uint(byStart[q].j%64)
			e := k - 1 - q
			row = suf[e*words : (e+1)*words]
			copy(row, suf[(e+1)*words:])
			row[byEnd[e].j/64] |= 1 << uint(byEnd[e].j%64)
		}
		for w := range free {
			free[w] = ^uint64(0)
		}
		for _, x := range byStart {
			free[x.j/64] &^= 1 << uint(x.j%64)
		}
		for _, x := range byStart {
			starting := sort.Search(k, func(q int) bool { return byStart[q].lo > x.hi })
			ending := sort.Search(k, func(q int) bool { return byEnd[q].hi >= x.lo })
			for w := range ok {
				ok[w] = pre[starting*words+w]&suf[ending*words+w] | free[w]
			}
			row := later[x.j*words : (x.j+1)*words]
			for w, y := range ok {
				row[w] &= y
			}
		}
	}
	return later
}

// enumerate writes the terms straight into the flat tables: the statistic
// sets, the range table, the attribute masks and the attribute sets. It
// goes level by level (|S| = 0, 1, 2, ...), extending each term of a level
// only with statistics j > max(S). Compatibility is hereditary — every
// subset of a compatible set is compatible — so each set S is produced
// exactly once, from S \ {max(S)}, and the terms come out already ordered
// by (|S|, lexicographic S): no deduplication and no sort.
//
// Compatibility is also pairwise. On one attribute, ranges that pairwise
// overlap share a point (Helly's theorem for intervals), so a compatible S
// extends to a compatible S ∪ {j} iff j is compatible with every member of
// S: a term is extended by exactly the set bits of ⋀_{s∈S} later[s], in
// ascending j (every statistic for the base term).
//
// The new term's range-table row is its parent's row intersected with
// statistic j's ranges, its attribute mask is its parent's OR j's, and its
// statistic set is its parent's followed by j, written to one slab in which
// every set of a level has the same length. The next level's size is
// counted as its terms are written — the candidates of S ∪ {j} are those
// of S that are compatible with j — so every table grows once per level.
func (c *Compressed) enumerate(later []uint64) {
	m, n := len(c.sizes), len(c.specs)
	words := (n + 63) / 64
	specBits := make([]uint64, n)
	for j, s := range c.specs {
		for _, a := range s.Attrs {
			specBits[j] |= 1 << uint(a)
		}
	}
	c.ranges = make([]span, m)
	for a, size := range c.sizes {
		c.ranges[a] = span{0, int32(size - 1)}
	}
	c.attrBits = []uint64{0}
	c.termSet = []int32{0}
	c.attrSets = []uint64{0}
	setIndex := map[uint64]int32{0: 0}
	var slab []int
	cand := make([]uint64, words)
	// Level k is the terms [lo, hi) = [levels[k], levels[k+1]); their sets
	// are slab[first:] in order.
	levels := []int{0, 1}
	for lo, hi, k, first, next := 0, 1, 0, 0, n; lo < hi; lo, hi, k = hi, len(c.attrBits), k+1 {
		c.ranges = slices.Grow(c.ranges, next*m)
		c.attrBits = slices.Grow(c.attrBits, next)
		c.termSet = slices.Grow(c.termSet, next)
		slab = slices.Grow(slab, next*(k+1))
		next = 0
		for i := lo; i < hi; i++ {
			set := slab[first : first+k]
			first += k
			if k == 0 {
				for w := range cand {
					cand[w] = ^uint64(0)
				}
				if n%64 != 0 {
					cand[words-1] = 1<<uint(n%64) - 1
				}
			} else {
				copy(cand, later[set[0]*words:])
				for _, s := range set[1:] {
					for w, x := range later[s*words : (s+1)*words] {
						cand[w] &= x
					}
				}
			}
			parent := c.ranges[i*m : (i+1)*m]
			for w, x := range cand {
				for ; x != 0; x &= x - 1 {
					j := w*64 + bits.TrailingZeros64(x)
					row := len(c.ranges)
					c.ranges = append(c.ranges, parent...)
					spec := &c.specs[j]
					for q, a := range spec.Attrs {
						r, s := spec.Ranges[q], &c.ranges[row+a]
						s.lo, s.hi = max(s.lo, int32(r.Lo)), min(s.hi, int32(r.Hi))
					}
					b := c.attrBits[i] | specBits[j]
					t, seen := setIndex[b]
					if !seen {
						t = int32(len(c.attrSets))
						setIndex[b] = t
						c.attrSets = append(c.attrSets, b)
					}
					c.attrBits = append(c.attrBits, b)
					c.termSet = append(c.termSet, t)
					slab = append(append(slab, set...), j)
					for v, y := range later[j*words+w : (j+1)*words] {
						next += bits.OnesCount64(cand[w+v] & y)
					}
				}
			}
		}
		levels = append(levels, len(c.attrBits))
	}
	// The base term's set stays nil; level k's sets are k long.
	c.stats = make([][]int, len(c.attrBits))
	for k := 1; k+1 < len(levels); k++ {
		for i := levels[k]; i < levels[k+1]; i++ {
			c.stats[i], slab = slab[:k:k], slab[k:]
		}
	}
}

// index derives the inverted variable→term indexes from the range table,
// the attribute masks and the statistic sets. Every list is sized by a
// counting pass and carved out of one slab per index, in term order.
func (c *Compressed) index() {
	m, terms := len(c.sizes), len(c.stats)

	// Pass 1: the list lengths. covers[a][v] first holds the difference of
	// the number of ranges on a covering v and v−1, so a term costs O(|I|)
	// here instead of O(Σ|ρ|).
	covers := make([][]int32, m)
	begins := make([][]int32, m)
	for a, n := range c.sizes {
		covers[a] = make([]int32, n+1)
		begins[a] = make([]int32, n+1)
	}
	constraining := make([]int, m)
	perStat := make([]int, len(c.specs))
	for i, b := range c.attrBits {
		row := c.ranges[i*m : (i+1)*m]
		for x := b; x != 0; x &= x - 1 {
			a := bits.TrailingZeros64(x)
			r := row[a]
			covers[a][r.lo]++
			covers[a][r.hi+1]--
			begins[a][r.lo]++
			constraining[a]++
		}
		for _, j := range c.stats[i] {
			perStat[j]++
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
	looseSlab := make([]int32, terms*m-nCon)
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
		k := constraining[a]
		c.starts[a], startSlab = startSlab[:k:k], startSlab[k:]
		k = terms - constraining[a]
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
	for i, b := range c.attrBits {
		for a, r := range c.ranges[i*m : (i+1)*m] {
			if b&(1<<uint(a)) == 0 {
				c.loose[a] = append(c.loose[a], int32(i))
				continue
			}
			for v := r.lo; v <= r.hi; v++ {
				c.touch[a][v] = append(c.touch[a][v], int32(i))
			}
			c.starts[a][cursor[a][r.lo]] = int32(i)
			cursor[a][r.lo]++
		}
		for _, j := range c.stats[i] {
			c.statTerms[j] = append(c.statTerms[j], int32(i))
		}
	}
	c.rangeGroups()
}

// rangeGroups numbers the range groups of every attribute
// (Compressed.groups): first one group per attribute set that does not
// constrain the attribute, in order of first appearance, then the
// constrained (set, range) pairs in the order of starts — by the value the
// range begins at, then by first term. Within one begin value, a group is
// found by the end of its range and then its set, from a chain of the
// groups ending there, so no term costs more than the sets that share its
// range. An attribute no term constrains has one group per set, numbered
// like the sets, so its term→group table is termSet itself; the others'
// are carved from one slab.
func (c *Compressed) rangeGroups() {
	m, terms := len(c.sizes), len(c.stats)
	constrained := 0
	for a := range c.sizes {
		if len(c.starts[a]) > 0 {
			constrained++
		}
	}
	slab := make([]int32, terms*constrained)
	c.termGroup = make([][]int32, m)
	c.groups = make([][]rangeGroup, m)
	loose := make([]int32, len(c.attrSets))
	// For an end value hi: seenAt[hi] is 1 + the begin value whose terms last
	// ended there, and head[hi] the last group so found; chain[g] is the
	// group found there before g.
	seenAt := make([]int32, slices.Max(c.sizes))
	head := make([]int32, len(seenAt))
	var all []rangeGroup
	var chain []int32
	ends := make([]int, m)
	for a, n := range c.sizes {
		first, tg, own := len(all), c.termSet, len(c.starts[a]) > 0
		if own {
			tg, slab = slab[:terms:terms], slab[terms:]
		}
		c.termGroup[a] = tg
		for k := range loose {
			loose[k] = -1
		}
		chain = chain[:0]
		for _, t := range c.loose[a] {
			set := c.termSet[t]
			if loose[set] < 0 {
				loose[set] = int32(len(all) - first)
				all = append(all, rangeGroup{span{0, int32(n - 1)}, set})
				chain = append(chain, -1)
			}
			if own {
				tg[t] = loose[set]
			}
		}
		clear(seenAt)
		for lo := range n {
			for _, t := range c.starts[a][c.startOff[a][lo]:c.startOff[a][lo+1]] {
				set, r := c.termSet[t], c.ranges[int(t)*m+a]
				g := int32(-1)
				if seenAt[r.hi] == int32(lo+1) {
					for h := head[r.hi]; h >= 0 && g < 0; h = chain[h] {
						if all[first+int(h)].set == set {
							g = h
						}
					}
				} else {
					seenAt[r.hi], head[r.hi] = int32(lo+1), -1
				}
				if g < 0 {
					g = int32(len(all) - first)
					all = append(all, rangeGroup{r, set})
					chain = append(chain, head[r.hi])
					head[r.hi] = g
				}
				tg[t] = g
			}
		}
		ends[a] = len(all)
	}
	start := 0
	for a, end := range ends {
		c.groups[a], start = all[start:end:end], end
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
