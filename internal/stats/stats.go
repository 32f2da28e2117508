// Package stats implements the statistics subsystem of EntropyDB (Sec. 3.1
// and Sec. 4.3 of the paper): the complete families of 1-dimensional
// per-value statistics, the selected 2-dimensional range statistics, the
// chi-squared correlation used to rank attribute pairs, the one pair
// selection policy (most correlated first, each pair adding an attribute),
// and the three bucket-selection heuristics LARGE single cell, ZERO single
// cell, and COMPOSITE (KD-tree). Collect computes all of a build's
// statistics from one scan of the rows.
package stats

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/relation"
)

// Statistic is one entry (c_j, s_j) of Φ: a conjunction of per-attribute
// ranges together with the observed count s_j = |σ_π(I)|.
type Statistic struct {
	// Attrs are the sorted attribute indexes the statistic constrains.
	Attrs []int
	// Ranges are the inclusive value ranges, aligned with Attrs.
	Ranges []query.Range
	// Count is the observed value s_j.
	Count float64
}

// Spec converts a multi-dimensional statistic to its polynomial
// specification.
func (s Statistic) Spec() polynomial.MultiStatSpec {
	return polynomial.MultiStatSpec{Attrs: slices.Clone(s.Attrs), Ranges: slices.Clone(s.Ranges)}
}

// String renders the statistic.
func (s Statistic) String() string {
	return fmt.Sprintf("%v%v = %g", s.Attrs, s.Ranges, s.Count)
}

// Set is the full collection Φ of statistics over one relation: the complete
// 1-dimensional families for every attribute plus the selected
// multi-dimensional statistics.
type Set struct {
	// N is the relation cardinality the statistics were computed from.
	N int
	// DomainSizes are the active-domain sizes [N_1 .. N_m].
	DomainSizes []int
	// OneD holds, for every attribute i and value v, the count
	// |σ_{A_i = v}(I)|. The family is complete and overcomplete: the counts
	// of one attribute sum to N.
	OneD [][]float64
	// Multi holds the selected multi-dimensional statistics.
	Multi []Statistic
}

// NewSet computes the complete 1-dimensional statistics of the relation,
// one Histogram1D scan per attribute, and returns a Set with no
// multi-dimensional statistics yet. A build calls it only when it has no
// pair to count (see Collect).
func NewSet(rel *relation.Relation) *Set {
	sch := rel.Schema()
	s := &Set{
		N:           rel.NumRows(),
		DomainSizes: sch.DomainSizes(),
		OneD:        make([][]float64, sch.NumAttrs()),
	}
	for a := 0; a < sch.NumAttrs(); a++ {
		hist := rel.Histogram1D(a)
		col := make([]float64, len(hist))
		for v, c := range hist {
			col[v] = float64(c)
		}
		s.OneD[a] = col
	}
	return s
}

// Clone returns a deep copy of the statistic set. Refresh paths clone
// before applying deltas so the set a served summary answers from stays
// immutable.
func (s *Set) Clone() *Set {
	c := &Set{
		N:           s.N,
		DomainSizes: append([]int(nil), s.DomainSizes...),
		OneD:        make([][]float64, len(s.OneD)),
		Multi:       make([]Statistic, len(s.Multi)),
	}
	for a, col := range s.OneD {
		c.OneD[a] = append([]float64(nil), col...)
	}
	for j, st := range s.Multi {
		c.Multi[j] = Statistic{Attrs: slices.Clone(st.Attrs), Ranges: slices.Clone(st.Ranges), Count: st.Count}
	}
	return c
}

// ApplyDelta folds a batch of appended tuples into the counts: N, every
// 1-dimensional family, and the counts of the existing multi-dimensional
// statistics. The structural part of the set (which statistics exist, and
// over which ranges) is unchanged — that is what makes the incremental
// update sound: the statistics stay the complete families of Sec. 3.1 over
// the grown relation, just with refreshed observations. The
// multi-dimensional statistics are counted in one scan of the delta per
// attribute set, so the cost is
// O(delta rows · (attrs + attribute sets · ⌈statistics per set/64⌉)) — no
// rescan of the base data, and no scan per statistic.
func (s *Set) ApplyDelta(delta *relation.Relation) error {
	if err := s.checkDomains(delta); err != nil {
		return err
	}
	for a := range s.OneD {
		for v, c := range delta.Histogram1D(a) {
			s.OneD[a][v] += float64(c)
		}
	}
	for j, c := range s.multiCounts(delta) {
		s.Multi[j].Count += float64(c)
	}
	s.N += delta.NumRows()
	return nil
}

// checkDomains refuses a relation whose domain sizes differ from the
// set's.
func (s *Set) checkDomains(rel *relation.Relation) error {
	sizes := rel.Schema().DomainSizes()
	if len(sizes) != len(s.DomainSizes) {
		return fmt.Errorf("stats: relation has %d attributes, set has %d", len(sizes), len(s.DomainSizes))
	}
	for a, n := range sizes {
		if n != s.DomainSizes[a] {
			return fmt.Errorf("stats: relation domain size %d for attribute %d, set has %d", n, a, s.DomainSizes[a])
		}
	}
	return nil
}

// multiCounts returns the number of rows of rel inside each
// multi-dimensional statistic, index-aligned with Multi. The statistics
// are grouped by attribute set, and each group is counted by one
// relation.CountBoxes scan: AddMulti keeps a group pairwise disjoint, so a
// row lands in at most one of its statistics.
func (s *Set) multiCounts(rel *relation.Relation) []int {
	counts := make([]int, len(s.Multi))
	for _, members := range attrGroups(s.Multi) {
		boxes := make([][]query.Range, len(members))
		for b, j := range members {
			boxes[b] = s.Multi[j].Ranges
		}
		for b, c := range rel.CountBoxes(s.Multi[members[0]].Attrs, boxes) {
			counts[members[b]] = c
		}
	}
	return counts
}

// AddMulti appends multi-dimensional statistics, verifying that statistics
// over the same attribute set are pairwise disjoint (an assumption of the
// compression in Sec. 4.1). It appends all of them or, refusing one, none.
// The refusal is the one a check of each statistic in turn, against every
// statistic before it, would make first.
func (s *Set) AddMulti(stats ...Statistic) error {
	bad, badErr := len(stats), error(nil)
	for k, st := range stats {
		if err := s.checkMulti(st); err != nil {
			bad, badErr = k, err
			break
		}
	}
	all := append(s.Multi[:len(s.Multi):len(s.Multi)], stats[:bad]...)
	if i, j, ok := firstOverlap(all, len(s.Multi)); ok {
		return fmt.Errorf("stats: statistics %v and %v over the same attributes overlap", all[i], all[j])
	}
	if badErr != nil {
		return badErr
	}
	s.Multi = all
	return nil
}

// checkMulti refuses a malformed multi-dimensional statistic.
func (s *Set) checkMulti(st Statistic) error {
	if len(st.Attrs) < 2 {
		return fmt.Errorf("stats: multi-dimensional statistic needs at least two attributes, got %v", st.Attrs)
	}
	if len(st.Attrs) != len(st.Ranges) {
		return fmt.Errorf("stats: statistic has %d attributes but %d ranges", len(st.Attrs), len(st.Ranges))
	}
	if !sort.IntsAreSorted(st.Attrs) {
		return fmt.Errorf("stats: statistic attributes must be sorted, got %v", st.Attrs)
	}
	for k, a := range st.Attrs {
		if a < 0 || a >= len(s.DomainSizes) {
			return fmt.Errorf("stats: attribute %d out of range", a)
		}
		r := st.Ranges[k]
		if r.Empty() || r.Lo < 0 || r.Hi >= s.DomainSizes[a] {
			return fmt.Errorf("stats: range %v out of domain for attribute %d", r, a)
		}
	}
	return nil
}

// firstOverlap finds, among the statistics of all from index old on, the
// first one that overlaps an earlier statistic over the same attributes,
// and the first such earlier one: it returns their indexes i < j. The
// statistics before old are known to be disjoint. Each attribute set is
// checked alone, in order of its statistics' first range, comparing each
// statistic only with those whose first range is still open — so disjoint
// statistics cost O(n log n) plus the pairs whose first ranges meet, not
// O(n²).
func firstOverlap(all []Statistic, old int) (i, j int, found bool) {
	var open []int
	for _, members := range attrGroups(all) {
		if members[len(members)-1] < old {
			continue
		}
		slices.SortStableFunc(members, func(a, b int) int { return all[a].Ranges[0].Lo - all[b].Ranges[0].Lo })
		open = open[:0]
		for _, k := range members {
			lo := all[k].Ranges[0].Lo
			open = slices.DeleteFunc(open, func(o int) bool { return all[o].Ranges[0].Hi < lo })
			for _, o := range open {
				a, b := min(o, k), max(o, k)
				if b >= old && overlaps(all[a], all[b]) && (!found || b < j || b == j && a < i) {
					i, j, found = a, b, true
				}
			}
			open = append(open, k)
		}
	}
	return i, j, found
}

// attrGroups groups the statistics by attribute set: one slice of indexes
// into multi per set, ascending, in order of the sets' first statistics.
func attrGroups(multi []Statistic) [][]int {
	var groups [][]int
next:
	for j, st := range multi {
		for g, members := range groups {
			if slices.Equal(multi[members[0]].Attrs, st.Attrs) {
				groups[g] = append(members, j)
				continue next
			}
		}
		groups = append(groups, []int{j})
	}
	return groups
}

func overlaps(a, b Statistic) bool {
	for k := range a.Attrs {
		if !a.Ranges[k].Overlaps(b.Ranges[k]) {
			return false
		}
	}
	return true
}

// NumStatistics returns the total number of statistics (1D + multi).
func (s *Set) NumStatistics() int {
	total := len(s.Multi)
	for _, col := range s.OneD {
		total += len(col)
	}
	return total
}

// MultiSpecs returns the polynomial specifications of the multi-dimensional
// statistics, index-aligned with Multi.
func (s *Set) MultiSpecs() []polynomial.MultiStatSpec {
	specs := make([]polynomial.MultiStatSpec, len(s.Multi))
	for j, st := range s.Multi {
		specs[j] = st.Spec()
	}
	return specs
}
