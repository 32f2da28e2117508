package stats

import (
	"fmt"
	"sort"

	"repro/internal/query"
	"repro/internal/relation"
)

// Heuristic selects the Bs 2-dimensional range statistics for one attribute
// pair (Sec. 4.3).
type Heuristic int

const (
	// LargeSingleCell picks the Bs most populous (u1, u2) point cells.
	LargeSingleCell Heuristic = iota
	// ZeroSingleCell picks Bs empty cells first (so the MaxEnt model learns
	// where "phantom" tuples must not appear), falling back to the most
	// populous cells when fewer than Bs cells are empty.
	ZeroSingleCell
	// Composite partitions the 2D space into Bs disjoint rectangles with a
	// KD-tree whose splits minimize the within-partition sum of squared
	// deviation from the mean.
	Composite
)

// String returns the paper's name of the heuristic.
func (h Heuristic) String() string {
	switch h {
	case LargeSingleCell:
		return "LARGE"
	case ZeroSingleCell:
		return "ZERO"
	case Composite:
		return "COMPOSITE"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// ParseHeuristic converts the paper's heuristic name to the enum.
func ParseHeuristic(name string) (Heuristic, error) {
	switch name {
	case "LARGE", "large":
		return LargeSingleCell, nil
	case "ZERO", "zero":
		return ZeroSingleCell, nil
	case "COMPOSITE", "composite":
		return Composite, nil
	default:
		return 0, fmt.Errorf("stats: unknown heuristic %q", name)
	}
}

// SelectPairStatistics computes the 2D statistics for attribute pair
// (a1, a2) of the relation under the given heuristic and per-pair budget.
// Attribute indexes in the returned statistics are sorted.
func SelectPairStatistics(rel *relation.Relation, a1, a2 int, budget int, h Heuristic) ([]Statistic, error) {
	if a1 == a2 {
		return nil, fmt.Errorf("stats: 2D statistic needs two distinct attributes, got %d twice", a1)
	}
	if err := checkPerPairBudget(budget); err != nil {
		return nil, err
	}
	if a1 > a2 {
		a1, a2 = a2, a1
	}
	return pairStatistics(a1, a2, rel.Histogram2D(a1, a2), budget, h)
}

// checkPerPairBudget refuses a non-positive per-pair budget B_s, in the one
// message SelectPairStatistics and SelectMulti share.
func checkPerPairBudget(budget int) error {
	if budget <= 0 {
		return fmt.Errorf("stats: per-pair budget must be positive, got %d", budget)
	}
	return nil
}

// pairStatistics is SelectPairStatistics over the pair's joint table,
// already counted with a1 < a2 as the row attribute.
func pairStatistics(a1, a2 int, joint [][]int, budget int, h Heuristic) ([]Statistic, error) {
	switch h {
	case LargeSingleCell:
		return singleCells(a1, a2, joint, budget, false), nil
	case ZeroSingleCell:
		return singleCells(a1, a2, joint, budget, true), nil
	case Composite:
		return compositeRectangles(a1, a2, joint, budget), nil
	default:
		return nil, fmt.Errorf("stats: unknown heuristic %v", h)
	}
}

// SelectMulti runs the full multi-dimensional statistic selection pipeline
// of Sec. 4.3 against the relation: rank every attribute pair by
// correlation, choose at most pairBudget pairs under the policy, compute
// perPairBudget 2D statistics for each chosen pair with the heuristic, and
// add them to the set. It returns the chosen pairs for reporting. Every
// pair's joint table is counted once: the ranking reads χ² and Cramér's V
// off it and the heuristic reads the chosen pairs' buckets off it.
func SelectMulti(rel *relation.Relation, set *Set, pairBudget, perPairBudget int, policy PairPolicy, h Heuristic) ([]PairCorrelation, error) {
	if pairBudget <= 0 {
		return nil, nil
	}
	if err := checkPerPairBudget(perPairBudget); err != nil {
		return nil, err
	}
	ranked, tables := rankPairs(rel, nil)
	chosen := SelectPairs(ranked, pairBudget, policy)
	for _, pc := range chosen {
		sts, err := pairStatistics(pc.A1, pc.A2, tables[[2]int{pc.A1, pc.A2}], perPairBudget, h)
		if err != nil {
			return nil, err
		}
		if err := set.AddMulti(sts...); err != nil {
			return nil, err
		}
	}
	return chosen, nil
}

type cell struct {
	v1, v2 int
	count  int
}

// singleCells implements the LARGE and ZERO single-cell heuristics.
func singleCells(a1, a2 int, joint [][]int, budget int, zeroFirst bool) []Statistic {
	var cells []cell
	for v1 := range joint {
		for v2 := range joint[v1] {
			cells = append(cells, cell{v1: v1, v2: v2, count: joint[v1][v2]})
		}
	}
	var chosen []cell
	if zeroFirst {
		var zeros, nonZeros []cell
		for _, c := range cells {
			if c.count == 0 {
				zeros = append(zeros, c)
			} else {
				nonZeros = append(nonZeros, c)
			}
		}
		sortCellsDeterministic(zeros)
		sortCellsByCount(nonZeros)
		chosen = append(chosen, zeros...)
		if len(chosen) > budget {
			chosen = chosen[:budget]
		} else {
			remaining := budget - len(chosen)
			if remaining > len(nonZeros) {
				remaining = len(nonZeros)
			}
			chosen = append(chosen, nonZeros[:remaining]...)
		}
	} else {
		sortCellsByCount(cells)
		if budget > len(cells) {
			budget = len(cells)
		}
		chosen = cells[:budget]
	}
	out := make([]Statistic, 0, len(chosen))
	for _, c := range chosen {
		out = append(out, Statistic{
			Attrs:  []int{a1, a2},
			Ranges: []query.Range{query.Point(c.v1), query.Point(c.v2)},
			Count:  float64(c.count),
		})
	}
	return out
}

func sortCellsByCount(cells []cell) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].count != cells[j].count {
			return cells[i].count > cells[j].count
		}
		if cells[i].v1 != cells[j].v1 {
			return cells[i].v1 < cells[j].v1
		}
		return cells[i].v2 < cells[j].v2
	})
}

func sortCellsDeterministic(cells []cell) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].v1 != cells[j].v1 {
			return cells[i].v1 < cells[j].v1
		}
		return cells[i].v2 < cells[j].v2
	})
}

// rect is a node of the KD-tree over the 2D cell grid: an inclusive
// rectangle of cells together with aggregate statistics used to score
// splits.
type rect struct {
	r1, r2 query.Range
	count  int64
	sse    float64
}

// compositeRectangles implements the COMPOSITE heuristic: an adaptation of a
// KD-tree that repeatedly splits the rectangle with the largest
// sum-of-squared-error, alternating split dimensions, choosing the split
// value with the lowest post-split SSE (the paper's "lowest sum squared
// average value difference"), until the number of leaves reaches the budget.
func compositeRectangles(a1, a2 int, joint [][]int, budget int) []Statistic {
	n1 := len(joint)
	n2 := 0
	if n1 > 0 {
		n2 = len(joint[0])
	}
	if n1 == 0 || n2 == 0 {
		return nil
	}
	// Prefix sums over counts and squared counts for O(1) rectangle
	// aggregates.
	sum := newPrefix2D(joint, false)
	sumSq := newPrefix2D(joint, true)

	full := query.NewRange(0, n1-1)
	full2 := query.NewRange(0, n2-1)
	leaves := []rect{makeRect(full, full2, sum, sumSq)}

	for len(leaves) < budget {
		// Pick the leaf with the largest SSE that can still be split.
		best := -1
		for i, lf := range leaves {
			if lf.r1.Len() <= 1 && lf.r2.Len() <= 1 {
				continue
			}
			if best < 0 || lf.sse > leaves[best].sse ||
				(lf.sse == leaves[best].sse && lf.r1.Len()*lf.r2.Len() > leaves[best].r1.Len()*leaves[best].r2.Len()) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		left, right, ok := splitRect(leaves[best], sum, sumSq)
		if !ok {
			break
		}
		leaves[best] = left
		leaves = append(leaves, right)
	}

	out := make([]Statistic, 0, len(leaves))
	for _, lf := range leaves {
		out = append(out, Statistic{
			Attrs:  []int{a1, a2},
			Ranges: []query.Range{lf.r1, lf.r2},
			Count:  float64(lf.count),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ranges[0].Lo != out[j].Ranges[0].Lo {
			return out[i].Ranges[0].Lo < out[j].Ranges[0].Lo
		}
		return out[i].Ranges[1].Lo < out[j].Ranges[1].Lo
	})
	return out
}

// splitRect tries both dimensions and every split point, returning the two
// halves of the split minimizing the combined SSE.
func splitRect(lf rect, sum, sumSq *prefix2D) (rect, rect, bool) {
	bestSSE := -1.0
	var bestLeft, bestRight rect
	found := false

	try := func(left, right rect) {
		combined := left.sse + right.sse
		if !found || combined < bestSSE {
			found = true
			bestSSE = combined
			bestLeft, bestRight = left, right
		}
	}

	if lf.r1.Len() > 1 {
		for cut := lf.r1.Lo; cut < lf.r1.Hi; cut++ {
			left := makeRect(query.NewRange(lf.r1.Lo, cut), lf.r2, sum, sumSq)
			right := makeRect(query.NewRange(cut+1, lf.r1.Hi), lf.r2, sum, sumSq)
			try(left, right)
		}
	}
	if lf.r2.Len() > 1 {
		for cut := lf.r2.Lo; cut < lf.r2.Hi; cut++ {
			left := makeRect(lf.r1, query.NewRange(lf.r2.Lo, cut), sum, sumSq)
			right := makeRect(lf.r1, query.NewRange(cut+1, lf.r2.Hi), sum, sumSq)
			try(left, right)
		}
	}
	if !found {
		return rect{}, rect{}, false
	}
	return bestLeft, bestRight, true
}

func makeRect(r1, r2 query.Range, sum, sumSq *prefix2D) rect {
	total := sum.rectSum(r1, r2)
	totalSq := sumSq.rectSum(r1, r2)
	cells := float64(r1.Len() * r2.Len())
	mean := float64(total) / cells
	// SSE = Σ c² − cells · mean².
	sse := float64(totalSq) - cells*mean*mean
	if sse < 0 {
		sse = 0
	}
	return rect{r1: r1, r2: r2, count: total, sse: sse}
}

// prefix2D holds 2D prefix sums of the (optionally squared) joint counts.
type prefix2D struct {
	n1, n2 int
	data   []int64
}

func newPrefix2D(joint [][]int, squared bool) *prefix2D {
	n1 := len(joint)
	n2 := 0
	if n1 > 0 {
		n2 = len(joint[0])
	}
	p := &prefix2D{n1: n1, n2: n2, data: make([]int64, (n1+1)*(n2+1))}
	at := func(i, j int) *int64 { return &p.data[i*(n2+1)+j] }
	for i := 1; i <= n1; i++ {
		for j := 1; j <= n2; j++ {
			v := int64(joint[i-1][j-1])
			if squared {
				v *= int64(joint[i-1][j-1])
			}
			*at(i, j) = v + *at(i-1, j) + *at(i, j-1) - *at(i-1, j-1)
		}
	}
	return p
}

func (p *prefix2D) rectSum(r1, r2 query.Range) int64 {
	at := func(i, j int) int64 { return p.data[i*(p.n2+1)+j] }
	return at(r1.Hi+1, r2.Hi+1) - at(r1.Lo, r2.Hi+1) - at(r1.Hi+1, r2.Lo) + at(r1.Lo, r2.Lo)
}
