package stats

import (
	"math"
	"sort"

	"repro/internal/relation"
)

// ChiSquared computes the chi-squared statistic of independence between two
// attributes of the relation (the quantity the paper uses to rank
// attribute-pair correlation in Sec. 4.3; it also mentions using it to test
// whether a pair is close to uniform/independent). It is computed over the
// joint table in ascending attribute order, so the argument order does not
// change a bit of it.
func ChiSquared(rel *relation.Relation, a1, a2 int) float64 {
	return chiSquared(jointTable(rel, a1, a2))
}

// jointTable counts the joint histogram of an attribute pair with the
// smaller attribute as the row index — the one orientation both the
// correlation and the bucket heuristics read, so a table counted for one is
// reused by the other as it is.
func jointTable(rel *relation.Relation, a1, a2 int) [][]int {
	if a1 > a2 {
		a1, a2 = a2, a1
	}
	return rel.Histogram2D(a1, a2)
}

// chiSquared is the chi-squared statistic of a joint count table.
func chiSquared(joint [][]int) float64 {
	n1 := len(joint)
	if n1 == 0 {
		return 0
	}
	n2 := len(joint[0])
	rowSum := make([]float64, n1)
	colSum := make([]float64, n2)
	total := 0.0
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			c := float64(joint[i][j])
			rowSum[i] += c
			colSum[j] += c
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	chi := 0.0
	for i := 0; i < n1; i++ {
		if rowSum[i] == 0 {
			continue
		}
		for j := 0; j < n2; j++ {
			if colSum[j] == 0 {
				continue
			}
			expected := rowSum[i] * colSum[j] / total
			diff := float64(joint[i][j]) - expected
			chi += diff * diff / expected
		}
	}
	return chi
}

// CramersV normalizes the chi-squared statistic to [0, 1] so that pairs over
// domains of different sizes are comparable.
func CramersV(rel *relation.Relation, a1, a2 int) float64 {
	return cramersV(rel, a1, a2, ChiSquared(rel, a1, a2))
}

// cramersV normalizes a chi-squared statistic already computed for the pair.
func cramersV(rel *relation.Relation, a1, a2 int, chi float64) float64 {
	n := float64(rel.NumRows())
	if n == 0 {
		return 0
	}
	k1 := rel.Schema().Attr(a1).Size()
	k2 := rel.Schema().Attr(a2).Size()
	minDim := float64(k1 - 1)
	if k2-1 < k1-1 {
		minDim = float64(k2 - 1)
	}
	if minDim <= 0 {
		return 0
	}
	return math.Sqrt(chi / (n * minDim))
}

// PairCorrelation is the correlation score of one attribute pair.
type PairCorrelation struct {
	A1, A2 int
	// Chi2 is the raw chi-squared statistic.
	Chi2 float64
	// V is Cramér's V, the normalized correlation in [0,1].
	V float64
}

// RankPairs computes the correlation of every attribute pair drawn from the
// candidate attribute list (all attributes when candidates is nil) and
// returns them sorted from most to least correlated (by Cramér's V, with
// chi-squared as a tie-breaker).
func RankPairs(rel *relation.Relation, candidates []int) []PairCorrelation {
	ranked, _ := rankPairs(rel, candidates)
	return ranked
}

// rankPairs is RankPairs that also returns the joint table of every ranked
// pair, keyed by {A1, A2}. Each table is counted once, in ascending
// attribute order, and both χ² and Cramér's V are read off it.
func rankPairs(rel *relation.Relation, candidates []int) ([]PairCorrelation, map[[2]int][][]int) {
	if candidates == nil {
		candidates = make([]int, rel.NumAttrs())
		for i := range candidates {
			candidates[i] = i
		}
	}
	var out []PairCorrelation
	tables := make(map[[2]int][][]int)
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			a1, a2 := candidates[i], candidates[j]
			joint := jointTable(rel, a1, a2)
			chi := chiSquared(joint)
			out = append(out, PairCorrelation{
				A1:   a1,
				A2:   a2,
				Chi2: chi,
				V:    cramersV(rel, a1, a2, chi),
			})
			tables[[2]int{a1, a2}] = joint
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].V != out[j].V {
			return out[i].V > out[j].V
		}
		return out[i].Chi2 > out[j].Chi2
	})
	return out, tables
}

// PairPolicy selects which attribute pairs receive 2D statistics given a
// breadth budget B_a (Sec. 4.3).
type PairPolicy int

const (
	// ByCorrelation picks the B_a most correlated pairs subject to each new
	// pair containing at least one attribute not already covered by a more
	// correlated chosen pair.
	ByCorrelation PairPolicy = iota
	// ByCover picks pairs greedily by correlation but requires every new
	// pair to cover at least one attribute no chosen pair covers yet, which
	// maximizes attribute cover for the same budget.
	ByCover
)

// SelectPairs applies the policy to the ranked pair list and returns at most
// budget pairs.
func SelectPairs(ranked []PairCorrelation, budget int, policy PairPolicy) []PairCorrelation {
	if budget <= 0 {
		return nil
	}
	var chosen []PairCorrelation
	covered := make(map[int]bool)
	for _, pc := range ranked {
		if len(chosen) >= budget {
			break
		}
		switch policy {
		case ByCorrelation:
			// Require at least one attribute not included in any previously
			// chosen, more correlated pair.
			if covered[pc.A1] && covered[pc.A2] {
				continue
			}
		case ByCover:
			// Require at least one newly covered attribute; prefer pairs
			// covering two new attributes when possible by a two-pass scan.
			if covered[pc.A1] && covered[pc.A2] {
				continue
			}
		}
		chosen = append(chosen, pc)
		covered[pc.A1] = true
		covered[pc.A2] = true
	}
	if policy == ByCover {
		chosen = improveCover(ranked, chosen, budget)
	}
	return chosen
}

// improveCover post-processes a correlation-greedy choice to maximize the
// number of covered attributes: while an unchosen pair would cover two
// currently uncovered attributes, it replaces the least-correlated chosen
// pair that contributes no unique attribute.
func improveCover(ranked, chosen []PairCorrelation, budget int) []PairCorrelation {
	covered := make(map[int]int)
	for _, pc := range chosen {
		covered[pc.A1]++
		covered[pc.A2]++
	}
	for _, cand := range ranked {
		if len(chosen) >= budget && !hasRedundant(chosen, covered) {
			break
		}
		if covered[cand.A1] > 0 || covered[cand.A2] > 0 {
			continue
		}
		if alreadyChosen(chosen, cand) {
			continue
		}
		if len(chosen) < budget {
			chosen = append(chosen, cand)
			covered[cand.A1]++
			covered[cand.A2]++
			continue
		}
		// Replace the least correlated redundant pair.
		idx := -1
		for i := len(chosen) - 1; i >= 0; i-- {
			pc := chosen[i]
			if covered[pc.A1] > 1 && covered[pc.A2] > 1 {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		old := chosen[idx]
		covered[old.A1]--
		covered[old.A2]--
		chosen[idx] = cand
		covered[cand.A1]++
		covered[cand.A2]++
	}
	return chosen
}

func hasRedundant(chosen []PairCorrelation, covered map[int]int) bool {
	for _, pc := range chosen {
		if covered[pc.A1] > 1 && covered[pc.A2] > 1 {
			return true
		}
	}
	return false
}

func alreadyChosen(chosen []PairCorrelation, cand PairCorrelation) bool {
	for _, pc := range chosen {
		if pc.A1 == cand.A1 && pc.A2 == cand.A2 {
			return true
		}
	}
	return false
}
