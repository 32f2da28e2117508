package stats

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// chiSquared is the chi-squared statistic of independence of a joint count
// table: the quantity the paper ranks attribute pairs by (Sec. 4.3).
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

// cramersV normalizes a chi-squared statistic already computed for the pair.
func cramersV(rel *relation.Relation, a1, a2 int, chi float64) float64 {
	n := float64(rel.NumRows())
	if n == 0 {
		return 0
	}
	minDim := float64(min(rel.Schema().Attr(a1).Size(), rel.Schema().Attr(a2).Size()) - 1)
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

// rankPairs scores each pair of pairs by the chi-squared statistic and
// Cramér's V of its joint table, tables[i] for pairs[i], the tables split
// across workers, and sorts the scores from most to least correlated: by V,
// with χ² as a tie-breaker.
func rankPairs(rel *relation.Relation, pairs [][2]int, tables [][][]int) []PairCorrelation {
	out := make([]PairCorrelation, len(pairs))
	each(len(pairs), func(i int) {
		p, chi := pairs[i], chiSquared(tables[i])
		out[i] = PairCorrelation{A1: p[0], A2: p[1], Chi2: chi, V: cramersV(rel, p[0], p[1], chi)}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].V != out[j].V {
			return out[i].V > out[j].V
		}
		return out[i].Chi2 > out[j].Chi2
	})
	return out
}

// PairPolicy names a pair-selection policy. ByCorrelation is the only one;
// the type, and the policy parameter of SelectMulti that takes it, stay only
// because the frozen bench/ module passes summary.Options.Policy.
type PairPolicy int

// ByCorrelation is the pair-selection policy SelectPairs applies.
const ByCorrelation PairPolicy = 0

// SelectPairs returns at most budget pairs of the ranked list, most
// correlated first, each holding at least one attribute that no more
// correlated chosen pair holds (Sec. 4.3).
func SelectPairs(ranked []PairCorrelation, budget int) []PairCorrelation {
	if budget <= 0 {
		return nil
	}
	var chosen []PairCorrelation
	covered := make(map[int]bool)
	for _, pc := range ranked {
		if len(chosen) >= budget {
			break
		}
		if covered[pc.A1] && covered[pc.A2] {
			continue
		}
		chosen = append(chosen, pc)
		covered[pc.A1] = true
		covered[pc.A2] = true
	}
	return chosen
}

// each calls f(i) once for every i in [0, n) on min(GOMAXPROCS, n) workers,
// each claiming the next item none has claimed, and returns when every call
// has. f(i) must write only what item i owns, so what the calls leave does
// not depend on the number of workers.
func each(n int, f func(i int)) {
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(claimed.Add(1)) - 1; i < n; i = int(claimed.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}
