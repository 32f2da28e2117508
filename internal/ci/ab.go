package ci

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchRun is one `go test -bench` result line: the benchmark's name
// without its -GOMAXPROCS suffix, and its ns/op, B/op and allocs/op (the
// last two zero unless the run reported them).
type BenchRun struct {
	Name   string
	NsOp   float64
	BOp    float64
	Allocs float64
}

// benchRunLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkSystemEvalFull-8   177859011   6.710 ns/op   0 B/op   0 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so baselines survive core-count
// changes.
var benchRunLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// ParseBenchRuns returns every result line of `go test -bench` output in
// order, repeats included.
func ParseBenchRuns(r io.Reader) ([]BenchRun, error) {
	var runs []BenchRun
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchRunLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		run := BenchRun{Name: m[1]}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("ci: benchmark %s: bad value %q: %w", run.Name, fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				run.NsOp = v
			case "B/op":
				run.BOp = v
			case "allocs/op":
				run.Allocs = v
			}
		}
		if run.NsOp == 0 {
			continue
		}
		runs = append(runs, run)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ci: reading benchmark output: %w", err)
	}
	return runs, nil
}

// Spread is the median and quartiles of a sample, interpolated linearly
// between order statistics.
type Spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// SpreadOf returns the spread of xs, which it does not modify; the zero
// Spread for an empty sample.
func SpreadOf(xs []float64) Spread {
	if len(xs) == 0 {
		return Spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return Spread{Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}
}

// SideStats is one side's spread of each metric of a benchmark over the
// pairs.
type SideStats struct {
	NsOp   Spread `json:"ns_per_op"`
	BOp    Spread `json:"bytes_per_op"`
	Allocs Spread `json:"allocs_per_op"`
}

// ABResult compares one benchmark across interleaved pairs of runs.
type ABResult struct {
	Name string    `json:"name"`
	Base SideStats `json:"base"`
	Head SideStats `json:"head"`
	// Pairs is the number of pairs in which both sides ran the benchmark,
	// and HeadWins how many of them head ran in fewer ns/op.
	Pairs    int `json:"pairs"`
	HeadWins int `json:"head_wins"`
	// Delta is head's median ns/op relative to base's: −0.10 is 10 %
	// faster.
	Delta float64 `json:"delta"`
	// Resolved reports whether the pairs tell the sides apart: head won, or
	// lost, at least nine tenths of them, ties counting for neither, and the
	// medians differ by more than base's own spread, the distance between
	// its quartiles. An unresolved Delta is not a measured change.
	Resolved bool `json:"resolved"`
}

// CompareAB pairs base[i] with head[i], the runs of pair i on each side,
// and summarizes every benchmark both sides ran, in name order. A
// benchmark run more than once within one pair counts with its last run.
func CompareAB(base, head [][]BenchRun) []ABResult {
	type sides struct {
		base, head   []BenchRun
		wins, losses int
	}
	all := make(map[string]*sides)
	for i := 0; i < len(base) && i < len(head); i++ {
		b, h := lastByName(base[i]), lastByName(head[i])
		for name, br := range b {
			hr, ok := h[name]
			if !ok {
				continue
			}
			s := all[name]
			if s == nil {
				s = &sides{}
				all[name] = s
			}
			s.base, s.head = append(s.base, br), append(s.head, hr)
			if hr.NsOp < br.NsOp {
				s.wins++
			} else if hr.NsOp > br.NsOp {
				s.losses++
			}
		}
	}
	out := make([]ABResult, 0, len(all))
	for name, s := range all {
		r := ABResult{Name: name, Base: sideStats(s.base), Head: sideStats(s.head), Pairs: len(s.base), HeadWins: s.wins}
		if m := r.Base.NsOp.Median; m > 0 {
			r.Delta = r.Head.NsOp.Median/m - 1
		}
		lopsided := 10*s.wins >= 9*r.Pairs || 10*s.losses >= 9*r.Pairs
		r.Resolved = lopsided && math.Abs(r.Head.NsOp.Median-r.Base.NsOp.Median) > r.Base.NsOp.Q3-r.Base.NsOp.Q1
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func lastByName(runs []BenchRun) map[string]BenchRun {
	m := make(map[string]BenchRun, len(runs))
	for _, r := range runs {
		m[r.Name] = r
	}
	return m
}

func sideStats(runs []BenchRun) SideStats {
	ns, b, allocs := make([]float64, len(runs)), make([]float64, len(runs)), make([]float64, len(runs))
	for i, r := range runs {
		ns[i], b[i], allocs[i] = r.NsOp, r.BOp, r.Allocs
	}
	return SideStats{NsOp: SpreadOf(ns), BOp: SpreadOf(b), Allocs: SpreadOf(allocs)}
}

// ABTable renders results as an aligned table of the median ns/op, B/op
// and allocs/op of each side, the pairs head won and whether the row is
// resolved.
func ABTable(results []ABResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %14s %14s %8s %12s %12s %10s %10s %6s %8s\n",
		"benchmark", "base ns/op", "head ns/op", "delta", "base B/op", "head B/op", "base allocs", "head allocs", "wins", "resolved")
	for _, r := range results {
		fmt.Fprintf(&b, "%-44s %14.1f %14.1f %+7.1f%% %12.0f %12.0f %10.0f %10.0f %3d/%d %8t\n",
			r.Name, r.Base.NsOp.Median, r.Head.NsOp.Median, 100*r.Delta,
			r.Base.BOp.Median, r.Head.BOp.Median, r.Base.Allocs.Median, r.Head.Allocs.Median, r.HeadWins, r.Pairs, r.Resolved)
	}
	return b.String()
}
