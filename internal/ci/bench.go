// Package ci implements the repository's CI quality gates: a
// benchstat-style benchmark regression comparator (fail on geomean
// slowdown beyond a tolerance) and a golden accuracy comparator that
// diffs experiment reports on their deterministic fields only. Both are
// exercised by cmd/cigates in the gates CI job; their tests prove the
// gates actually fail on injected regressions. It also summarizes
// interleaved A/B benchmark runs of two revisions for `cigates ab`.
package ci

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// ParseBench extracts name → ns/op from `go test -bench` output. When a
// benchmark appears several times (e.g. -count > 1), the runs are averaged.
func ParseBench(r io.Reader) (map[string]float64, error) {
	runs, err := ParseBenchRuns(r)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, run := range runs {
		sums[run.Name] += run.NsOp
		counts[run.Name]++
	}
	out := make(map[string]float64, len(sums))
	for name, sum := range sums {
		out[name] = sum / float64(counts[name])
	}
	return out, nil
}

// BenchRow is the per-benchmark outcome of a comparison.
type BenchRow struct {
	Name   string
	BaseNS float64
	CurNS  float64
	// Ratio is CurNS/BaseNS: 1.0 unchanged, 2.0 twice as slow.
	Ratio float64
}

// BenchComparison is the outcome of CompareBench.
type BenchComparison struct {
	Rows []BenchRow
	// Geomean is the geometric mean of the ratios — the benchstat-style
	// aggregate the gate thresholds on.
	Geomean float64
	// MissingFromCurrent lists baseline benchmarks absent from the current
	// run (renamed or deleted hot paths fail the gate loudly rather than
	// silently shrinking coverage).
	MissingFromCurrent []string
}

// CompareBench compares a current benchmark run against the committed
// baseline on the benchmarks they share.
func CompareBench(base, cur map[string]float64) (*BenchComparison, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("ci: the baseline contains no benchmarks")
	}
	cmp := &BenchComparison{}
	logSum := 0.0
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			cmp.MissingFromCurrent = append(cmp.MissingFromCurrent, name)
			continue
		}
		if b <= 0 || c <= 0 {
			return nil, fmt.Errorf("ci: benchmark %s has non-positive ns/op (base %g, current %g)", name, b, c)
		}
		ratio := c / b
		cmp.Rows = append(cmp.Rows, BenchRow{Name: name, BaseNS: b, CurNS: c, Ratio: ratio})
		logSum += math.Log(ratio)
	}
	if len(cmp.Rows) == 0 {
		return nil, fmt.Errorf("ci: no benchmarks in common between baseline and current run")
	}
	cmp.Geomean = math.Exp(logSum / float64(len(cmp.Rows)))
	return cmp, nil
}

// Gate returns an error when the comparison violates the tolerance: a
// geomean slowdown beyond 1+tolerance, or baseline benchmarks missing
// from the current run.
func (c *BenchComparison) Gate(tolerance float64) error {
	var problems []string
	if len(c.MissingFromCurrent) > 0 {
		problems = append(problems, fmt.Sprintf("baseline benchmarks missing from current run: %s (refresh the baseline if they were intentionally renamed)",
			strings.Join(c.MissingFromCurrent, ", ")))
	}
	if limit := 1 + tolerance; c.Geomean > limit {
		problems = append(problems, fmt.Sprintf("geomean slowdown %.2fx exceeds the %.2fx budget", c.Geomean, limit))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("bench gate failed: %s", strings.Join(problems, "; "))
}

// String renders the comparison as an aligned table.
func (c *BenchComparison) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %14s %14s %8s\n", "benchmark", "base ns/op", "current ns/op", "ratio")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-40s %14.1f %14.1f %7.2fx\n", r.Name, r.BaseNS, r.CurNS, r.Ratio)
	}
	fmt.Fprintf(&b, "%-40s %14s %14s %7.2fx\n", "geomean", "", "", c.Geomean)
	return b.String()
}
