package ci

import (
	"math"
	"strings"
	"testing"
)

func TestParseBenchRunsReadsEveryMetric(t *testing.T) {
	out := benchOutput + `BenchmarkBuild/flights-2   	      37	  31000000 ns/op	 5254792 B/op	    2772 allocs/op
BenchmarkDecodeEstimator/flights-2   	 254	   5171727 ns/op	     11561 terms	 3140684 B/op	    2543 allocs/op
BenchmarkNoMem-4 10 12.5 ns/op
`
	runs, err := ParseBenchRuns(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []BenchRun{
		{"BenchmarkSystemEvalFull", 6.710, 0, 0},
		{"BenchmarkSystemEvalMasked", 17600, 0, 0},
		{"BenchmarkSolverShapedSweep", 259.0, 0, 0},
		{"BenchmarkSolve", 4333199, 29936, 139},
		{"BenchmarkBuild/flights", 31000000, 5254792, 2772},
		{"BenchmarkDecodeEstimator/flights", 5171727, 3140684, 2543},
		{"BenchmarkNoMem", 12.5, 0, 0},
	}
	if len(runs) != len(want) {
		t.Fatalf("parsed %d runs, want %d: %+v", len(runs), len(want), runs)
	}
	for i, w := range want {
		if runs[i] != w {
			t.Errorf("run %d = %+v, want %+v", i, runs[i], w)
		}
	}
}

func TestSpreadOfInterpolatesQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want Spread
	}{
		{nil, Spread{}},
		{[]float64{7}, Spread{7, 7, 7}},
		{[]float64{4, 1, 3, 2}, Spread{Median: 2.5, Q1: 1.75, Q3: 3.25}},
		{[]float64{5, 1, 4, 2, 3}, Spread{Median: 3, Q1: 2, Q3: 4}},
	} {
		if got := SpreadOf(c.xs); got != c.want {
			t.Errorf("SpreadOf(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// TestCompareABCountsPairsWon pairs each side's runs by index: a
// benchmark only one side ran is left out, a repeat within a pair counts
// with its last run, and head wins a pair with fewer ns/op.
func TestCompareABCountsPairsWon(t *testing.T) {
	base := [][]BenchRun{
		{{"BenchmarkA", 100, 10, 2}, {"BenchmarkOld", 1, 0, 0}},
		{{"BenchmarkA", 90, 10, 2}},
		{{"BenchmarkA", 110, 10, 2}},
	}
	head := [][]BenchRun{
		{{"BenchmarkA", 80, 8, 1}, {"BenchmarkA", 100, 8, 1}},
		{{"BenchmarkA", 85, 8, 1}, {"BenchmarkNew", 1, 0, 0}},
		{{"BenchmarkA", 70, 8, 1}},
	}
	got := CompareAB(base, head)
	if len(got) != 1 || got[0].Name != "BenchmarkA" {
		t.Fatalf("CompareAB = %+v, want BenchmarkA alone", got)
	}
	r := got[0]
	if r.Pairs != 3 || r.HeadWins != 2 {
		t.Fatalf("pairs %d, head wins %d; want 3 and 2 (100 vs 100 is no win)", r.Pairs, r.HeadWins)
	}
	if r.Base.NsOp.Median != 100 || r.Head.NsOp.Median != 85 || r.Head.Allocs.Median != 1 || r.Base.BOp.Median != 10 {
		t.Fatalf("spreads %+v / %+v", r.Base, r.Head)
	}
	if math.Abs(r.Delta+0.15) > 1e-12 {
		t.Fatalf("delta %v, want -0.15", r.Delta)
	}
}

// TestCompareABResolves marks a row resolved only when head wins, or loses,
// at least nine tenths of the pairs and the medians differ by more than
// base's interquartile spread.
func TestCompareABResolves(t *testing.T) {
	pairs := func(base, head []float64) ([][]BenchRun, [][]BenchRun) {
		var b, h [][]BenchRun
		for i := range base {
			b = append(b, []BenchRun{{Name: "BenchmarkA", NsOp: base[i]}})
			h = append(h, []BenchRun{{Name: "BenchmarkA", NsOp: head[i]}})
		}
		return b, h
	}
	base := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109} // quartiles 102.25 and 106.75
	for _, c := range []struct {
		name string
		head []float64
		want bool
	}{
		{"ten wins far below", []float64{90, 91, 92, 93, 94, 95, 96, 97, 98, 99}, true},
		{"ten losses far above", []float64{120, 121, 122, 123, 124, 125, 126, 127, 128, 129}, true},
		{"nine wins", []float64{90, 91, 92, 93, 94, 95, 96, 97, 98, 200}, true},
		{"eight wins", []float64{90, 91, 92, 93, 94, 95, 96, 97, 200, 200}, false},
		{"nine of ten with a tie", []float64{90, 91, 92, 93, 94, 95, 96, 97, 98, 109}, true},
		{"eight and two ties", []float64{90, 91, 92, 93, 94, 95, 96, 97, 108, 109}, false},
		{"every pair won inside the spread", []float64{99, 100, 101, 102, 103, 104, 105, 106, 107, 108}, false},
	} {
		b, h := pairs(base, c.head)
		r := CompareAB(b, h)[0]
		if r.Resolved != c.want {
			t.Errorf("%s: resolved %t (wins %d/%d, medians %v → %v), want %t", c.name, r.Resolved, r.HeadWins, r.Pairs, r.Base.NsOp.Median, r.Head.NsOp.Median, c.want)
		}
	}
	if got := ABTable(CompareAB(pairs(base, base))); !strings.Contains(got, "resolved") || !strings.Contains(got, " false\n") {
		t.Fatalf("ABTable lacks the resolved column:\n%s", got)
	}
}
