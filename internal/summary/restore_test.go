package summary

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/solver/solvertest"
	"repro/internal/stats"
)

// flightsShapedRelation draws a relation with the shape of the repository
// benchmark's flights table: five attributes with its domain sizes, a
// skewed origin, a dozen destinations per origin, and a distance the route
// fixes up to a small jitter — so the two most correlated pairs share an
// attribute and their statistics combine into cross-pair terms. The last
// origin never occurs, which leaves one α pinned at exactly 0. extra (at
// most 3) appends that many uniform, independent attributes, which no pair
// selection picks.
func flightsShapedRelation(tb testing.TB, rows int, seed int64, extra int) *relation.Relation {
	tb.Helper()
	const dates, airports, times, dists, routes = 307, 54, 62, 81, 12
	attrs := []schema.Attribute{
		schema.MustBinned("fl_date", 0, dates, dates),
		schema.MustBinned("origin", 0, airports, airports),
		schema.MustBinned("dest", 0, airports, airports),
		schema.MustBinned("fl_time", 0, times, times),
		schema.MustBinned("distance", 0, dists, dists),
	}
	extraSizes := []int{24, 7, 40}[:extra]
	for k, n := range extraSizes {
		attrs = append(attrs, schema.MustBinned(fmt.Sprintf("extra%d", k), 0, float64(n), n))
	}
	sch := schema.MustNew(attrs...)
	rng := rand.New(rand.NewSource(seed))
	rel := relation.NewWithCapacity(sch, rows)
	tuple := make([]int, len(attrs))
	for i := 0; i < rows; i++ {
		u := rng.Float64()
		origin := int(u * u * (airports - 1)) // 0..airports-2
		dest := (origin*5 + 1 + 4*rng.Intn(routes)) % airports
		gap := origin - dest
		if gap < 0 {
			gap = -gap
		}
		dist := gap*(dists-5)/airports + rng.Intn(5)
		tuple[0], tuple[1], tuple[2], tuple[3], tuple[4] = rng.Intn(dates), origin, dest, rng.Intn(times), dist
		for k, n := range extraSizes {
			tuple[5+k] = rng.Intn(n)
		}
		rel.MustAppend(tuple)
	}
	return rel
}

// flightsShapedSummary builds the benchmark-shaped model: two COMPOSITE
// pairs of perPair rectangles each, over the relation with extra
// independent attributes. The sweep budget is tiny — restore equivalence is
// about the weights the solver left, not about convergence.
func flightsShapedSummary(tb testing.TB, perPair, extra int) *Summary {
	tb.Helper()
	rel := flightsShapedRelation(tb, 60000, 7, extra)
	sum, err := Build(rel, Options{
		PairBudget:    2,
		PerPairBudget: perPair,
		Heuristic:     stats.Composite,
		Solver:        solver.Options{MaxSweeps: 3},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sum
}

// systemValues reads every α and δ out of a system.
func systemValues(sys *polynomial.System) ([][]float64, []float64) {
	sizes := sys.Poly().DomainSizes()
	alpha := make([][]float64, len(sizes))
	for a, n := range sizes {
		alpha[a] = make([]float64, n)
		for v := range alpha[a] {
			alpha[a][v] = sys.OneD(a, v)
		}
	}
	delta := make([]float64, sys.Poly().NumMultiStats())
	for j := range delta {
		delta[j] = sys.MultiVar(j)
	}
	return alpha, delta
}

// sameBits fails the test unless two systems hold bit-identical variables,
// totals, and masked evaluations of every probe.
func sameBits(t *testing.T, what string, got, want *polynomial.System, probes []*query.Predicate) {
	t.Helper()
	ga, gd := systemValues(got)
	wa, wd := systemValues(want)
	for a := range wa {
		for v := range wa[a] {
			if math.Float64bits(ga[a][v]) != math.Float64bits(wa[a][v]) {
				t.Fatalf("%s: α[%d,%d] = %v, want %v", what, a, v, ga[a][v], wa[a][v])
			}
		}
	}
	for j := range wd {
		if math.Float64bits(gd[j]) != math.Float64bits(wd[j]) {
			t.Fatalf("%s: δ[%d] = %v, want %v", what, j, gd[j], wd[j])
		}
	}
	if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
		t.Fatalf("%s: Total() = %v, want %v", what, got.Total(), want.Total())
	}
	for i, pred := range probes {
		if g, w := got.Eval(pred), want.Eval(pred); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: probe %d (%v): Eval = %v, want %v", what, i, pred, g, w)
		}
	}
}

// TestRestoreEquivalenceFlightsShape checks, on a model of the benchmark's
// shape, that the bulk restore (polynomial.NewSystemFrom, and through it the
// codec) reproduces what the per-variable replay it replaced produced —
// NewSystem, one Set per variable, Recompute — bit for bit: every weight,
// the normalization constant, and 1-, 2- and 3-attribute point and range
// estimates. A second assignment with extra zero weights covers the
// zero-factor bookkeeping of the term caches. A decode beside the built
// model shares its structure; one after every model of the structure is
// gone builds it, and must answer and re-encode the same.
func TestRestoreEquivalenceFlightsShape(t *testing.T) {
	sum := flightsShapedSummary(t, 120, 0)
	poly := sum.System().Poly()
	if poly.NumAttrs() != 5 || poly.NumTerms() < 2000 {
		t.Fatalf("model has %d attributes and %d terms, want 5 and ≥ 2000", poly.NumAttrs(), poly.NumTerms())
	}
	pairs := sum.ChosenPairs()
	if len(pairs) != 2 {
		t.Fatalf("%d pairs chosen, want 2", len(pairs))
	}
	shared := -1
	for _, a := range []int{pairs[0].A1, pairs[0].A2} {
		if a == pairs[1].A1 || a == pairs[1].A2 {
			shared = a
		}
	}
	if shared < 0 {
		t.Fatalf("chosen pairs %+v do not share an attribute", pairs)
	}
	if got := sum.System().OneD(1, 53); got != 0 {
		t.Fatalf("the absent origin's α = %v, want an exact 0", got)
	}

	n := func(a int) int { return sum.Schema().Attr(a).Size() }
	probes := []*query.Predicate{
		query.NewPredicate(5).WhereEq(1, 3),
		query.NewPredicate(5).WhereEq(1, 53),
		query.NewPredicate(5).WhereRange(4, 10, 40),
		query.NewPredicate(5).WhereEq(1, 3).WhereEq(2, 16),
		query.NewPredicate(5).WhereRange(1, 0, 20).WhereRange(2, 5, 30),
		query.NewPredicate(5).WhereEq(1, 3).WhereEq(2, 16).WhereEq(4, 20),
		query.NewPredicate(5).WhereRange(0, 0, n(0)/2).WhereRange(shared, 2, n(shared)-3).WhereRange(4, 0, 60),
		query.NewPredicate(5).WhereIn(1, 1, 5, 9).WhereRange(3, 4, 30).WhereEq(2, 21),
	}

	replay := func(alpha [][]float64, delta []float64) *polynomial.System {
		sys := polynomial.NewSystem(poly)
		for a, col := range alpha {
			for v, x := range col {
				sys.SetOneD(a, v, x)
			}
		}
		for j, x := range delta {
			sys.Set(polynomial.VarRef{Kind: polynomial.Multi, Stat: j}, x)
		}
		sys.Recompute()
		sys.Eval(nil)
		return sys
	}

	alpha, delta := systemValues(sum.System())
	bulk, err := polynomial.NewSystemFrom(poly, alpha, delta)
	if err != nil {
		t.Fatal(err)
	}
	bulk.Eval(nil)
	sameBits(t, "NewSystemFrom vs replay", bulk, replay(alpha, delta), probes)
	sameBits(t, "NewSystemFrom vs solved", bulk, sum.System(), probes)

	// NewSystemFrom copies: the caller's slices stay the caller's.
	alpha[1][3] = -1
	if bulk.OneD(1, 3) == -1 {
		t.Fatal("NewSystemFrom aliases the caller's alpha")
	}
	alpha[1][3] = sum.System().OneD(1, 3)

	// Zero weights inside and outside statistic ranges, and a δ of exactly 1
	// (a zero (δ−1) factor).
	alpha[1][3], alpha[2][16], alpha[0][0], delta[0], delta[len(delta)-1] = 0, 0, 0, 1, 0
	zeroed, err := polynomial.NewSystemFrom(poly, alpha, delta)
	if err != nil {
		t.Fatal(err)
	}
	zeroed.Eval(nil)
	sameBits(t, "zeroed NewSystemFrom vs replay", zeroed, replay(alpha, delta), probes)

	if _, err := polynomial.NewSystemFrom(poly, alpha[:4], delta); err == nil {
		t.Fatal("NewSystemFrom accepted an alpha missing an attribute")
	}
	if _, err := polynomial.NewSystemFrom(poly, alpha, delta[1:]); err == nil {
		t.Fatal("NewSystemFrom accepted a short delta")
	}

	// Build → Encode → Decode.
	dec := roundTrip(t, sum).(*Summary)
	sameBits(t, "decoded vs built", dec.System(), sum.System(), probes)
	for i, pred := range probes {
		want, err := sum.EstimateCount(pred)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.EstimateCount(pred)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("probe %d (%v): decoded EstimateCount = %v, built = %v", i, pred, got, want)
		}
	}

	// The decode shared the built model's structure. Once no model of it is
	// resident, a fresh decode builds it again and must answer and
	// re-encode exactly like the shared one.
	if dec.System().Poly() != poly {
		t.Fatal("a decode beside the built model did not share its structure")
	}
	snap := encodeBytes(t, sum)
	reencoded := encodeBytes(t, dec)
	if !bytes.Equal(reencoded, snap) {
		t.Fatal("a shared-structure decode re-encodes to other bytes than the built model")
	}
	checkSharedDecodeMatchesFresh(t, snap, answerBits(t, dec, probes), reencoded, probes,
		sum.Stats().DomainSizes, sum.Stats().MultiSpecs())
}

// TestSolveMatchesPerVariableSweepFlightsShape holds the solver's column
// sweep to the per-variable sweep it replaced on a model of the benchmark's
// shape, at the benchmark's 30-sweep budget: the same sweeps, the same
// maximum violation, the same weights — the absent origin's pinned α
// included — to 1e-9 relative, and a dual that never decreases.
func TestSolveMatchesPerVariableSweepFlightsShape(t *testing.T) {
	sum := flightsShapedSummary(t, 120, 0)
	opts := solver.Options{N: sum.N(), MaxSweeps: 30, Tolerance: 1e-6}
	solvertest.Match(t, "flights shape", sum.System().Poly(), sum.Constraints(), opts)
}

// TestEncodingIsDeterministic checks that two builds of the same relation
// encode byte-identically: the snapshot is a function of the model, not of
// how long the solve happened to take.
func TestEncodingIsDeterministic(t *testing.T) {
	var first []byte
	for run := 0; run < 3; run++ {
		rel := codecTestRelation(t, 3000, 5)
		sum, err := Build(rel, Options{Solver: solver.Options{MaxSweeps: 60}})
		if err != nil {
			t.Fatal(err)
		}
		if sum.SolverReport().Duration <= 0 {
			t.Fatal("the solve reported no wall-clock time; the test would not notice it leaking into the bytes")
		}
		var buf bytes.Buffer
		if err := EncodeEstimator(&buf, sum); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("build %d encodes to %d bytes that differ from build 0's %d bytes", run, buf.Len(), len(first))
		}
	}
}

// TestBuildIsIndependentOfWorkers builds one relation of four counting
// blocks at GOMAXPROCS 1 and 4: the snapshots must be byte-identical, since
// the block-split counts are integers and everything after them is
// sequential.
func TestBuildIsIndependentOfWorkers(t *testing.T) {
	rel := flightsShapedRelation(t, 4<<16+1000, 11, 0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		sum, err := Build(rel, Options{
			PairBudget:    2,
			PerPairBudget: 60,
			Heuristic:     stats.Composite,
			Solver:        solver.Options{MaxSweeps: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeEstimator(&buf, sum); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("GOMAXPROCS=%d encodes %d bytes that differ from GOMAXPROCS=1's %d", procs, buf.Len(), len(first))
		}
	}
}

// BenchmarkDecodeEstimator measures snapshot restore at the repository
// benchmark's model shape (2 pairs x 300 statistics, ~10k terms): the cost
// under store.Load, the server's History first hit, and a replica's import.
// "flights" is a cold decode — decode, structure build, one cache rebuild —
// with no model of the structure resident: each iteration drops the last
// one's model and collects with the timer stopped. "flights-shared" decodes
// beside the built model, so it takes the resident structure
// (polynomial.Shared) and pays for the variables and caches only.
func BenchmarkDecodeEstimator(b *testing.B) {
	sum := flightsShapedSummary(b, 300, 0)
	var buf bytes.Buffer
	if err := EncodeEstimator(&buf, sum); err != nil {
		b.Fatal(err)
	}
	terms := float64(sum.System().Poly().NumTerms())
	b.Run("flights-shared", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(terms, "terms")
		for i := 0; i < b.N; i++ {
			if _, err := DecodeEstimator(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	runtime.KeepAlive(sum)
	b.Run("flights", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(terms, "terms")
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			if _, err := DecodeEstimator(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolveFlightsShape measures one cold solve at the repository
// benchmark's model shape (2 pairs x 300 statistics, ~10k terms) and sweep
// budget: what a build pays, and a refresh that falls back to a cold solve.
// A warm refresh stops at its parent's certificate instead
// (BenchmarkRefreshSmallDelta).
func BenchmarkSolveFlightsShape(b *testing.B) {
	benchmarkSolve(b, "flights", flightsShapedSummary(b, 300, 0), 2)
}

// BenchmarkSolveWideShape is BenchmarkSolveFlightsShape with three more
// attributes that no pair selects: 5 of 8 attributes are free, so a solve
// should cost about what the 5-attribute shape does.
func BenchmarkSolveWideShape(b *testing.B) {
	benchmarkSolve(b, "wide", flightsShapedSummary(b, 300, 3), 5)
}

// benchmarkSolve times one cold 30-sweep solve of sum's model, after checking
// that it has the given number of free attributes.
func benchmarkSolve(b *testing.B, name string, sum *Summary, free int) {
	poly, cs := sum.System().Poly(), sum.Constraints()
	got := 0
	for _, f := range solvertest.Free(poly, cs, sum.N()) {
		if f {
			got++
		}
	}
	if got != free {
		b.Fatalf("%s: %d free attributes, want %d", name, got, free)
	}
	opts := solver.Options{N: sum.N(), MaxSweeps: 30}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := polynomial.NewSystem(poly)
			b.StartTimer()
			if _, err := solver.Solve(sys, cs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuild measures one cold Build at the repository benchmark's
// shape and budgets — 1M flights-shaped rows, 2 COMPOSITE pairs of 300
// statistics, the default 30-sweep solve — so the statistics scan, the
// structure build and the solve are timed together. The rows span about
// ten counting blocks of the pair tables' scan.
func BenchmarkBuild(b *testing.B) {
	rel := flightsShapedRelation(b, 1_000_000, 1, 0)
	opts := Options{PairBudget: 2, PerPairBudget: 300, Heuristic: stats.Composite}
	b.Run("flights", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(rel, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
