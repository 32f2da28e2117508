package summary

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/stats"
)

// testRelation draws a correlated relation over three attributes: the
// first two are strongly dependent, the third is independent.
func testRelation(t *testing.T, rows int, seed int64) *relation.Relation {
	t.Helper()
	sch := schema.MustNew(
		schema.MustCategorical("a", []string{"x", "y", "z", "w"}),
		schema.MustCategorical("b", []string{"p", "q", "r"}),
		schema.MustBinned("c", 0, 100, 5),
	)
	rng := rand.New(rand.NewSource(seed))
	rel := relation.NewWithCapacity(sch, rows)
	for i := 0; i < rows; i++ {
		a := rng.Intn(4)
		b := a % 3 // b tracks a
		if rng.Float64() < 0.15 {
			b = rng.Intn(3)
		}
		c, err := sch.Attr(2).Bin(rng.Float64() * 100)
		if err != nil {
			t.Fatal(err)
		}
		rel.MustAppend([]int{a, b, c})
	}
	return rel
}

func buildSolved(t *testing.T, rel *relation.Relation, opts Options) *Summary {
	t.Helper()
	if opts.Solver.MaxSweeps == 0 {
		opts.Solver.MaxSweeps = 3000
	}
	if opts.Solver.Tolerance == 0 {
		// The paper's convergence threshold; small instances converge
		// sublinearly, so tighter tolerances need disproportionate sweeps.
		opts.Solver.Tolerance = 1e-6
	}
	s, err := Build(rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.SolverReport().Converged {
		t.Fatalf("solver did not converge: %v", s.SolverReport())
	}
	return s
}

// TestBuildMatchesConstraintStatistics is the PR's acceptance check: the
// solved summary's estimated counts on the solver's own constraint
// statistics must match the observed counts within the solver tolerance.
func TestBuildMatchesConstraintStatistics(t *testing.T) {
	rel := testRelation(t, 4000, 3)
	n := float64(rel.NumRows())
	tol := 1e-8
	for _, h := range []stats.Heuristic{stats.LargeSingleCell, stats.ZeroSingleCell, stats.Composite} {
		s := buildSolved(t, rel, Options{Heuristic: h, Solver: solver.Options{Tolerance: tol, MaxSweeps: 2000}})

		set := s.Stats()
		// Every 1D statistic: predicate A_i = v.
		for attr, col := range set.OneD {
			for value, want := range col {
				q := query.NewPredicate(rel.NumAttrs()).WhereEq(attr, value)
				got, err := s.EstimateCount(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > 10*tol*n {
					t.Errorf("%v: 1D stat (A%d=%d): estimate %g, observed %g", h, attr, value, got, want)
				}
			}
		}
		// Every multi-dimensional statistic, via its own predicate.
		for _, st := range set.Multi {
			q := statPredicate(st, rel.NumAttrs())
			got, err := s.EstimateCount(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-st.Count) > 10*tol*n {
				t.Errorf("%v: multi stat %v: estimate %g, observed %g", h, st, got, st.Count)
			}
		}
	}
}

// statPredicate is the query predicate a statistic counts: its ranges on
// its attributes, over a relation of numAttrs attributes.
func statPredicate(st stats.Statistic, numAttrs int) *query.Predicate {
	p := query.NewPredicate(numAttrs)
	for k, a := range st.Attrs {
		p.Where(a, query.ValueIn(st.Ranges[k]))
	}
	return p
}

// TestEstimateCountBasics pins the trivial cases.
func TestEstimateCountBasics(t *testing.T) {
	rel := testRelation(t, 1000, 5)
	s := buildSolved(t, rel, Options{})
	if got, err := s.EstimateCount(nil); err != nil || got != float64(rel.NumRows()) {
		t.Fatalf("EstimateCount(nil) = %g, %v; want %d", got, err, rel.NumRows())
	}
	// An unsatisfiable predicate estimates to 0.
	bad := query.NewPredicate(rel.NumAttrs()).Where(0, query.ValueIn(query.NewRange(3, 1)))
	if got, err := s.EstimateCount(bad); err != nil || got != 0 {
		t.Fatalf("EstimateCount(unsatisfiable) = %g, %v; want 0", got, err)
	}
	// A predicate over the wrong arity is rejected.
	if _, err := s.EstimateCount(query.NewPredicate(7)); err == nil {
		t.Fatal("wrong-arity predicate accepted")
	}
	// The sum of single-value estimates over one attribute is n.
	total := 0.0
	for v := 0; v < s.Schema().Attr(0).Size(); v++ {
		est, err := s.EstimateCount(query.NewPredicate(rel.NumAttrs()).WhereEq(0, v))
		if err != nil {
			t.Fatal(err)
		}
		total += est
	}
	if math.Abs(total-float64(rel.NumRows())) > 1e-3 {
		t.Fatalf("per-value estimates sum to %g, want %d", total, rel.NumRows())
	}
}

// TestEstimateGroupByMatchesCounts checks group-by consistency: the
// group estimates of one attribute equal the per-value count estimates,
// and sum to the (estimated) predicate count.
func TestEstimateGroupByMatchesCounts(t *testing.T) {
	rel := testRelation(t, 1500, 11)
	s := buildSolved(t, rel, Options{})
	pred := query.NewPredicate(rel.NumAttrs()).WhereRange(2, 0, 2)
	groups, err := s.EstimateGroupBy([]int{1}, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no groups returned")
	}
	sum := 0.0
	for _, g := range groups {
		want, err := s.EstimateCount(pred.Clone().WhereEq(1, g.Values[0]))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g.Estimate-want) > 1e-9*float64(rel.NumRows()) {
			t.Errorf("group %v: estimate %g, direct count %g", g.Values, g.Estimate, want)
		}
		sum += g.Estimate
	}
	total, err := s.EstimateCount(pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-total) > 1e-6*float64(rel.NumRows()) {
		t.Errorf("group estimates sum to %g, predicate count is %g", sum, total)
	}
}

// TestBuildValidation pins the constructor's error paths.
func TestBuildValidation(t *testing.T) {
	sch := schema.MustNew(schema.MustCategorical("a", []string{"x", "y"}))
	empty := relation.New(sch)
	if _, err := Build(empty, Options{}); err == nil {
		t.Error("empty relation accepted")
	}
	rel := testRelation(t, 1000, 1)
	if _, err := Build(rel, Options{Solver: solver.Options{N: 5}}); err == nil {
		t.Error("pre-set Solver.N accepted")
	}
	s := buildSolved(t, rel, Options{})
	if _, err := s.EstimateGroupBy(nil, nil); err == nil {
		t.Error("empty group-by accepted")
	}
	if _, err := s.EstimateGroupBy([]int{99}, nil); err == nil {
		t.Error("out-of-range group attribute accepted")
	}
	if _, err := s.EstimateGroupBy([]int{0}, query.NewPredicate(2)); err == nil {
		t.Error("wrong-arity group-by predicate accepted")
	}
}

// TestSummaryIsCompact sanity-checks the size story of the paper: the
// summary footprint must be far below the relation it models.
func TestSummaryIsCompact(t *testing.T) {
	rel := testRelation(t, 4000, 9)
	s := buildSolved(t, rel, Options{})
	if s.ApproxBytes() >= rel.ApproxBytes()/10 {
		t.Errorf("summary is %d bytes, relation is %d; expected at least 10x compression",
			s.ApproxBytes(), rel.ApproxBytes())
	}
	rep := s.System().Poly().Size()
	if rep.Terms <= 0 {
		t.Errorf("polynomial has no terms: %+v", rep)
	}
}

// TestPureIndependenceModel covers the negative pair budget: no multi
// statistics, so the model factorizes and 2D estimates are products of
// marginals.
func TestPureIndependenceModel(t *testing.T) {
	rel := testRelation(t, 2000, 13)
	s := buildSolved(t, rel, Options{PairBudget: -1})
	if got := len(s.Stats().Multi); got != 0 {
		t.Fatalf("independence model has %d multi statistics, want 0", got)
	}
	n := float64(rel.NumRows())
	h0 := rel.Histogram1D(0)
	h1 := rel.Histogram1D(1)
	q := query.NewPredicate(rel.NumAttrs()).WhereEq(0, 1).WhereEq(1, 1)
	got, err := s.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(h0[1]) * float64(h1[1]) / n
	if math.Abs(got-want) > 1e-3*n {
		t.Errorf("independence estimate %g, want marginal product %g", got, want)
	}
}

// TestDegenerateNormalizer pins the one rule Build, Refresh and decode apply
// to a model's P: a model normalizes only by a positive, finite value.
func TestDegenerateNormalizer(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want bool
	}{
		{0, true},
		{-1, true},
		{math.NaN(), true},
		{math.Inf(1), true},
		{math.Inf(-1), true},
		{math.SmallestNonzeroFloat64, false},
		{1234.5, false},
		{math.MaxFloat64, false},
	} {
		if got := degenerate(tc.p); got != tc.want {
			t.Errorf("degenerate(%g) = %v, want %v", tc.p, got, tc.want)
		}
	}
}
