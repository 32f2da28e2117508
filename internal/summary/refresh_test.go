package summary

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/stats"
)

func refreshTestSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustCategorical("a", []string{"u", "v", "w", "x"}),
		schema.MustCategorical("b", []string{"p", "q", "r"}),
		schema.MustBinned("c", 0, 100, 6),
	)
}

// drawCorrelated appends rows with a correlated (a, b) pair so the 2D
// statistics carry signal.
func drawCorrelated(m *relation.Mutable, rows int, rng *rand.Rand) {
	sch := m.Schema()
	for i := 0; i < rows; i++ {
		a := rng.Intn(sch.Attr(0).Size())
		b := rng.Intn(sch.Attr(1).Size())
		if rng.Float64() < 0.7 {
			b = a % sch.Attr(1).Size()
		}
		c := rng.Intn(sch.Attr(2).Size())
		if err := m.Append([]int{a, b, c}); err != nil {
			panic(err)
		}
	}
}

// refreshWorkload enumerates a deterministic set of count predicates
// covering 1- and 2-attribute selections.
func refreshWorkload(sch *schema.Schema) []*query.Predicate {
	var preds []*query.Predicate
	for v := 0; v < sch.Attr(0).Size(); v++ {
		p := query.NewPredicate(sch.NumAttrs())
		p.WhereEq(0, v)
		preds = append(preds, p)
	}
	for v1 := 0; v1 < sch.Attr(0).Size(); v1++ {
		for v2 := 0; v2 < sch.Attr(1).Size(); v2++ {
			p := query.NewPredicate(sch.NumAttrs())
			p.WhereEq(0, v1)
			p.WhereEq(1, v2)
			preds = append(preds, p)
		}
	}
	p := query.NewPredicate(sch.NumAttrs())
	p.WhereRange(2, 1, 4)
	preds = append(preds, p)
	return preds
}

// TestRefreshMatchesRebuild is the randomized equivalence test of the
// acceptance criteria: after random appends, the incrementally refreshed
// summary (delta statistics + warm-start solve) must answer every
// workload query within solver tolerance of a from-scratch model over the
// grown relation (full recount + cold solve, same statistic structure —
// both paths then share one unique MaxEnt optimum).
func TestRefreshMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sch := refreshTestSchema()
	opts := Options{
		PairBudget:    2,
		PerPairBudget: 6,
		Heuristic:     stats.Composite,
		Solver:        solver.Options{MaxSweeps: 500, Tolerance: 1e-8},
	}
	for trial := 0; trial < 5; trial++ {
		baseRows := 2000 + rng.Intn(2000)
		deltaRows := 1 + rng.Intn(baseRows/10)
		mut := relation.NewMutable(relation.NewWithCapacity(sch, baseRows+deltaRows))
		drawCorrelated(mut, baseRows, rng)
		base, _ := mut.Freeze()
		sum, err := Build(base, opts)
		if err != nil {
			t.Fatal(err)
		}

		drawCorrelated(mut, deltaRows, rng)
		full, _ := mut.Freeze()
		delta, err := full.Slice(baseRows, full.NumRows())
		if err != nil {
			t.Fatal(err)
		}

		ropts := RefreshOptions{
			DriftThreshold: -1, // force the incremental path
			Solver:         solver.Options{MaxSweeps: 500, Tolerance: 1e-8},
		}
		inc, info, err := sum.Refresh(full, delta, ropts)
		if err != nil {
			t.Fatal(err)
		}
		if info.Rebuilt {
			t.Fatalf("trial %d: incremental refresh reported a rebuild", trial)
		}
		if !info.Solver.Converged {
			t.Fatalf("trial %d: warm solve did not converge: %v", trial, info.Solver)
		}

		cold, cinfo, err := sum.Refresh(full, delta, RefreshOptions{
			ForceRebuild: true,
			Solver:       solver.Options{MaxSweeps: 500, Tolerance: 1e-8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !cinfo.Rebuilt || !cinfo.Solver.Converged {
			t.Fatalf("trial %d: rebuild path: %+v", trial, cinfo)
		}

		if inc.N() != float64(full.NumRows()) || cold.N() != float64(full.NumRows()) {
			t.Fatalf("trial %d: refreshed N %g/%g, want %d", trial, inc.N(), cold.N(), full.NumRows())
		}

		tol := 1e-5 * float64(full.NumRows())
		for _, pred := range refreshWorkload(sch) {
			ei, err := inc.EstimateCount(pred)
			if err != nil {
				t.Fatal(err)
			}
			ec, err := cold.EstimateCount(pred)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ei-ec) > tol {
				t.Errorf("trial %d: pred %v: incremental %g vs rebuild %g (tol %g)",
					trial, pred, ei, ec, tol)
			}
		}

		// The original summary must be untouched and keep answering from
		// the base relation.
		if sum.N() != float64(baseRows) {
			t.Fatalf("trial %d: Refresh mutated the receiver (N=%g)", trial, sum.N())
		}
	}
}

// TestRefreshWarmStartCheaper pins the operational claim: on a small
// delta, the warm-started refresh needs fewer sweeps than the cold
// rebuild of the same grown relation.
func TestRefreshWarmStartCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sch := refreshTestSchema()
	mut := relation.NewMutable(relation.NewWithCapacity(sch, 0))
	drawCorrelated(mut, 20000, rng)
	base, _ := mut.Freeze()
	sum, err := Build(base, Options{Heuristic: stats.Composite, Solver: solver.Options{MaxSweeps: 500}})
	if err != nil {
		t.Fatal(err)
	}
	drawCorrelated(mut, 50, rng)
	full, _ := mut.Freeze()
	delta, err := full.Slice(base.NumRows(), full.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := sum.Refresh(full, delta, RefreshOptions{Solver: solver.Options{MaxSweeps: 500}})
	if err != nil {
		t.Fatal(err)
	}
	_, cold, err := sum.Refresh(full, delta, RefreshOptions{ForceRebuild: true, Solver: solver.Options{MaxSweeps: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rebuilt || !cold.Rebuilt {
		t.Fatalf("unexpected paths: warm.Rebuilt=%t cold.Rebuilt=%t", warm.Rebuilt, cold.Rebuilt)
	}
	if warm.Solver.Sweeps >= cold.Solver.Sweeps {
		t.Fatalf("warm refresh took %d sweeps, cold rebuild %d — warm must be cheaper on a 0.25%% delta",
			warm.Solver.Sweeps, cold.Solver.Sweeps)
	}
}

// TestRefreshDriftFallback checks the threshold policy: a delta larger
// than the drift threshold triggers the rebuild path automatically.
func TestRefreshDriftFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sch := refreshTestSchema()
	mut := relation.NewMutable(relation.NewWithCapacity(sch, 0))
	drawCorrelated(mut, 1000, rng)
	base, _ := mut.Freeze()
	sum, err := Build(base, Options{Solver: solver.Options{MaxSweeps: 500}})
	if err != nil {
		t.Fatal(err)
	}
	drawCorrelated(mut, 900, rng) // 47% of the grown relation
	full, _ := mut.Freeze()
	delta, _ := full.Slice(1000, full.NumRows())
	_, info, err := sum.Refresh(full, delta, RefreshOptions{Solver: solver.Options{MaxSweeps: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rebuilt {
		t.Fatalf("47%% drift did not trigger the rebuild fallback (drift=%g)", info.Drift)
	}

	// A zero-row delta returns the summary unchanged.
	empty, _ := full.Slice(full.NumRows(), full.NumRows())
	same, info, err := sum.Refresh(base, empty, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if same != sum || info.DeltaRows != 0 {
		t.Fatal("empty delta should return the receiver unchanged")
	}
}

// TestRefreshValidation exercises the bookkeeping cross-checks.
func TestRefreshValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sch := refreshTestSchema()
	mut := relation.NewMutable(relation.NewWithCapacity(sch, 0))
	drawCorrelated(mut, 500, rng)
	base, _ := mut.Freeze()
	sum, err := Build(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	drawCorrelated(mut, 100, rng)
	full, _ := mut.Freeze()
	delta, _ := full.Slice(500, 600)

	if _, _, err := sum.Refresh(nil, delta, RefreshOptions{}); err == nil {
		t.Fatal("Refresh accepted a nil full relation")
	}
	if _, _, err := sum.Refresh(base, delta, RefreshOptions{}); err == nil {
		t.Fatal("Refresh accepted full/delta cardinalities that do not add up")
	}
	if _, _, err := sum.Refresh(full, delta, RefreshOptions{Solver: solver.Options{N: 1}}); err == nil {
		t.Fatal("Refresh accepted a pre-set solver N")
	}
}

// TestRefreshRebuildRecountsExactly holds the rebuild path's statistics
// to NewSet over the grown relation plus one Count scan per
// multi-dimensional statistic: bit-identical, over a relation whose rows
// span several parts.
func TestRefreshRebuildRecountsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sch := refreshTestSchema()
	mut := relation.NewMutable(relation.New(sch))
	drawCorrelated(mut, 60000, rng)
	base, _ := mut.Freeze()
	sum, err := Build(base, Options{PairBudget: 3, PerPairBudget: 6, Heuristic: stats.Composite})
	if err != nil {
		t.Fatal(err)
	}
	drawCorrelated(mut, 10000, rng)
	full, _ := mut.Freeze()
	delta, err := full.Slice(base.NumRows(), full.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, info, err := sum.Refresh(full, delta, RefreshOptions{ForceRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rebuilt {
		t.Fatal("ForceRebuild took the incremental path")
	}
	want := stats.NewSet(full)
	for _, st := range sum.Stats().Multi {
		st.Count = float64(full.Count(statPredicate(st, sch.NumAttrs())))
		if err := want.AddMulti(st); err != nil {
			t.Fatal(err)
		}
	}
	if len(want.Multi) == 0 {
		t.Fatal("the build chose no multi-dimensional statistics")
	}
	if !reflect.DeepEqual(rebuilt.Stats(), want) {
		t.Fatal("rebuilt statistics differ from NewSet plus per-statistic counts")
	}
}

// certificateBase builds the benchmark-shaped model (2 COMPOSITE pairs of 300
// statistics) at the default 30-sweep budget over the first base rows of rel.
// The build stops at the cap, unconverged.
func certificateBase(t testing.TB, rel *relation.Relation, base int) *Summary {
	t.Helper()
	head, err := rel.Slice(0, base)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(head, Options{PairBudget: 2, PerPairBudget: 300, Heuristic: stats.Composite})
	if err != nil {
		t.Fatal(err)
	}
	if rep := sum.SolverReport(); rep.Converged || rep.Sweeps != 30 {
		t.Fatalf("the base build must stop unconverged at the 30-sweep cap: %v", rep)
	}
	return sum
}

// grow slices the full relation and the delta for refreshing a summary of
// rel's first from rows to its first to rows.
func grow(t testing.TB, rel *relation.Relation, from, to int) (full, delta *relation.Relation) {
	t.Helper()
	full, err := rel.Slice(0, to)
	if err != nil {
		t.Fatal(err)
	}
	delta, err = rel.Slice(from, to)
	if err != nil {
		t.Fatal(err)
	}
	return full, delta
}

// TestRefreshStopsAtParentCertificate pins the warm solve's stopping rule on
// a model whose build ends unconverged: each small-delta refresh stops before
// the sweep cap, at a certificate strictly below the one of the model it
// replaces, and reports itself unconverged at the caller's tolerance.
func TestRefreshStopsAtParentCertificate(t *testing.T) {
	const base, step, refreshes = 60000, 300, 12
	rel := flightsShapedRelation(t, base+step*refreshes, 11, 0)
	sum := certificateBase(t, rel, base)
	for k := 0; k < refreshes; k++ {
		full, delta := grow(t, rel, base+k*step, base+(k+1)*step)
		next, info, err := sum.Refresh(full, delta, RefreshOptions{})
		if err != nil {
			t.Fatal(err)
		}
		parent, got := sum.SolverReport(), info.Solver
		if info.Rebuilt {
			t.Fatalf("refresh %d took the rebuild path", k)
		}
		if got.Sweeps >= 30 {
			t.Fatalf("refresh %d ran %d sweeps; it must stop before the cap", k, got.Sweeps)
		}
		if !(got.MaxViolation < parent.MaxViolation) {
			t.Fatalf("refresh %d: certificate %g, parent's %g; it must be strictly below", k, got.MaxViolation, parent.MaxViolation)
		}
		if got.Converged {
			t.Fatalf("refresh %d reports converged at max violation %g (tolerance %g)", k, got.MaxViolation, solver.DefaultTolerance)
		}
		if next.SolverReport() != got {
			t.Fatalf("refresh %d: the model's report %v differs from RefreshInfo's %v", k, next.SolverReport(), got)
		}
		sum = next
	}
}

// TestRefreshOfRestoredSummaryMatches refreshes a codec round-tripped model
// and the one it was encoded from by the same delta: the snapshot carries
// the certificate the warm solve stops at, so both refreshes leave
// bit-identical variables and the same report.
func TestRefreshOfRestoredSummaryMatches(t *testing.T) {
	const base, step = 60000, 500
	rel := flightsShapedRelation(t, base+step, 13, 0)
	sum := certificateBase(t, rel, base)
	restored := roundTrip(t, sum).(*Summary)
	full, delta := grow(t, rel, base, base+step)
	want, winfo, err := sum.Refresh(full, delta, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, ginfo, err := restored.Refresh(full, delta, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "refresh of the restored model", got.System(), want.System(), nil)
	gr, wr := ginfo.Solver, winfo.Solver
	gr.Duration, wr.Duration = 0, 0
	if gr != wr || math.Float64bits(gr.MaxViolation) != math.Float64bits(wr.MaxViolation) {
		t.Fatalf("report after restore %v, want %v", gr, wr)
	}
	if wr.Sweeps >= 30 {
		t.Fatalf("the refresh ran %d sweeps; it must stop at the parent's certificate", wr.Sweeps)
	}
}

// BenchmarkRefreshSmallDelta measures one incremental refresh at the
// repository benchmark's shape (2 pairs x 300 statistics) by a 5,000-row
// delta: the statistics fold, the structure reuse and the warm solve that
// stops at the replaced model's certificate.
func BenchmarkRefreshSmallDelta(b *testing.B) {
	const base, step = 1000000, 5000
	rel := flightsShapedRelation(b, base+step, 7, 0)
	sum := certificateBase(b, rel, base)
	full, delta := grow(b, rel, base, base+step)
	b.Run("flights", func(b *testing.B) {
		b.ReportAllocs()
		var info RefreshInfo
		for i := 0; i < b.N; i++ {
			var err error
			if _, info, err = sum.Refresh(full, delta, RefreshOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(info.Solver.Sweeps), "sweeps")
	})
}
