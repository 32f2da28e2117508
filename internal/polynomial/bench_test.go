package polynomial

import (
	"math/rand"
	"testing"

	"repro/internal/query"
)

// benchSystem builds a realistically shaped system: 6 attributes with
// domain sizes up to 64 and 16 pairwise 2D statistics over three
// attribute pairs — the shape a B_a=3, B_s=16 summary produces.
func benchSystem(tb testing.TB) (*System, *query.Predicate) {
	tb.Helper()
	sizes := []int{64, 32, 16, 8, 8, 4}
	rng := rand.New(rand.NewSource(31))
	var specs []MultiStatSpec
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {0, 4}} {
		for k := 0; k < 16; k++ {
			a1, a2 := pair[0], pair[1]
			// Disjoint point cells along a diagonal stripe keep the specs
			// non-overlapping per pair, as statistic selection guarantees.
			v1 := (k * 3) % sizes[a1]
			v2 := k % sizes[a2]
			specs = append(specs, MultiStatSpec{
				Attrs:  []int{a1, a2},
				Ranges: []query.Range{query.Point(v1), query.Point(v2)},
			})
		}
	}
	comp, err := NewCompressed(sizes, specs)
	if err != nil {
		tb.Fatal(err)
	}
	sys := NewSystem(comp)
	for _, ref := range sys.Variables() {
		sys.Set(ref, 0.05+rng.Float64())
	}
	pred := query.NewPredicate(len(sizes)).
		WhereRange(0, 4, 40).
		WhereEq(2, 3).
		WhereIn(4, 0, 2, 5)
	return sys, pred
}

func BenchmarkSystemEvalFull(b *testing.B) {
	sys, _ := benchSystem(b)
	sys.Eval(nil) // warm the prefix caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Eval(nil)
	}
}

func BenchmarkSystemEvalMasked(b *testing.B) {
	sys, pred := benchSystem(b)
	sys.Eval(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Eval(pred)
	}
}

// selectivePreds are the predicate shapes of the pruned-eval benchmarks:
// real workloads mostly constrain 1–2 attributes, and the pruned path's
// win grows with the fraction of terms the constrained set leaves
// untouched. The all-attr variant is the adversarial shape where nearly
// every term is a candidate.
func selectivePreds(m int) map[string]*query.Predicate {
	return map[string]*query.Predicate{
		// One stat-bearing attribute, equality mask (the canonical
		// "how many tuples have A=v" query).
		"1attr": query.NewPredicate(m).WhereEq(1, 7),
		// One attribute, but the hottest one (attr 0 occurs in two of the
		// three statistic pairs) with a wide range mask.
		"1attrHot": query.NewPredicate(m).WhereRange(0, 4, 40),
		// Two attributes from one statistic pair.
		"2attr": query.NewPredicate(m).WhereEq(2, 3).WhereIn(4, 0, 2, 5),
		// Every attribute constrained: the touched set is the whole
		// polynomial.
		"allattr": query.NewPredicate(m).
			WhereRange(0, 4, 40).
			WhereRange(1, 0, 15).
			WhereEq(2, 3).
			WhereRange(3, 1, 6).
			WhereIn(4, 0, 2, 5).
			WhereEq(5, 1),
	}
}

var selectiveOrder = []string{"1attr", "1attrHot", "2attr", "allattr"}

// BenchmarkSystemEvalMaskedSelective measures the pruned masked
// evaluation across predicate selectivities.
func BenchmarkSystemEvalMaskedSelective(b *testing.B) {
	sys, _ := benchSystem(b)
	sys.Eval(nil)
	preds := selectivePreds(sys.Poly().NumAttrs())
	for _, name := range selectiveOrder {
		pred := preds[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = sys.Eval(pred)
			}
		})
	}
}

func BenchmarkSystemDerivOneD(b *testing.B) {
	sys, _ := benchSystem(b)
	sys.Eval(nil)
	ref := VarRef{Kind: OneD, Attr: 0, Value: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Deriv(ref)
	}
}

func BenchmarkSystemDerivMulti(b *testing.B) {
	sys, _ := benchSystem(b)
	sys.Eval(nil)
	ref := VarRef{Kind: Multi, Stat: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Deriv(ref)
	}
}

// BenchmarkSolverShapedBlock is one attribute block of the solver's sweep:
// the attribute's whole unmasked derivative column read, then one column
// write-back — the read rebuilds the column's partial sums the previous
// write dropped, as it does inside a solve.
func BenchmarkSolverShapedBlock(b *testing.B) {
	sys, _ := benchSystem(b)
	sys.Eval(nil)
	sizes := sys.Poly().DomainSizes()
	col, vals := make([]float64, sizes[0]), make([]float64, sizes[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % len(sizes)
		sys.DerivColumn(a, nil, col)
		for v := range vals[:sizes[a]] {
			vals[v] = 0.5 + float64((i+v)%7)*0.1
		}
		sys.SetOneDColumn(a, vals[:sizes[a]], -1)
	}
}

// BenchmarkSystemSetVar isolates the incremental maintenance cost of a
// single-variable update.
func BenchmarkSystemSetVar(b *testing.B) {
	sys, _ := benchSystem(b)
	sys.Eval(nil)
	ref := VarRef{Kind: OneD, Attr: 0, Value: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Set(ref, 0.5+float64(i%7)*0.1)
	}
}

// BenchmarkSystemRecompute measures the full cache rebuild — the per-sweep
// drift resynchronization, and the cost the incremental path saves per
// coordinate update.
func BenchmarkSystemRecompute(b *testing.B) {
	sys, _ := benchSystem(b)
	sys.Eval(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Recompute()
	}
}
