package polynomial

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
)

// canonicalPredicate returns the predicate with every InSet value list in
// query.ValueSet form, which Predicate.Matches — and so the Naive oracle —
// needs; the System canonicalizes raw lists itself.
func canonicalPredicate(pred *query.Predicate) *query.Predicate {
	if pred == nil {
		return nil
	}
	q := pred.Clone()
	for _, a := range pred.ConstrainedAttrs() {
		if c := pred.Constraint(a); c.Kind == query.InSet {
			q.Where(a, query.ValueSet(c.Values))
		}
	}
	return q
}

// checkDerivColumn compares one DerivColumn pass with the per-value oracles:
// the full-walk derivative and (when nv is non-nil) the brute-force tuple
// enumeration.
func checkDerivColumn(t *testing.T, what string, sys *System, nv *Naive, attr int, pred *query.Predicate) {
	t.Helper()
	n := sys.Poly().DomainSizes()[attr]
	out := make([]float64, n+1)
	for v := range out {
		out[v] = math.NaN()
	}
	sys.DerivColumn(attr, pred, out)
	if !math.IsNaN(out[n]) {
		t.Fatalf("%s attr %d pred %v: DerivColumn wrote past the domain", what, attr, pred)
	}
	canon := canonicalPredicate(pred)
	for v := 0; v < n; v++ {
		ref := VarRef{Kind: OneD, Attr: attr, Value: v}
		oracles := map[string]float64{"full walk": fullWalkDeriv(sys, ref, pred)}
		if nv != nil {
			oracles["naive"] = nv.Deriv(sys, ref, canon)
		}
		for name, want := range oracles {
			if diff := math.Abs(out[v] - want); diff > 1e-12*math.Max(math.Abs(out[v]), math.Abs(want)) {
				t.Fatalf("%s attr %d pred %v: DerivColumn[%d] = %g, %s = %g", what, attr, pred, v, out[v], name, want)
			}
		}
		if canon != nil && !canon.Constraint(attr).Matches(v) && out[v] != 0 {
			t.Fatalf("%s attr %d pred %v: excluded value %d has derivative %g, want exactly 0", what, attr, pred, v, out[v])
		}
	}
}

// sharedRangeInstance is a polynomial whose range groups on attribute 0
// include one range, [1,2], in three attribute sets — {0,1}, {0,2} and, for
// the couple of the first two statistics, {0,1,2} — and a one-value range,
// [3,3], whose α is pinned at 0, so that group's factor is exactly zero.
func sharedRangeInstance(t *testing.T, rng *rand.Rand) ([]int, []MultiStatSpec, *System) {
	t.Helper()
	sizes := []int{4, 3, 5}
	specs := []MultiStatSpec{
		{Attrs: []int{0, 1}, Ranges: []query.Range{query.NewRange(1, 2), query.NewRange(0, 1)}},
		{Attrs: []int{0, 2}, Ranges: []query.Range{query.NewRange(1, 2), query.NewRange(2, 4)}},
		{Attrs: []int{0, 1}, Ranges: []query.Range{query.Point(3), query.Point(2)}},
	}
	comp, err := NewCompressed(sizes, specs)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(comp)
	for _, ref := range sys.Variables() {
		sys.Set(ref, 0.1+2*rng.Float64())
	}
	sys.SetOneD(0, 3, 0)
	sys.Recompute()
	sets := map[span]int{}
	zero := false
	for k, g := range comp.groups[0] {
		if comp.attrSets[g.set]&1 != 0 {
			sets[g.span]++
		}
		zero = zero || sys.gf[0][k] == 0 && g.lo == g.hi
	}
	if sets[span{1, 2}] != 3 || !zero {
		t.Fatalf("attribute 0 has range [1,2] in %d attribute sets and a zero one-value group %t, want 3 and true", sets[span{1, 2}], zero)
	}
	return sizes, specs, sys
}

// TestDerivColumnMatchesPerValue is the randomized kernel equivalence test:
// across instances, attributes and predicate shapes — none, Any / InRange /
// InSet on other attributes, and every constraint shape on the column
// attribute itself (point, range, unsorted-duplicate set, empty and
// out-of-domain) — one column pass equals the per-value derivatives. Every
// other instance carries exactly-zero α values and zero (δ−1) factors, which
// drive the zeros bookkeeping of the term caches. The 150 random instances
// are followed by 30 of sharedRangeInstance, drawn from their own source:
// range groups of one range in several attribute sets, and a group whose
// factor is zero.
func TestDerivColumnMatchesPerValue(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	shared := rand.New(rand.NewSource(102))
	for trial := 0; trial < 180; trial++ {
		var sizes []int
		var specs []MultiStatSpec
		var sys *System
		if trial < 150 {
			sizes, specs, sys = randomInstance(rng)
		} else {
			sizes, specs, sys = sharedRangeInstance(t, shared)
		}
		if trial%2 == 1 {
			for _, ref := range sys.Variables() {
				switch {
				case rng.Intn(4) != 0:
				case ref.Kind == OneD:
					sys.Set(ref, 0)
				default:
					sys.Set(ref, 1)
				}
			}
		}
		// Rebuild the caches as the solver does after every sweep, so the
		// zeroed factors are exact zeros and not incremental-update residue.
		sys.Recompute()
		sys.Eval(nil)
		nv, err := NewNaive(sizes, specs)
		if err != nil {
			t.Fatal(err)
		}
		for attr := range sizes {
			checkDerivColumn(t, "unmasked", sys, nv, attr, nil)
			for k := 1; k <= len(sizes); k++ {
				pred := shapedPredicate(sizes, k, rng)
				checkDerivColumn(t, "masked", sys, nv, attr, pred)
				pred.Where(attr, shapedConstraint(sizes[attr], rng))
				checkDerivColumn(t, "masked on the column", sys, nv, attr, pred)
			}
		}
	}
}

// TestDerivColumnFallbacks covers the shape the pruned column pass hands to
// the per-value full walk: a constrained attribute whose full-domain sum is
// exactly zero.
func TestDerivColumnFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		sizes, specs, sys := randomInstance(rng)
		dead := rng.Intn(len(sizes))
		for v := 0; v < sizes[dead]; v++ {
			sys.SetOneD(dead, v, 0)
		}
		sys.Recompute()
		sys.Eval(nil)
		nv, err := NewNaive(sizes, specs)
		if err != nil {
			t.Fatal(err)
		}
		for attr := range sizes {
			pred := query.NewPredicate(len(sizes)).Where(dead, shapedConstraint(sizes[dead], rng))
			checkDerivColumn(t, "zero full-domain sum", sys, nv, attr, pred)
		}
	}
}

// TestNewCompressedRefusesWideSchemas pins the attribute cap the masked
// paths rely on: 64 attributes build, with every term's attribute mask, and
// 65 are refused.
func TestNewCompressedRefusesWideSchemas(t *testing.T) {
	sizes := make([]int, 65)
	for a := range sizes {
		sizes[a] = 2
	}
	specs := []MultiStatSpec{{Attrs: []int{0, 63}, Ranges: []query.Range{query.Point(1), query.Point(0)}}}
	comp, err := NewCompressed(sizes[:64], specs)
	if err != nil {
		t.Fatalf("64 attributes: %v", err)
	}
	if got := comp.attrSets[comp.termSet[1]]; got != 1|1<<63 {
		t.Fatalf("the statistic's term has attribute mask %#x, want bits 0 and 63", got)
	}
	if _, err := NewCompressed(sizes, specs); err == nil || !strings.Contains(err.Error(), "65 attributes, more than the 64") {
		t.Fatalf("65 attributes: %v, want the cap refused", err)
	}
}

// TestDerivColumnConcurrentReaders runs column passes and masked evaluations
// concurrently on one solved System. Under -race it proves the column pass
// is read-only and that its pooled scratch stays per call; the answers must
// equal the serial ones bit for bit.
func TestDerivColumnConcurrentReaders(t *testing.T) {
	sys, pred := benchSystem(t)
	sys.Eval(nil)
	sizes := sys.Poly().DomainSizes()
	preds := []*query.Predicate{nil, pred}
	for _, name := range selectiveOrder {
		preds = append(preds, selectivePreds(len(sizes))[name])
	}
	wantEval := make([]float64, len(preds))
	wantCol := make([][]float64, len(preds))
	for i, p := range preds {
		wantEval[i] = sys.Eval(p)
		wantCol[i] = make([]float64, sizes[i%len(sizes)])
		sys.DerivColumn(i%len(sizes), p, wantCol[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			col := make([]float64, sizes[0])
			for it := 0; it < 50; it++ {
				i := (g + it) % len(preds)
				if got := sys.Eval(preds[i]); got != wantEval[i] {
					t.Errorf("concurrent Eval(%v) = %g, serial %g", preds[i], got, wantEval[i])
					return
				}
				sys.DerivColumn(i%len(sizes), preds[i], col)
				for v, want := range wantCol[i] {
					if col[v] != want {
						t.Errorf("concurrent DerivColumn(%d, %v)[%d] = %g, serial %g", i%len(sizes), preds[i], v, col[v], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
