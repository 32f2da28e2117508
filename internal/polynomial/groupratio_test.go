package polynomial

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
)

// termFactors is the oracle of a System's group factors: a per-term table
// fac[i·m+a] of term i's attribute-a factor, kept by the per-term rules the
// group cache replaced — SetOneD adds the change to each term whose range
// holds the value, and SetOneDColumn and every rebuild set each term's factor
// to its range's prefix difference. Its writes go through the system.
type termFactors struct {
	sys *System
	fac []float64
}

func newTermFactors(sys *System) *termFactors {
	o := &termFactors{sys: sys, fac: make([]float64, sys.poly.NumTerms()*len(sys.alpha))}
	o.rebuild()
	return o
}

// column sets every term's attribute-a factor to its range's difference of
// the prefix sums of the current α_a.
func (o *termFactors) column(a int) {
	col, m := o.sys.alpha[a], len(o.sys.alpha)
	pre := make([]float64, len(col)+1)
	for v, x := range col {
		pre[v+1] = pre[v] + x
	}
	for i := range o.sys.poly.stats {
		r := o.sys.poly.ranges[i*m+a]
		o.fac[i*m+a] = pre[r.hi+1] - pre[r.lo]
	}
}

func (o *termFactors) rebuild() {
	for a := range o.sys.alpha {
		o.column(a)
	}
}

// wrote follows any write: a system whose update count is back at zero
// rebuilt its caches.
func (o *termFactors) wrote() {
	if o.sys.updates == 0 {
		o.rebuild()
	}
}

func (o *termFactors) setOneD(a, v int, x float64) {
	dx := x - o.sys.alpha[a][v]
	o.sys.SetOneD(a, v, x)
	if dx == 0 {
		return
	}
	m, p := len(o.sys.alpha), o.sys.poly
	for i, g := range p.termGroup[a] {
		if gr := p.groups[a][g]; int(gr.lo) <= v && v <= int(gr.hi) {
			o.fac[i*m+a] += dx
		}
	}
	o.wrote()
}

func (o *termFactors) setOneDColumn(a int, vals []float64) {
	o.sys.SetOneDColumn(a, vals, -1)
	o.column(a)
	o.wrote()
}

// check fails the test unless every term's group factor, on every
// attribute, is bit-equal to the oracle's.
func (o *termFactors) check(t *testing.T, what string) {
	t.Helper()
	p, m := o.sys.poly, len(o.sys.alpha)
	for a := range o.sys.alpha {
		for i, g := range p.termGroup[a] {
			got, want := o.sys.gf[a][g], o.fac[i*m+a]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: attribute %d term %d: group %d holds factor %v, the per-term rules give %v", what, a, i, g, got, want)
			}
		}
	}
}

// randomAssignment draws a full (α, δ) assignment of randomValue values.
func randomAssignment(c *Compressed, rng *rand.Rand) ([][]float64, []float64) {
	alpha := make([][]float64, c.NumAttrs())
	for a, n := range c.DomainSizes() {
		alpha[a] = make([]float64, n)
		for v := range alpha[a] {
			alpha[a][v] = randomValue(rng)
		}
	}
	delta := make([]float64, c.NumMultiStats())
	for j := range delta {
		delta[j] = randomValue(rng)
	}
	return alpha, delta
}

// TestRangeGroupMembersShareFactors drives random sequences of every write —
// SetOneD, SetMulti, SetOneDColumn, Recompute, CopyVarsFrom and a reload
// through NewSystemFrom — with α and δ pinned to 0 (and δ to 1) among the
// values, on the flights-shaped system (system 0) and on small random ones,
// and checks after every write that the one cached factor of each range
// group is, bit for bit, what the per-term rules (termFactors) give each of
// its members. One sequence per system makes more updates than rebuildEvery,
// so the drift rebuild runs inside it.
func TestRangeGroupMembersShareFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	systems := []*System{flightsShapedSystem(t, rng)}
	for range 4 {
		_, _, sys := randomInstance(rng)
		systems = append(systems, sys)
	}
	for k, sys := range systems {
		name := fmt.Sprintf("system %d", k)
		// The oracle starts from rebuilt caches: the factors left by the
		// instance's own writes are not known term by term.
		sys.Recompute()
		o := newTermFactors(sys)
		p := sys.Poly()
		sizes := p.DomainSizes()
		write := func(op int) {
			switch op {
			case 0:
				a := rng.Intn(len(sizes))
				o.setOneD(a, rng.Intn(sizes[a]), randomValue(rng))
			case 1:
				if p.NumMultiStats() > 0 {
					sys.Set(VarRef{Kind: Multi, Stat: rng.Intn(p.NumMultiStats())}, randomValue(rng))
					o.wrote()
				}
			case 2:
				a := rng.Intn(len(sizes))
				vals := make([]float64, sizes[a])
				for v := range vals {
					vals[v] = randomValue(rng)
				}
				o.setOneDColumn(a, vals)
			case 3:
				sys.Recompute()
				o.wrote()
			case 4:
				alpha, delta := randomAssignment(p, rng)
				donor, err := NewSystemFrom(p, alpha, delta)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.CopyVarsFrom(donor); err != nil {
					t.Fatal(err)
				}
				o.wrote()
			default:
				next, err := NewSystemFrom(p, sys.alpha, sys.delta)
				if err != nil {
					t.Fatal(err)
				}
				sys = next
				o = newTermFactors(sys)
			}
		}
		// Rebuilding writes (Recompute, CopyVarsFrom, NewSystemFrom) are one
		// draw in four, so most sequences run a stretch of incremental writes;
		// the factors are checked after every write.
		for seq := 0; seq < 12; seq++ {
			for step := 0; step < 30; step++ {
				op := rng.Intn(12)
				if op < 9 {
					op %= 3
				} else {
					op -= 6
				}
				write(op)
				o.check(t, fmt.Sprintf("%s sequence %d step %d", name, seq, step))
			}
		}
		// Single-variable updates past the drift budget: the counter must
		// wrap, so the rebuild ran between two checks.
		sys.Recompute()
		o.wrote()
		for step := 0; step < rebuildEvery+64; step++ {
			write(step % 2)
			if step%1024 == 0 {
				o.check(t, fmt.Sprintf("%s drift step %d", name, step))
			}
		}
		if sys.updates >= rebuildEvery {
			t.Fatalf("%s: %d updates since the last rebuild, the drift rebuild never ran", name, sys.updates)
		}
		o.check(t, name+" after the drift rebuild")
	}
}

// absSystem is sys with every α replaced by |α| and every δ−1 by |δ−1|. Its
// masked value bounds Σ_t |masked term t| of sys, and its masked
// derivatives the same sum of a derivative's terms: the scales a relative
// error of a sum of terms is measured against.
func absSystem(t testing.TB, sys *System) *System {
	t.Helper()
	alpha := make([][]float64, len(sys.alpha))
	for a, col := range sys.alpha {
		alpha[a] = make([]float64, len(col))
		for v, x := range col {
			alpha[a][v] = math.Abs(x)
		}
	}
	delta := make([]float64, len(sys.delta))
	for j, d := range sys.delta {
		delta[j] = 1 + math.Abs(d-1)
	}
	abs, err := NewSystemFrom(sys.poly, alpha, delta)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// maskedTolerance is the relative tolerance of the masked reads against
// the full walk, measured on the absolute sum of the terms.
const maskedTolerance = 1e-12

// checkMaskedStrict compares the masked Eval with the full walk, and every
// DerivColumn with the per-value full-walk derivative (on every seventh
// value of a wide column the predicate does not constrain), within
// maskedTolerance of the absolute sums of their terms (abs is absSystem of
// sys); it checks that each column is zero on the values the predicate
// excludes and that Σ_v α_v·column[v] — the group-by cells, up to the
// common factor n/P — adds up to the masked value.
func checkMaskedStrict(t testing.TB, what string, sys, abs *System, pred *query.Predicate) {
	t.Helper()
	got, want := sys.Eval(pred), fullWalkEval(sys, pred)
	scale := fullWalkEval(abs, pred)
	if math.Abs(got-want) > maskedTolerance*scale {
		t.Fatalf("%s pred %v: Eval = %v, full walk = %v (term scale %v)", what, pred, got, want, scale)
	}
	canon := canonicalPredicate(pred)
	for attr, n := range sys.Poly().DomainSizes() {
		out := make([]float64, n)
		sys.DerivColumn(attr, pred, out)
		cells := 0.0
		for v, x := range out {
			cells += sys.alpha[attr][v] * x
			if canon != nil && !canon.Constraint(attr).Matches(v) && x != 0 {
				t.Fatalf("%s pred %v: DerivColumn(%d)[%d] = %v on an excluded value, want exactly 0", what, pred, attr, v, x)
			}
			if n > 16 && v%7 != 0 && (canon == nil || canon.Constraint(attr).Kind == query.Any) {
				continue // a sample of the values of a wide, unmasked column
			}
			ref := VarRef{Kind: OneD, Attr: attr, Value: v}
			want, scale := fullWalkDeriv(sys, ref, pred), fullWalkDeriv(abs, ref, pred)
			if math.Abs(x-want) > maskedTolerance*scale {
				t.Fatalf("%s pred %v: DerivColumn(%d)[%d] = %v, full walk = %v (term scale %v)", what, pred, attr, v, x, want, scale)
			}
		}
		if math.Abs(cells-got) > maskedTolerance*scale {
			t.Fatalf("%s pred %v: the cells of column %d add up to %v, Eval = %v (term scale %v)", what, pred, attr, cells, got, scale)
		}
	}
}

// kernelBranches replays maskedTerm's decision for every candidate of a
// masked Eval and counts them by branch: "ratio" (a product of group
// ratios), "zero inside" (one of those ratios is zero although the group's
// range meets the mask's hull and its factor is not zero: a zero α inside
// the range), "non-finite" (the product is not finite, so the exact swap
// answers), "stays zero" (a zero factor while every ratio of the read is
// finite) and "revived" (a zero factor while some ratio is not — a group
// whose factor is zero and whose masked factor is not — so the exact swap
// answers). A void mask counts "void".
func kernelBranches(sys *System, pred *query.Predicate) map[string]int {
	sys.Eval(nil)
	sc := sys.getScratch(pred)
	defer sys.putScratch(sc)
	out := map[string]int{}
	if sc.void {
		out["void"]++
		return out
	}
	m := len(sys.alpha)
	for _, ti := range sys.groupRatios(sc, -1) {
		i := int(ti)
		if sys.zeros[i] != 0 {
			if sc.exact {
				out["revived"]++
			} else {
				out["stays zero"]++
			}
			continue
		}
		x, inside := sys.nz[i], false
		for k, a := range sc.attrs {
			g := &sc.kern[k]
			x *= g.r[g.tg[i]]
			r := sys.poly.ranges[i*m+a]
			meets := int(r.lo) <= sc.hi[a] && int(r.hi) >= sc.lo[a]
			inside = inside || g.r[g.tg[i]] == 0 && meets && sys.gf[a][g.tg[i]] != 0
		}
		switch {
		case !isFinite(x):
			out["non-finite"]++
		case inside:
			out["zero inside"]++
		default:
			out["ratio"]++
		}
	}
	return out
}

// smallSystem is a two-attribute polynomial with one statistic whose range on
// attribute 0 is rng0, under the given α of attribute 0 (attribute 1 and δ
// at ordinary values).
func smallSystem(t *testing.T, rng0 query.Range, alpha0 []float64) *System {
	t.Helper()
	comp, err := NewCompressed([]int{len(alpha0), 3}, []MultiStatSpec{
		{Attrs: []int{0, 1}, Ranges: []query.Range{rng0, query.NewRange(0, 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemFrom(comp, [][]float64{alpha0, {0.7, 1.3, 0.4}}, []float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMaskedKernelBranches runs every branch of the masked kernel against
// the full-walk oracles at relative tolerance 1e-12 (checkMaskedStrict), and
// first proves with kernelBranches that each case reaches the branch it is
// named for: point, range and InSet masks (canonical, and unsorted with
// duplicates and out-of-domain values) on the flights shape; void masks; a
// zero α inside a group's range; terms with zero factors; a group whose
// factor is zero but whose masked factor is not (negative α); and a group
// whose ratio overflows.
func TestMaskedKernelBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	flights := flightsShapedSystem(t, rng)

	// A zero α inside the range [0,1] of origin (attribute 1) that statistics
	// of both pairs have — the group's factor is α_{1,0}, not zero.
	zeroInside := flightsShapedSystem(t, rng)
	zeroInside.alpha[1][1] = 0
	zeroInside.load(zeroInside.alpha, zeroInside.delta)

	// Zero factors: a quarter of the variables pinned (α = 0, δ = 1), and
	// origin's α zero over [6,8], a range of the 15-way cut.
	zeroed := flightsShapedSystem(t, rng)
	zeroSomeVariables(zeroed, rng)
	clear(zeroed.alpha[1][6:9])
	zeroed.load(zeroed.alpha, zeroed.delta)

	// α_0 = (0.5, 1, −1, 0.7): the statistic's range [1,2] sums to exactly
	// zero, and a mask keeping value 1 revives it.
	revive := smallSystem(t, query.NewRange(1, 2), []float64{0.5, 1, -1, 0.7})
	// α_0 = (1e300, −1e300, 1e-300, 1): the range [0,2] sums to 1e-300 and a
	// mask keeping value 0 to 1e300, a ratio past the largest float.
	overflow := smallSystem(t, query.NewRange(0, 2), []float64{1e300, -1e300, 1e-300, 1})

	raw := func(vals ...int) query.Constraint { return query.Constraint{Kind: query.InSet, Values: vals} }
	pred := func(n int, where ...any) *query.Predicate {
		p := query.NewPredicate(n)
		for k := 0; k < len(where); k += 2 {
			p.Where(where[k].(int), where[k+1].(query.Constraint))
		}
		return p
	}
	cases := []struct {
		name   string
		sys    *System
		pred   *query.Predicate
		branch string
	}{
		{"point", flights, pred(5, 1, query.ValueEq(7)), "ratio"},
		{"two points", flights, pred(5, 1, query.ValueEq(7), 2, query.ValueEq(30)), "ratio"},
		{"range", flights, pred(5, 2, query.ValueIn(query.NewRange(10, 25))), "ratio"},
		{"range past the domain", flights, pred(5, 4, query.ValueIn(query.NewRange(-3, 12)), 1, query.ValueEq(3)), "ratio"},
		{"set", flights, pred(5, 1, query.ValueSet([]int{3, 17, 40})), "ratio"},
		{"raw set", flights, pred(5, 4, raw(60, -2, 5, 90, 5, 0), 2, raw(9, 9, 1)), "ratio"},
		{"three attributes", flights, pred(5, 0, query.ValueEq(11), 1, query.ValueEq(2), 4, query.ValueIn(query.NewRange(4, 20))), "ratio"},
		{"void range", flights, pred(5, 1, query.ValueEq(4), 2, query.ValueIn(query.NewRange(5, 2))), "void"},
		{"void set", flights, pred(5, 4, raw(81, -1, 200)), "void"},
		{"zero α inside a group", zeroInside, pred(5, 1, query.ValueEq(1), 2, query.ValueIn(query.NewRange(0, 20))), "zero inside"},
		{"zero factors", zeroed, pred(5, 1, query.ValueIn(query.NewRange(2, 12))), "stays zero"},
		{"zero factors, two attributes", zeroed, pred(5, 2, raw(8, 3, 3, 70), 4, query.ValueIn(query.NewRange(0, 40))), "stays zero"},
		{"revived zero factor", revive, pred(2, 0, query.ValueEq(1)), "revived"},
		{"revived zero factor, two attributes", revive, pred(2, 0, raw(3, 1, 1), 1, query.ValueEq(1)), "revived"},
		{"overflowing ratio", overflow, pred(2, 0, query.ValueEq(0)), "non-finite"},
		{"overflowing ratio, two attributes", overflow, pred(2, 0, query.ValueSet([]int{0, 3}), 1, query.ValueIn(query.NewRange(0, 1))), "non-finite"},
	}
	abs := map[*System]*System{}
	for _, c := range cases {
		if n := kernelBranches(c.sys, c.pred)[c.branch]; n == 0 {
			t.Fatalf("%s: no candidate reaches the %q branch (%v)", c.name, c.branch, kernelBranches(c.sys, c.pred))
		}
		if abs[c.sys] == nil {
			abs[c.sys] = absSystem(t, c.sys)
		}
		checkMaskedStrict(t, c.name, c.sys, abs[c.sys], c.pred)
		if c.branch == "void" && c.sys.Eval(c.pred) != 0 {
			t.Fatalf("%s: a void mask evaluates to %v, want exactly 0", c.name, c.sys.Eval(c.pred))
		}
	}
}

// fuzzPredicate decodes a predicate over the domain sizes from the fuzz
// bytes: per attribute one kind byte (no constraint, a point, a range, a
// canonical set, or a raw set that may be unsorted, duplicated or
// out-of-domain) and its operands, each a byte offset into a window a few
// values past either end of the domain. Missing bytes read as zero.
func fuzzPredicate(sizes []int, data []byte) *query.Predicate {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	value := func(n int) int { return next()%(n+4) - 2 }
	p := query.NewPredicate(len(sizes))
	for a, n := range sizes {
		switch next() % 5 {
		case 1:
			if v := value(n); v >= 0 && v < n {
				p.WhereEq(a, v)
			} else {
				p.Where(a, query.ValueIn(query.Point(v)))
			}
		case 2:
			lo := value(n)
			p.Where(a, query.ValueIn(query.NewRange(lo, lo+next()%(n+2)-1)))
		case 3, 4:
			canonical := next()%2 == 0
			vals := make([]int, 1+next()%6)
			for k := range vals {
				vals[k] = value(n)
			}
			if canonical {
				p.Where(a, query.ValueSet(vals))
			} else {
				p.Where(a, query.Constraint{Kind: query.InSet, Values: vals})
			}
		}
	}
	return p
}

// FuzzMaskedEval decodes a predicate over the flights-shaped system from
// the fuzz input and checks the masked kernel against the full walk at
// relative tolerance 1e-12 of the terms' absolute sum, and that the masked
// derivative column of one attribute — a group-by's cells, up to n/P — adds
// up to the count.
func FuzzMaskedEval(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 1, 7},
		{0, 0, 1, 9, 2, 3, 200, 1, 4},
		{1, 2, 5, 30, 2, 3, 3, 0, 1, 9, 40, 1, 4, 9, 7},
		{0, 3, 4, 1, 80, 2, 2, 1, 60, 0, 3, 3, 4, 1, 255, 255, 0, 2},
	} {
		f.Add(seed)
	}
	// The flights shape under a plain assignment and under one with a
	// quarter of the variables pinned, each beside its absSystem.
	var systems [][2]*System
	for k := range 2 {
		rng := rand.New(rand.NewSource(int64(257 + k)))
		sys := flightsShapedSystem(f, rng)
		if k == 1 {
			zeroSomeVariables(sys, rng)
		}
		sys.Eval(nil)
		abs := absSystem(f, sys)
		abs.Eval(nil)
		systems = append(systems, [2]*System{sys, abs})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var pick uint16
		if len(data) >= 2 {
			pick, data = binary.LittleEndian.Uint16(data), data[2:]
		}
		sys, abs := systems[int(pick)%len(systems)][0], systems[int(pick)%len(systems)][1]
		sizes := sys.Poly().DomainSizes()
		pred := fuzzPredicate(sizes, data)
		got, want := sys.Eval(pred), fullWalkEval(sys, pred)
		scale := fullWalkEval(abs, pred)
		if math.Abs(got-want) > maskedTolerance*scale {
			t.Fatalf("pred %v: Eval = %v, full walk = %v (term scale %v)", pred, got, want, scale)
		}
		attr := int(pick>>8) % len(sizes)
		out := make([]float64, sizes[attr])
		sys.DerivColumn(attr, pred, out)
		cells := 0.0
		for v, x := range out {
			cells += sys.alpha[attr][v] * x
		}
		if math.Abs(cells-got) > maskedTolerance*scale {
			t.Fatalf("pred %v: the cells of column %d add up to %v, Eval = %v (term scale %v)", pred, attr, cells, got, scale)
		}
	})
}
