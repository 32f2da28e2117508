package polynomial

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/query"
)

// rebuildEvery bounds how many incremental variable updates may pass before
// the factor caches are recomputed from scratch, so floating-point drift
// from the multiply/divide maintenance cannot accumulate unboundedly.
const rebuildEvery = 1 << 13

// System couples a Compressed polynomial structure with concrete variable
// values: α values for the complete 1-dimensional statistics and δ values
// for the multi-dimensional statistics. It supports masked evaluation and
// analytic partial derivatives.
//
// The system is incremental: it caches, per term, the current value of
// every factor (the per-attribute range sums and the (δ_j − 1) statistic
// factors) together with the running total P. A single-variable update
// touches only the terms whose effective range covers the variable
// (Compressed.touch / Compressed.statTerms), so after a SetVar the full
// polynomial value Eval(nil) and the unmasked derivatives Deriv(·, nil)
// are available in O(terms touching the variable) instead of a full
// re-evaluation — the property the solver's inner loop is built on.
//
// A System is not safe for concurrent mutation; concurrent read-only use
// (Eval/Deriv with no SetVar in between) is safe.
type System struct {
	poly   *Compressed
	alpha  [][]float64 // per attribute, per domain value
	delta  []float64   // per multi-dimensional statistic
	prefix [][]float64 // per attribute: prefix sums of alpha (len N_i + 1)
	dirty  []bool      // per attribute: prefix sums need rebuilding

	// Incremental term caches. For term i, nz[i] is the product of its
	// non-zero factors and zeros[i] counts its zero factors, so the term
	// value is nz[i] when zeros[i] == 0 and 0 otherwise; fac[i][a] is the
	// current value of the attribute-a factor. total is Σ_i value(i) = P.
	fac     [][]float64
	nz      []float64
	zeros   []int
	total   float64
	updates int // SetVar count since the last full rebuild

	// scratchPool recycles the per-call scratch of masked Eval/Deriv so
	// the hot path is allocation-free yet still safe for concurrent
	// read-only use.
	scratchPool sync.Pool
}

// evalScratch is the pooled per-call state of the masked Eval/Deriv paths:
// the per-attribute constraint snapshot, the constrained attribute set S,
// the masked full-domain sums M_a, and a backing buffer for canonicalizing
// InSet value lists that arrive unsorted.
type evalScratch struct {
	cons    []query.Constraint
	attrs   []int     // constrained attribute indexes, ascending
	maskedF []float64 // per attribute: masked full-domain sum M_a (set for attrs)
	vals    []int     // backing storage for canonicalized InSet values
	// termBits is the union-bitset buffer of the touched-set cardinality
	// cutoff (len ⌈terms/64⌉).
	termBits []uint64
	// mprefix[a] is the per-call masked prefix column of an InSet-constrained
	// attribute (M[i] = Σ_{v<i, v∈set} α_{a,v}, len N_a+1), built lazily on
	// the attribute's first masked factor so every later factor is O(1)
	// regardless of the set size. mpBuilt[a] marks columns valid for this
	// call; the backing arrays persist in the pool across calls.
	mprefix [][]float64
	mpBuilt []bool
}

// NewSystem creates a System over the polynomial with every variable
// initialized to 1 (the uniform starting point used by the solver).
func NewSystem(poly *Compressed) *System {
	s := newSystemShell(poly)
	s.rebuild()
	return s
}

// NewSystemFrom creates a System over the polynomial holding a copy of the
// given variable values (alpha per attribute and domain value, delta per
// multi-dimensional statistic), with the term caches built by one full
// rebuild — the bulk counterpart of NewSystem followed by one Set per
// variable, and how a snapshot restores solved weights.
func NewSystemFrom(poly *Compressed, alpha [][]float64, delta []float64) (*System, error) {
	s := newSystemShell(poly)
	if err := s.checkShape(alpha, delta); err != nil {
		return nil, err
	}
	s.load(alpha, delta)
	return s, nil
}

// newSystemShell allocates a System with every variable at 1 but leaves the
// term caches unbuilt; callers must rebuild or load before use.
func newSystemShell(poly *Compressed) *System {
	s := &System{poly: poly}
	s.alpha = make([][]float64, len(poly.sizes))
	s.prefix = make([][]float64, len(poly.sizes))
	s.dirty = make([]bool, len(poly.sizes))
	for i, n := range poly.sizes {
		s.alpha[i] = make([]float64, n)
		for v := range s.alpha[i] {
			s.alpha[i][v] = 1
		}
		s.prefix[i] = make([]float64, n+1)
		s.dirty[i] = true
	}
	s.delta = make([]float64, len(poly.specs))
	for j := range s.delta {
		s.delta[j] = 1
	}
	m := len(poly.sizes)
	s.fac = make([][]float64, len(poly.terms))
	flat := make([]float64, len(poly.terms)*m)
	for i := range s.fac {
		s.fac[i], flat = flat[:m], flat[m:]
	}
	s.nz = make([]float64, len(poly.terms))
	s.zeros = make([]int, len(poly.terms))
	s.scratchPool.New = func() any {
		return &evalScratch{
			cons:     make([]query.Constraint, m),
			attrs:    make([]int, 0, m),
			maskedF:  make([]float64, m),
			termBits: make([]uint64, (len(poly.terms)+63)/64),
			mprefix:  make([][]float64, m),
			mpBuilt:  make([]bool, m),
		}
	}
	return s
}

// Poly returns the underlying compressed polynomial structure.
func (s *System) Poly() *Compressed { return s.poly }

// OneD returns the value of α_{attr,value}.
func (s *System) OneD(attr, value int) float64 { return s.alpha[attr][value] }

// MultiVar returns the value of δ_stat.
func (s *System) MultiVar(stat int) float64 { return s.delta[stat] }

// SetOneD assigns α_{attr,value}, incrementally maintaining the cached
// term factors and the polynomial total.
func (s *System) SetOneD(attr, value int, x float64) {
	dx := x - s.alpha[attr][value]
	if dx == 0 {
		return
	}
	s.alpha[attr][value] = x
	s.dirty[attr] = true
	for _, ti := range s.poly.touch[attr][value] {
		s.shiftFactor(int(ti), attr, dx)
	}
	for _, ti := range s.poly.loose[attr] {
		s.shiftFactor(int(ti), attr, dx)
	}
	s.noteUpdate()
}

// SetMulti assigns δ_stat, incrementally maintaining the cached term
// factors and the polynomial total.
func (s *System) SetMulti(stat int, x float64) {
	old := s.delta[stat]
	if x == old {
		return
	}
	s.delta[stat] = x
	for _, ti := range s.poly.statTerms[stat] {
		s.replaceFactor(int(ti), old-1, x-1)
	}
	s.noteUpdate()
}

// shiftFactor adds dx to term i's attribute-attr range-sum factor.
func (s *System) shiftFactor(i, attr int, dx float64) {
	old := s.fac[i][attr]
	nf := old + dx
	s.fac[i][attr] = nf
	s.replaceFactor(i, old, nf)
}

// replaceFactor swaps one factor of term i from value old to value nf,
// updating nz/zeros and the running total.
func (s *System) replaceFactor(i int, old, nf float64) {
	if s.zeros[i] == 0 {
		s.total -= s.nz[i]
	}
	if old == 0 {
		s.zeros[i]--
	} else {
		s.nz[i] /= old
	}
	if nf == 0 {
		s.zeros[i]++
	} else {
		s.nz[i] *= nf
	}
	if s.zeros[i] == 0 {
		s.total += s.nz[i]
	}
}

// noteUpdate counts one variable update and triggers a full cache rebuild
// when the drift budget is exhausted or the total went non-finite.
func (s *System) noteUpdate() {
	s.updates++
	if s.updates >= rebuildEvery || math.IsNaN(s.total) || math.IsInf(s.total, 0) {
		s.rebuild()
	}
}

// rebuild recomputes every cached term factor, nz/zeros, and the running
// total from the current variable values.
func (s *System) rebuild() {
	s.refreshAll()
	total := 0.0
	for i, t := range s.poly.terms {
		f := s.fac[i]
		nz, zeros := 1.0, 0
		k := 0
		for a := range s.alpha {
			var r query.Range
			if k < len(t.attrs) && t.attrs[k] == a {
				r = t.ranges[k]
				k++
			} else {
				r = fullRange(len(s.alpha[a]))
			}
			v := s.rangeSum(a, r)
			f[a] = v
			if v == 0 {
				zeros++
			} else {
				nz *= v
			}
		}
		for _, j := range t.stats {
			d := s.delta[j] - 1
			if d == 0 {
				zeros++
			} else {
				nz *= d
			}
		}
		s.nz[i] = nz
		s.zeros[i] = zeros
		if zeros == 0 {
			total += nz
		}
	}
	s.total = total
	s.updates = 0
}

// Recompute discards the incremental caches and rebuilds them from the
// current variable values, re-synchronizing the cached P with a full
// evaluation. The solver calls it once per sweep so incremental
// floating-point drift cannot accumulate across sweeps.
func (s *System) Recompute() { s.rebuild() }

// Get returns the value of the referenced variable.
func (s *System) Get(v VarRef) float64 {
	if v.Kind == OneD {
		return s.alpha[v.Attr][v.Value]
	}
	return s.delta[v.Stat]
}

// Set assigns the referenced variable.
func (s *System) Set(v VarRef, x float64) {
	if v.Kind == OneD {
		s.SetOneD(v.Attr, v.Value, x)
		return
	}
	s.SetMulti(v.Stat, x)
}

// Clone returns a deep copy of the system (sharing the immutable Compressed
// structure). The copy's caches are rebuilt from scratch, so a clone also
// serves as a drift-free re-evaluation of the same variable assignment.
func (s *System) Clone() *System {
	c := newSystemShell(s.poly)
	c.load(s.alpha, s.delta)
	return c
}

// CopyVarsFrom overwrites this system's variable assignment with the one
// of other and rebuilds the caches. The two systems must have the same
// shape (identical domain sizes and multi-statistic count); the polynomial
// structures need not be the same object, which lets a freshly built
// system warm-start from a previously solved one.
func (s *System) CopyVarsFrom(other *System) error {
	if err := s.checkShape(other.alpha, other.delta); err != nil {
		return err
	}
	s.load(other.alpha, other.delta)
	return nil
}

// checkShape reports whether the value slices match the system's domain
// sizes and multi-statistic count.
func (s *System) checkShape(alpha [][]float64, delta []float64) error {
	if len(s.alpha) != len(alpha) || len(s.delta) != len(delta) {
		return fmt.Errorf("polynomial: shape mismatch: %d/%d attributes, %d/%d statistics",
			len(s.alpha), len(alpha), len(s.delta), len(delta))
	}
	for a := range s.alpha {
		if len(s.alpha[a]) != len(alpha[a]) {
			return fmt.Errorf("polynomial: attribute %d has domain size %d here, %d there",
				a, len(s.alpha[a]), len(alpha[a]))
		}
	}
	return nil
}

// load copies a shape-checked variable assignment into the system and
// rebuilds every cache from it: the one values → caches path behind
// NewSystemFrom, Clone and CopyVarsFrom.
func (s *System) load(alpha [][]float64, delta []float64) {
	for a := range s.alpha {
		copy(s.alpha[a], alpha[a])
		s.dirty[a] = true
	}
	copy(s.delta, delta)
	s.rebuild()
}

// Variables returns references to every variable of the system: all α
// variables in attribute-then-value order followed by all δ variables.
func (s *System) Variables() []VarRef {
	var out []VarRef
	for a := range s.alpha {
		for v := range s.alpha[a] {
			out = append(out, VarRef{Kind: OneD, Attr: a, Value: v})
		}
	}
	for j := range s.delta {
		out = append(out, VarRef{Kind: Multi, Stat: j})
	}
	return out
}

func (s *System) refresh(attr int) {
	if !s.dirty[attr] {
		return
	}
	p := s.prefix[attr]
	p[0] = 0
	col := s.alpha[attr]
	for v, x := range col {
		p[v+1] = p[v] + x
	}
	s.dirty[attr] = false
}

func (s *System) refreshAll() {
	for a := range s.alpha {
		s.refresh(a)
	}
}

// rangeSum returns Σ_{v ∈ [lo,hi]} α_{attr,v} using the prefix cache. The
// range is clipped to the domain.
func (s *System) rangeSum(attr int, r query.Range) float64 {
	if r.Empty() {
		return 0
	}
	lo, hi := r.Lo, r.Hi
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s.alpha[attr]) {
		hi = len(s.alpha[attr]) - 1
	}
	if hi < lo {
		return 0
	}
	p := s.prefix[attr]
	return p[hi+1] - p[lo]
}

// maskedSum returns the sum of α_{attr,v} over values v that lie in the
// given range and satisfy the constraint.
func (s *System) maskedSum(attr int, r query.Range, c query.Constraint) float64 {
	switch c.Kind {
	case query.Any:
		return s.rangeSum(attr, r)
	case query.InRange:
		return s.rangeSum(attr, r.Intersect(c.Range))
	case query.InSet:
		// Values are canonical here (ascending, deduplicated, clipped to
		// the domain — getScratch guarantees it), so the scan can clip the
		// range once and stop at the first value past it instead of
		// bounds-testing every listed value for every term factor.
		col := s.alpha[attr]
		lo, hi := r.Lo, r.Hi
		if lo < 0 {
			lo = 0
		}
		if hi >= len(col) {
			hi = len(col) - 1
		}
		sum := 0.0
		for _, v := range c.Values {
			if v > hi {
				break
			}
			if v >= lo {
				sum += col[v]
			}
		}
		return sum
	default:
		return 0
	}
}

// maskedSumSC is maskedSum over the scratch's per-attribute constraint with
// every kind resolved in O(1): Any and InRange already go through the global
// prefix cache, and InSet reads a per-call masked prefix column instead of
// scanning the value list once per term factor. Columns are built lazily on
// an attribute's first masked factor (O(N_a) once per call), so queries whose
// touched terms never hit an InSet attribute pay nothing.
func (s *System) maskedSumSC(sc *evalScratch, attr int, r query.Range) float64 {
	c := sc.cons[attr]
	if c.Kind != query.InSet {
		return s.maskedSum(attr, r, c)
	}
	if !sc.mpBuilt[attr] {
		s.buildMaskedPrefix(sc, attr)
	}
	if r.Empty() {
		return 0
	}
	lo, hi := r.Lo, r.Hi
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s.alpha[attr]) {
		hi = len(s.alpha[attr]) - 1
	}
	if hi < lo {
		return 0
	}
	p := sc.mprefix[attr]
	return p[hi+1] - p[lo]
}

// buildMaskedPrefix materializes the masked prefix column of an
// InSet-constrained attribute into the pooled scratch. The set values are
// canonical (ascending, in-domain — getScratch guarantees it), so one merge
// pass accumulates the column in the same value order the direct scan sums
// in.
func (s *System) buildMaskedPrefix(sc *evalScratch, attr int) {
	col := s.alpha[attr]
	p := sc.mprefix[attr]
	if cap(p) < len(col)+1 {
		p = make([]float64, len(col)+1)
	} else {
		p = p[:len(col)+1]
	}
	vals := sc.cons[attr].Values
	p[0] = 0
	j := 0
	sum := 0.0
	for v := range col {
		if j < len(vals) && vals[j] == v {
			sum += col[v]
			j++
		}
		p[v+1] = sum
	}
	sc.mprefix[attr] = p
	sc.mpBuilt[attr] = true
}

func fullRange(n int) query.Range { return query.Range{Lo: 0, Hi: n - 1} }

// constraintFor extracts the per-attribute constraint from the predicate
// (Any when the predicate is nil).
func constraintFor(pred *query.Predicate, attr int) query.Constraint {
	if pred == nil {
		return query.AnyValue()
	}
	return pred.Constraint(attr)
}

// getScratch fills a pooled scratch with the predicate's per-attribute
// constraints (InSet value lists canonicalized once per call, not per term
// factor) and the constrained attribute set S. Callers must return it with
// putScratch.
func (s *System) getScratch(pred *query.Predicate) *evalScratch {
	sc := s.scratchPool.Get().(*evalScratch)
	sc.attrs = sc.attrs[:0]
	sc.vals = sc.vals[:0]
	for a := range sc.cons {
		c := constraintFor(pred, a)
		if c.Kind == query.InSet {
			c.Values = sc.canonValues(c.Values, len(s.alpha[a]))
		}
		sc.cons[a] = c
		sc.mpBuilt[a] = false
		if c.Kind != query.Any {
			sc.attrs = append(sc.attrs, a)
		}
	}
	return sc
}

// canonValues returns the value list sorted, deduplicated, and clipped to
// the domain [0, n). Predicates built by query.ValueSet (the JSON and
// binary decoders, WhereIn) are already sorted and deduplicated, so the
// common case only trims the out-of-domain ends; genuinely unsorted lists
// are canonicalized into the scratch's backing buffer, never by mutating
// the caller's predicate.
func (sc *evalScratch) canonValues(vals []int, n int) []int {
	canonical := true
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			canonical = false
			break
		}
	}
	if !canonical {
		start := len(sc.vals)
		sc.vals = append(sc.vals, vals...)
		seg := sc.vals[start:]
		sort.Ints(seg)
		k := 0
		for i, v := range seg {
			if i > 0 && v == seg[k-1] {
				continue
			}
			seg[k] = v
			k++
		}
		vals = seg[:k]
	}
	lo := sort.SearchInts(vals, 0)
	hi := sort.SearchInts(vals, n)
	return vals[lo:hi]
}

func (s *System) putScratch(sc *evalScratch) { s.scratchPool.Put(sc) }

// Total returns the incrementally maintained full polynomial value P in
// O(1), without flushing the prefix caches — the solver's hot-path
// accessor. Unlike Eval(nil) it does not establish the flushed-cache
// handoff required before concurrent masked evaluation.
func (s *System) Total() float64 { return s.total }

// Eval computes P with every 1D variable that does not satisfy the
// predicate's per-attribute constraint set to 0 (Sec. 4.2). A nil predicate
// returns the incrementally maintained full polynomial value P after
// flushing the prefix caches (use Total for the flush-free O(1) read).
//
// Masked evaluation is answered through the attribute→term index in
// O(terms touching the constrained attribute set S) via the mask-delta
// identity (see evalPruned) instead of walking every term; evalFullWalk
// remains the fallback for the shapes the index cannot cover.
func (s *System) Eval(pred *query.Predicate) float64 {
	if pred == nil {
		// Flush the prefix caches even though the cached total does not
		// need them: Eval(nil) is the documented way to make subsequent
		// concurrent read-only (masked) evaluation safe.
		s.refreshAll()
		return s.total
	}
	s.refreshAll()
	sc := s.getScratch(pred)
	defer s.putScratch(sc)
	if v, ok := s.evalPruned(sc); ok {
		return v
	}
	return s.evalFullWalk(sc.cons)
}

// evalFullWalk is the pre-index reference implementation of masked
// evaluation: every term re-derives its full product under the
// constraints. It is the fallback when the pruned path cannot run (more
// than 64 attributes, a zero or non-finite full-domain sum) and the oracle
// the randomized pruned-vs-naive equivalence tests compare against.
func (s *System) evalFullWalk(cons []query.Constraint) float64 {
	total := 0.0
	for _, t := range s.poly.terms {
		total += s.evalTerm(t, cons)
	}
	return total
}

// evalPruned answers masked evaluation through the attribute→term index.
//
// For a predicate constraining attribute set S, a term whose attribute set
// I is disjoint from S keeps every cached range factor except that each
// a ∈ S contributes the masked full-domain sum M_a in place of the
// unmasked full-domain sum F_a — its masked value is its cached unmasked
// value times scale = Π_{a∈S} M_a/F_a. Summing over all terms:
//
//	Eval(pred) = scale·(total − Σ_{t∈touched(S)} value(t)) + Σ_{t∈touched(S)} masked(t)
//
// with touched(S) = { t : I(t) ∩ S ≠ ∅ } = ∪_{a∈S} constrained[a], so the
// walk visits O(touched(S)) terms instead of all of them. Within the
// touched set, interval pruning skips the masked-value computation for
// terms whose bucket range on the iterated attribute provably misses an
// InRange mask (their masked value is exactly 0); their cached value is
// still subtracted, as the identity requires.
//
// The second return reports whether the pruned path was applicable; when
// false the caller must fall back to evalFullWalk.
func (s *System) evalPruned(sc *evalScratch) (float64, bool) {
	p := s.poly
	if p.attrBits == nil || !isFinite(s.total) {
		return 0, false
	}
	if len(sc.attrs) == 0 {
		// No constrained attribute: the mask is a no-op.
		return s.total, true
	}
	// Route to the full walk when the touched set covers (nearly) the whole
	// polynomial: the delta identity then pays a factor swap per constrained
	// attribute per touched term on top of the subtraction bookkeeping, while
	// the straight walk pays one m-factor pass per term with no overhead —
	// the documented all-attrs regression. touched is exact (popcount over
	// the per-attribute term bitsets, O(|S|·terms/64)), and the crossover
	//
	//	touched·(|S|+2) ≥ terms·m
	//
	// sends the all-attrs shape to the walk while keeping every selective
	// shape — even ones touching most terms through a single hot attribute —
	// on the pruned path.
	if touched := p.touchedCount(sc.attrs, sc.termBits); touched*(len(sc.attrs)+2) >= len(p.terms)*len(s.alpha) {
		return 0, false
	}
	scale := 1.0
	var sMask uint64
	for _, a := range sc.attrs {
		full := fullRange(len(s.alpha[a]))
		f := s.rangeSum(a, full)
		if f == 0 {
			return 0, false
		}
		m := s.maskedSumSC(sc, a, full)
		sc.maskedF[a] = m
		scale *= m / f
		sMask |= 1 << uint(a)
	}
	if !isFinite(scale) {
		return 0, false
	}
	total := scale * s.total
	nzs, zeros, bits := s.nz, s.zeros, p.attrBits
	for _, a := range sc.attrs {
		aBit := uint64(1) << uint(a)
		below := aBit - 1
		consA := sc.cons[a]
		var pruneRange query.Range
		prune := false
		var pruneSet []int
		switch consA.Kind {
		case query.InRange:
			prune, pruneRange = true, consA.Range
		case query.InSet:
			pruneSet = consA.Values
		}
		conR := p.conRanges[a]
		for idx, ti := range p.constrained[a] {
			i := int(ti)
			if bits[i]&sMask&below != 0 {
				// The term is also constrained on a lower attribute of S;
				// it was already processed there.
				continue
			}
			z := zeros[i]
			if z == 0 {
				total -= scale * nzs[i]
			}
			// Interval pruning: when the term's bucket range on a provably
			// misses the mask its masked value is exactly 0, so only the
			// subtraction above applies and the term is never dereferenced.
			if prune {
				if !conR[idx].Overlaps(pruneRange) {
					continue
				}
			} else if pruneSet != nil && !setIntersects(pruneSet, conR[idx]) {
				continue
			}
			val, z := s.maskedFactorSwap(i, -1, sc, nzs[i], z)
			if z == 0 {
				total += val
			}
		}
	}
	return total, true
}

// setIntersects reports whether the ascending value list has an element in
// the (non-empty, in-domain) range.
func setIntersects(vals []int, r query.Range) bool {
	j := sort.SearchInts(vals, r.Lo)
	return j < len(vals) && vals[j] <= r.Hi
}

// maskedFactorSwap replaces, in the running (value, zero-count) product
// state of term i, each constrained attribute's cached factor with its
// masked counterpart — the term-local analogue of replaceFactor, without
// writing the caches. The factor of attribute skip (pass -1 for none) is
// left untouched; derivative paths use it for the differentiated
// attribute, whose factor they remove separately.
func (s *System) maskedFactorSwap(i, skip int, sc *evalScratch, val float64, z int) (float64, int) {
	t := &s.poly.terms[i]
	fac := s.fac[i]
	k := 0
	if z == 0 {
		// Fast path: no cached factor is zero, so every fOld divides
		// cleanly and the first zero masked factor decides the term.
		for _, a := range sc.attrs {
			if a == skip {
				continue
			}
			for k < len(t.attrs) && t.attrs[k] < a {
				k++
			}
			var fNew float64
			if k < len(t.attrs) && t.attrs[k] == a {
				fNew = s.maskedSumSC(sc, a, t.ranges[k])
			} else {
				fNew = sc.maskedF[a]
			}
			if fNew == 0 {
				return 0, 1
			}
			if fOld := fac[a]; fOld != fNew {
				val = val / fOld * fNew
			}
		}
		return val, 0
	}
	for _, a := range sc.attrs {
		if a == skip {
			continue
		}
		for k < len(t.attrs) && t.attrs[k] < a {
			k++
		}
		fOld := fac[a]
		var fNew float64
		if k < len(t.attrs) && t.attrs[k] == a {
			fNew = s.maskedSumSC(sc, a, t.ranges[k])
		} else {
			fNew = sc.maskedF[a]
		}
		if fOld == fNew {
			continue
		}
		if fOld == 0 {
			z--
		} else {
			val /= fOld
		}
		if fNew == 0 {
			z++
		} else {
			val *= fNew
		}
	}
	return val, z
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// evalTerm computes one summand under the per-attribute constraints.
func (s *System) evalTerm(t term, cons []query.Constraint) float64 {
	v := 1.0
	k := 0
	for a := range s.alpha {
		var r query.Range
		if k < len(t.attrs) && t.attrs[k] == a {
			r = t.ranges[k]
			k++
		} else {
			r = fullRange(len(s.alpha[a]))
		}
		f := s.maskedSum(a, r, cons[a])
		if f == 0 {
			return 0
		}
		v *= f
	}
	for _, j := range t.stats {
		v *= s.delta[j] - 1
	}
	return v
}

// Deriv computes the partial derivative of the (masked) polynomial with
// respect to the referenced variable. Because P is multi-linear, the
// derivative is the sum over terms of the product of all other factors.
// With a nil predicate the cached term factors answer it in O(terms
// touching the variable).
func (s *System) Deriv(ref VarRef, pred *query.Predicate) float64 {
	if pred == nil {
		switch ref.Kind {
		case OneD:
			return s.derivOneDCached(ref.Attr, ref.Value)
		case Multi:
			return s.derivMultiCached(ref.Stat)
		default:
			panic(fmt.Sprintf("polynomial: unknown variable kind %d", ref.Kind))
		}
	}
	s.refreshAll()
	sc := s.getScratch(pred)
	defer s.putScratch(sc)
	switch ref.Kind {
	case OneD:
		if v, ok := s.derivOneDPruned(ref.Attr, ref.Value, sc); ok {
			return v
		}
		return s.derivOneD(ref.Attr, ref.Value, sc.cons)
	case Multi:
		if v, ok := s.derivMultiPruned(ref.Stat, sc); ok {
			return v
		}
		return s.derivMulti(ref.Stat, sc.cons)
	default:
		panic(fmt.Sprintf("polynomial: unknown variable kind %d", ref.Kind))
	}
}

// exceptFactor returns term i's product of all factors except one whose
// current value is f, read off the nz/zeros cache.
func (s *System) exceptFactor(i int, f float64) float64 {
	switch {
	case s.zeros[i] == 0:
		return s.nz[i] / f
	case s.zeros[i] == 1 && f == 0:
		return s.nz[i]
	default:
		return 0
	}
}

// derivOneDCached computes ∂P/∂α_{attr,value} from the cached factors: the
// touch and loose indexes together list exactly the terms whose effective
// range contains the value, and the derivative removes the term's attr
// factor.
func (s *System) derivOneDCached(attr, value int) float64 {
	total := 0.0
	for _, ti := range s.poly.touch[attr][value] {
		i := int(ti)
		total += s.exceptFactor(i, s.fac[i][attr])
	}
	for _, ti := range s.poly.loose[attr] {
		i := int(ti)
		total += s.exceptFactor(i, s.fac[i][attr])
	}
	return total
}

// derivMultiCached computes ∂P/∂δ_stat from the cached factors: the terms
// containing the statistic each carry a (δ_stat − 1) factor.
func (s *System) derivMultiCached(stat int) float64 {
	f := s.delta[stat] - 1
	total := 0.0
	for _, ti := range s.poly.statTerms[stat] {
		total += s.exceptFactor(int(ti), f)
	}
	return total
}

// derivOneDPruned computes ∂(masked P)/∂α_{attr,value} as a delta over the
// cached derivative structure: exactly the terms whose effective range on
// attr contains the value occur (touch[attr][value] ∪ loose[attr], the
// same set the cached unmasked derivative walks), the differentiated
// attribute's factor becomes the indicator that the value satisfies the
// mask, and within each term only the factors of the other constrained
// attributes differ from the caches. Terms disjoint from S \ {attr} reuse
// exceptFactor rescaled by Π_{a∈S\{attr}} M_a/F_a; the rest swap factors
// term-locally. The second return reports applicability, as in evalPruned.
func (s *System) derivOneDPruned(attr, value int, sc *evalScratch) (float64, bool) {
	p := s.poly
	if p.attrBits == nil {
		return 0, false
	}
	if !sc.cons[attr].Matches(value) {
		// The mask excludes the value: the variable does not occur in the
		// masked polynomial at all.
		return 0, true
	}
	if len(sc.attrs) == 0 {
		return s.derivOneDCached(attr, value), true
	}
	scaleExcl, sMask, ok := s.maskScale(sc, attr)
	if !ok {
		return 0, false
	}
	total := 0.0
	for _, ti := range p.touch[attr][value] {
		total += s.maskedExceptAttr(int(ti), attr, sc, sMask, scaleExcl)
	}
	for _, ti := range p.loose[attr] {
		total += s.maskedExceptAttr(int(ti), attr, sc, sMask, scaleExcl)
	}
	return total, true
}

// maskScale prepares a masked derivative pass: for every constrained
// attribute a except skip (the differentiated attribute; -1 for none) it
// records the masked full-domain sum M_a in sc.maskedF and returns
// Π M_a/F_a — the rescale of a term constraining none of them — with their
// bitmask. ok is false when some full-domain sum F_a is zero or the scale is
// not finite; the caller must then fall back to the full walk.
func (s *System) maskScale(sc *evalScratch, skip int) (scale float64, sMask uint64, ok bool) {
	scale = 1.0
	for _, a := range sc.attrs {
		if a == skip {
			continue
		}
		full := fullRange(len(s.alpha[a]))
		f := s.rangeSum(a, full)
		if f == 0 {
			return 0, 0, false
		}
		m := s.maskedSumSC(sc, a, full)
		sc.maskedF[a] = m
		scale *= m / f
		sMask |= 1 << uint(a)
	}
	return scale, sMask, isFinite(scale)
}

// maskedExceptAttr returns term i's masked product of all factors except
// the attribute attr's one (already known to admit the differentiated
// value). sMask/scaleExcl describe the constrained attributes minus attr.
func (s *System) maskedExceptAttr(i, attr int, sc *evalScratch, sMask uint64, scaleExcl float64) float64 {
	if s.poly.attrBits[i]&sMask == 0 {
		// The term constrains no masked attribute besides possibly attr:
		// its remaining factors are the cached ones with every a ∈ S\{attr}
		// full-domain factor F_a replaced by M_a — a pure rescale.
		return scaleExcl * s.exceptFactor(i, s.fac[i][attr])
	}
	val, z := s.nz[i], s.zeros[i]
	if f := s.fac[i][attr]; f == 0 {
		z--
	} else {
		val /= f
	}
	val, z = s.maskedFactorSwap(i, attr, sc, val, z)
	if z != 0 {
		return 0
	}
	return val
}

// DerivColumn fills out[v] = ∂P_π/∂α_{attr,v} for every value v of the
// attribute (out must hold at least N_attr entries; a nil predicate is the
// unmasked polynomial) in one pass over the terms instead of one masked
// derivative per value — by Eq. (8), n·α_v·out[v]/P is then a whole group-by
// column. The terms of loose[attr] contribute the same amount to every
// value and are summed once; each term of constrained[attr] computes its
// masked all-but-attr product once and adds it to the values of its
// effective range; values the predicate excludes on attr itself are zero.
// The cost is O(terms·|S| + Σ range lengths). Shapes the pruned path cannot
// cover fall back to one full-walk derivOneD per value, as Eval falls back
// to evalFullWalk.
func (s *System) DerivColumn(attr int, pred *query.Predicate, out []float64) {
	s.refreshAll()
	sc := s.getScratch(pred)
	defer s.putScratch(sc)
	out = out[:len(s.alpha[attr])]
	p := s.poly
	scaleExcl, sMask, ok := s.maskScale(sc, attr)
	if !ok || p.attrBits == nil {
		for v := range out {
			out[v] = s.derivOneD(attr, v, sc.cons)
		}
		return
	}
	shared := 0.0
	for _, ti := range p.loose[attr] {
		shared += s.maskedExceptAttr(int(ti), attr, sc, sMask, scaleExcl)
	}
	for v := range out {
		out[v] = 0
	}
	conR := p.conRanges[attr]
	for idx, ti := range p.constrained[attr] {
		x := s.maskedExceptAttr(int(ti), attr, sc, sMask, scaleExcl)
		for v := conR[idx].Lo; v <= conR[idx].Hi; v++ {
			out[v] += x
		}
	}
	cons := sc.cons[attr]
	for v := range out {
		if cons.Matches(v) {
			out[v] += shared
		} else {
			out[v] = 0
		}
	}
}

// derivMultiPruned computes ∂(masked P)/∂δ_stat over statTerms[stat] using
// the cached factor products: the (δ_stat − 1) factor is removed
// term-locally and only the constrained attributes' factors are swapped
// for their masked counterparts; terms disjoint from S reuse exceptFactor
// rescaled by Π_{a∈S} M_a/F_a. The second return reports applicability.
func (s *System) derivMultiPruned(stat int, sc *evalScratch) (float64, bool) {
	p := s.poly
	if p.attrBits == nil {
		return 0, false
	}
	if len(sc.attrs) == 0 {
		return s.derivMultiCached(stat), true
	}
	scale, sMask, ok := s.maskScale(sc, -1)
	if !ok {
		return 0, false
	}
	d := s.delta[stat] - 1
	total := 0.0
	for _, ti := range p.statTerms[stat] {
		i := int(ti)
		if p.attrBits[i]&sMask == 0 {
			total += scale * s.exceptFactor(i, d)
			continue
		}
		val, z := s.nz[i], s.zeros[i]
		if d == 0 {
			z--
		} else {
			val /= d
		}
		val, z = s.maskedFactorSwap(i, -1, sc, val, z)
		if z == 0 {
			total += val
		}
	}
	return total, true
}

// derivOneD is the full-walk masked derivative — the fallback for the
// shapes derivOneDPruned cannot cover and the reference implementation the
// equivalence tests compare against.
func (s *System) derivOneD(attr, value int, cons []query.Constraint) float64 {
	// If the mask excludes the value, the variable does not occur in the
	// masked polynomial at all.
	if !cons[attr].Matches(value) {
		return 0
	}
	total := 0.0
	for _, t := range s.poly.terms {
		prod := 1.0
		k := 0
		skip := false
		for a := range s.alpha {
			var r query.Range
			if k < len(t.attrs) && t.attrs[k] == a {
				r = t.ranges[k]
				k++
			} else {
				r = fullRange(len(s.alpha[a]))
			}
			if a == attr {
				// The factor for the differentiated attribute becomes the
				// indicator that the value lies in the term's range.
				if !r.Contains(value) {
					skip = true
					break
				}
				continue
			}
			f := s.maskedSum(a, r, cons[a])
			if f == 0 {
				skip = true
				break
			}
			prod *= f
		}
		if skip {
			continue
		}
		for _, j := range t.stats {
			prod *= s.delta[j] - 1
		}
		total += prod
	}
	return total
}

// derivMulti is the full-walk masked statistic derivative — the fallback
// for the shapes derivMultiPruned cannot cover and the reference
// implementation the equivalence tests compare against.
func (s *System) derivMulti(stat int, cons []query.Constraint) float64 {
	total := 0.0
	for _, ti := range s.poly.statTerms[stat] {
		t := s.poly.terms[ti]
		prod := 1.0
		k := 0
		skip := false
		for a := range s.alpha {
			var r query.Range
			if k < len(t.attrs) && t.attrs[k] == a {
				r = t.ranges[k]
				k++
			} else {
				r = fullRange(len(s.alpha[a]))
			}
			f := s.maskedSum(a, r, cons[a])
			if f == 0 {
				skip = true
				break
			}
			prod *= f
		}
		if skip {
			continue
		}
		for _, j := range t.stats {
			if j == stat {
				continue
			}
			prod *= s.delta[j] - 1
		}
		total += prod
	}
	return total
}

// Expectation returns E[⟨c,I⟩] = n · x · ∂P/∂x / P for the statistic whose
// variable is ref (Eq. (8)), given the relation cardinality n and the
// current full polynomial value p (p must equal Eval(nil)).
func (s *System) Expectation(ref VarRef, n, p float64) float64 {
	if p == 0 {
		return 0
	}
	return n * s.Get(ref) * s.Deriv(ref, nil) / p
}

// TupleWeight returns the monomial value of a single encoded tuple under the
// current variable assignment: Π_i α_{i,t_i} · Π_{j: t ⊨ stat_j} δ_j. The
// tuple probability is TupleWeight(t) / Eval(nil).
func (s *System) TupleWeight(tuple []int) float64 {
	w := 1.0
	for a, v := range tuple {
		w *= s.alpha[a][v]
	}
	for j, spec := range s.poly.specs {
		if specMatches(spec, tuple) {
			w *= s.delta[j]
		}
	}
	return w
}

func specMatches(spec MultiStatSpec, tuple []int) bool {
	for k, a := range spec.Attrs {
		if !spec.Ranges[k].Contains(tuple[a]) {
			return false
		}
	}
	return true
}
