package polynomial

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

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
// polynomial value Eval(nil) and the unmasked derivatives Deriv(·)
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
	// value is nz[i] when zeros[i] == 0 and 0 otherwise; fac[i·m+a] is the
	// current value of the attribute-a factor, laid out like the polynomial's
	// range table. total is Σ_i value(i) = P.
	fac     []float64
	nz      []float64
	zeros   []int
	total   float64
	updates int // SetVar count since the last full rebuild

	// sums holds the per-attribute-set partial sums of the term caches that
	// masked reads rescale instead of visiting the terms. The first masked
	// read after a write builds and publishes what it needs; every write
	// drops the lot into spare, whose buffers the next build overwrites —
	// the solver reads a column after every column write, so its sweeps
	// allocate nothing. Eval(nil), Total and the unmasked Deriv never build
	// them.
	sums  atomic.Pointer[partialSums]
	spare atomic.Pointer[partialSums]

	// scratchPool recycles the per-call scratch of masked Eval/Deriv so
	// the hot path is allocation-free yet still safe for concurrent
	// read-only use.
	scratchPool sync.Pool
}

// partialSums are the sums over the terms of one attribute set
// (Compressed.attrSets) that masked reads are answered from. The two halves
// are built independently, each by the first read that needs it, and
// published atomically so that concurrent first readers stay race-free; the
// builds are deterministic, so it does not matter whose copy wins.
type partialSums struct {
	// set[k] = Σ value(t) over the terms of attribute set k: what Eval
	// rescales for the sets a mask does not reach.
	set atomic.Pointer[[]float64]
	// cols[a] splits the unmasked derivative column of attribute a by
	// attribute set: what DerivColumn(a, ·) rescales.
	cols []atomic.Pointer[setColumns]
	// spare[a] holds the columns of attribute a as an earlier write left
	// them, taken (atomically, so one builder owns it) and overwritten by the
	// next build of cols[a].
	spare []atomic.Pointer[setColumns]
}

// setColumns is one attribute's unmasked derivative column ∂P/∂α_{a,·}
// split by attribute set. For a set k that contains a, col[k][v] sums the
// all-but-a products of the set's terms whose range on a holds v; for a set
// that does not, every value receives the same loose[k] = Σ all-but-a
// products and col[k] is nil. Memory: Σ_{k ∋ a} N_a floats.
type setColumns struct {
	col   [][]float64
	loose []float64
}

// publish installs v unless another reader got there first and returns the
// installed value.
func publish[T any](p *atomic.Pointer[T], v *T) *T {
	if p.CompareAndSwap(nil, v) {
		return v
	}
	if cur := p.Load(); cur != nil {
		return cur
	}
	return v
}

// evalScratch is the pooled per-call state of the masked Eval/Deriv paths:
// the per-attribute constraint snapshot, the constrained attribute set S,
// each mask in the one form the pruned paths read it in, the candidate
// terms, and a backing buffer for canonicalizing InSet value lists that
// arrive unsorted.
type evalScratch struct {
	cons  []query.Constraint
	attrs []int // constrained attribute indexes, ascending
	// The mask on attribute a as a hull and a prefix column: lo[a]..hi[a] is
	// the hull of the in-domain values the constraint admits (the whole
	// domain for Any) and pre[a][v] the sum of the admitted α_{a,u}, u < v
	// (len N_a+1), so a masked factor sum is one clipped difference whatever
	// the constraint kind — see masked. pre[a] is the system's own prefix
	// cache for Any and InRange, and for InSet a per-call column in mprefix[a],
	// whose backing arrays persist in the pool across calls. void marks a
	// mask that admits no value on some attribute: the masked polynomial is
	// then identically zero.
	lo, hi  []int
	pre     [][]float64
	mprefix [][]float64
	void    bool
	vals    []int   // backing storage for canonicalized InSet values
	cand    []int32 // the candidate terms of the current call
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
	s.fac = make([]float64, poly.NumTerms()*m)
	s.nz = make([]float64, poly.NumTerms())
	s.zeros = make([]int, poly.NumTerms())
	s.scratchPool.New = func() any {
		return &evalScratch{
			cons:    make([]query.Constraint, m),
			attrs:   make([]int, 0, m),
			lo:      make([]int, m),
			hi:      make([]int, m),
			pre:     make([][]float64, m),
			mprefix: make([][]float64, m),
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
	s.dropSums()
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
	s.dropSums()
	for _, ti := range s.poly.statTerms[stat] {
		s.replaceFactor(int(ti), old-1, x-1)
	}
	s.noteUpdate()
}

// SetOneDColumn assigns every α_{attr,·} at once (len(vals) must be N_attr):
// one pass over the terms rewrites each term's attribute-attr factor from
// the new prefix sums, the factor the full rebuild computes, where N_attr
// SetOneD calls would visit the terms not constraining attr once per value.
// It is the solver's write-back of one attribute block.
func (s *System) SetOneDColumn(attr int, vals []float64) {
	if len(vals) != len(s.alpha[attr]) {
		panic(fmt.Sprintf("polynomial: SetOneDColumn(%d) given %d values, domain has %d", attr, len(vals), len(s.alpha[attr])))
	}
	copy(s.alpha[attr], vals)
	s.dirty[attr] = true
	s.refresh(attr)
	s.dropSums()
	pre, m, p := s.prefix[attr], len(s.alpha), s.total
	for i := range s.nz {
		k := i*m + attr
		r := s.poly.ranges[k]
		if nf, old := pre[r.hi+1]-pre[r.lo], s.fac[k]; nf != old {
			s.fac[k] = nf
			p, s.nz[i], s.zeros[i] = swapFactor(p, s.nz[i], s.zeros[i], old, nf)
		}
	}
	s.total = p
	s.noteUpdate()
}

// shiftFactor adds dx to term i's attribute-attr range-sum factor.
func (s *System) shiftFactor(i, attr int, dx float64) {
	k := i*len(s.alpha) + attr
	old := s.fac[k]
	nf := old + dx
	s.fac[k] = nf
	s.replaceFactor(i, old, nf)
}

// dropSums discards the partial sums after a write to the term caches,
// keeping them as the spare the next build recycles. Writes never run beside
// reads, so no reader still holds them. The load keeps a write that follows
// no masked read off the atomic stores.
func (s *System) dropSums() {
	if ps := s.sums.Load(); ps != nil {
		s.sums.Store(nil)
		s.spare.Store(ps)
	}
}

// replaceFactor swaps one factor of term i from value old to value nf,
// updating nz/zeros and the running total.
func (s *System) replaceFactor(i int, old, nf float64) {
	s.total, s.nz[i], s.zeros[i] = swapFactor(s.total, s.nz[i], s.zeros[i], old, nf)
}

// swapFactor swaps one factor of a term — nz its product of non-zero
// factors, zeros its count of zero factors — from value old to value nf and
// moves the running total p by the change in the term's value. It returns
// the updated p, nz and zeros.
func swapFactor(p, nz float64, zeros int, old, nf float64) (float64, float64, int) {
	if zeros == 0 {
		p -= nz
	}
	if old == 0 {
		zeros--
	} else {
		nz /= old
	}
	if nf == 0 {
		zeros++
	} else {
		nz *= nf
	}
	if zeros == 0 {
		p += nz
	}
	return p, nz, zeros
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
	s.dropSums()
	p := s.poly
	total := 0.0
	k := 0
	for i, stats := range p.stats {
		nz, zeros := 1.0, 0
		for _, pre := range s.prefix {
			v := pre[p.ranges[k].hi+1] - pre[p.ranges[k].lo]
			s.fac[k] = v
			k++
			if v == 0 {
				zeros++
			} else {
				nz *= v
			}
		}
		for _, j := range stats {
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
// evaluation. The solver calls it before each full convergence check, so the
// violation it reports is judged on drift-free caches.
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

// masked returns the sum of α_{attr,v} over the values of [lo, hi] the
// scratch's constraint on attr admits, in O(1) for every constraint kind: the
// range is clipped to the mask's hull and read off the mask's prefix column.
func (sc *evalScratch) masked(attr, lo, hi int) float64 {
	lo, hi = max(lo, sc.lo[attr]), min(hi, sc.hi[attr])
	if hi < lo {
		return 0
	}
	pre := sc.pre[attr]
	return pre[hi+1] - pre[lo]
}

// maskedPrefix materializes the masked prefix column of an InSet-constrained
// attribute into the pooled scratch. The set values are canonical
// (ascending, in-domain — getScratch guarantees it), so one merge pass
// accumulates the column in the same value order the direct scan sums in.
func (s *System) maskedPrefix(sc *evalScratch, attr int, vals []int) []float64 {
	col := s.alpha[attr]
	p := sc.mprefix[attr]
	if cap(p) < len(col)+1 {
		p = make([]float64, len(col)+1)
		sc.mprefix[attr] = p
	}
	p = p[:len(col)+1]
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
	return p
}

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
// factor), the constrained attribute set S, and the hull and prefix column
// of each mask. The prefix caches must be fresh. Callers must return it with
// putScratch.
func (s *System) getScratch(pred *query.Predicate) *evalScratch {
	sc := s.scratchPool.Get().(*evalScratch)
	sc.attrs = sc.attrs[:0]
	sc.vals = sc.vals[:0]
	sc.void = false
	for a := range sc.cons {
		c := constraintFor(pred, a)
		n := len(s.alpha[a])
		lo, hi, pre := 0, n-1, s.prefix[a]
		switch c.Kind {
		case query.Any:
		case query.InRange:
			lo, hi = max(c.Range.Lo, 0), min(c.Range.Hi, n-1)
		case query.InSet:
			c.Values = sc.canonValues(c.Values, n)
			lo, hi = n, -1
			if k := len(c.Values); k > 0 {
				lo, hi = c.Values[0], c.Values[k-1]
				pre = s.maskedPrefix(sc, a, c.Values)
			}
		default:
			lo, hi = n, -1
		}
		sc.cons[a] = c
		sc.lo[a], sc.hi[a], sc.pre[a] = lo, hi, pre
		if c.Kind != query.Any {
			sc.attrs = append(sc.attrs, a)
			sc.void = sc.void || lo > hi
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
// Masked evaluation costs the terms that can survive the mask (see
// evalPruned) instead of walking every term; evalFullWalk remains the
// fallback for the shapes the index cannot cover.
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
// the randomized equivalence tests compare against.
func (s *System) evalFullWalk(cons []query.Constraint) float64 {
	total := 0.0
	for i := range s.nz {
		total += s.evalTerm(i, cons)
	}
	return total
}

// evalPruned answers masked evaluation from the partial sums and the
// candidate lists.
//
// For a predicate constraining attribute set S, a term whose attribute set
// I is disjoint from S keeps every cached range factor except that each
// a ∈ S contributes the masked full-domain sum M_a in place of the
// unmasked full-domain sum F_a — its masked value is its cached unmasked
// value times scale = Π_{a∈S} M_a/F_a, and all the terms of an attribute
// set share that fate. A term with I ∩ S ≠ ∅ survives only if its range
// overlaps the mask on every attribute of I ∩ S, so it is among the
// candidates of its lowest such attribute:
//
//	Eval(pred) = scale·Σ_{k: attrSets[k]∩S=∅} set[k] + Σ_{t∈candidates(S)} masked(t)
//
// a sum of disjoint parts that visits only the candidates.
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
	if sc.void {
		return 0, true
	}
	scale, sMask, ok := s.maskScale(sc, -1)
	if !ok {
		return 0, false
	}
	total := 0.0
	set := s.setSums()
	for k, bits := range p.attrSets {
		if bits&sMask == 0 {
			total += set[k]
		}
	}
	total *= scale
	for _, ti := range s.candidates(sc, -1) {
		i := int(ti)
		if val, z := s.maskedFactorSwap(i, -1, sc, s.nz[i], s.zeros[i]); z == 0 {
			total += val
		}
	}
	return total, true
}

// setSums returns the per-attribute-set sums of the cached term values,
// building and publishing them on the first masked Eval after a write: one
// pass of one addition per term.
func (s *System) setSums() []float64 {
	ps := s.partials()
	if set := ps.set.Load(); set != nil {
		return *set
	}
	set := make([]float64, len(s.poly.attrSets))
	for i, k := range s.poly.termSet {
		if s.zeros[i] == 0 {
			set[k] += s.nz[i]
		}
	}
	return *publish(&ps.set, &set)
}

// partials returns the holder of the partial sums, installing an empty one
// on the first masked read after a write: the spare a write left, its built
// columns moved to their spare slots, or a new one when a concurrent first
// reader took the spare.
func (s *System) partials() *partialSums {
	if ps := s.sums.Load(); ps != nil {
		return ps
	}
	ps := s.spare.Swap(nil)
	if ps == nil {
		m := len(s.alpha)
		ps = &partialSums{cols: make([]atomic.Pointer[setColumns], m), spare: make([]atomic.Pointer[setColumns], m)}
	} else {
		ps.set.Store(nil)
		for a := range ps.cols {
			if c := ps.cols[a].Swap(nil); c != nil {
				ps.spare[a].Store(c)
			}
		}
	}
	return publish(&s.sums, ps)
}

// candidates collects into the scratch the terms that can survive the mask
// on the constrained attributes other than skip (pass -1 for none): for each
// such attribute a, in ascending order, the terms constraining a whose range
// overlaps the hull of its mask — those covering the hull's low end plus
// those beginning inside it — that constrain no lower attribute of the
// set, where they were already listed or ruled out. The result has no
// duplicate, holds every term of I ∩ S ≠ ∅ whose masked value is non-zero,
// and is at most Σ_a |starts[a]| long. The mask must not be void.
func (s *System) candidates(sc *evalScratch, skip int) []int32 {
	p := s.poly
	cand := sc.cand[:0]
	var seen uint64
	for _, a := range sc.attrs {
		if a == skip {
			continue
		}
		lo, hi := sc.lo[a], sc.hi[a]
		for _, ti := range p.touch[a][lo] {
			if p.attrBits[ti]&seen == 0 {
				cand = append(cand, ti)
			}
		}
		for _, ti := range p.starts[a][p.startOff[a][lo+1]:p.startOff[a][hi+1]] {
			if p.attrBits[ti]&seen == 0 {
				cand = append(cand, ti)
			}
		}
		seen |= 1 << uint(a)
	}
	sc.cand = cand
	return cand
}

// maskedFactorSwap replaces, in the running (value, zero-count) product
// state of term i, each constrained attribute's cached factor with its
// masked counterpart — the term-local analogue of replaceFactor, without
// writing the caches. The factor of attribute skip (pass -1 for none) is
// left untouched; derivative paths use it for the differentiated
// attribute, whose factor they remove separately.
func (s *System) maskedFactorSwap(i, skip int, sc *evalScratch, val float64, z int) (float64, int) {
	row := i * len(s.alpha)
	ranges, fac := s.poly.ranges[row:row+len(s.alpha)], s.fac[row:row+len(s.alpha)]
	if z == 0 {
		// Fast path: no cached factor is zero, so every fOld divides
		// cleanly and the first zero masked factor decides the term.
		for _, a := range sc.attrs {
			if a == skip {
				continue
			}
			fNew := sc.masked(a, int(ranges[a].lo), int(ranges[a].hi))
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
		fOld := fac[a]
		fNew := sc.masked(a, int(ranges[a].lo), int(ranges[a].hi))
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
func (s *System) evalTerm(i int, cons []query.Constraint) float64 {
	v := 1.0
	row := i * len(s.alpha)
	for a := range s.alpha {
		f := s.maskedSum(a, s.poly.rangeAt(row+a), cons[a])
		if f == 0 {
			return 0
		}
		v *= f
	}
	for _, j := range s.poly.stats[i] {
		v *= s.delta[j] - 1
	}
	return v
}

// Deriv computes the partial derivative of the polynomial with respect to
// the referenced variable. Because P is multi-linear, the derivative is the
// sum over terms of the product of all other factors, which the cached term
// factors answer in O(terms touching the variable). The masked derivative
// has one reader, the group-by column: see DerivColumn.
func (s *System) Deriv(ref VarRef) float64 {
	switch ref.Kind {
	case OneD:
		return s.derivOneDCached(ref.Attr, ref.Value)
	case Multi:
		return s.derivMultiCached(ref.Stat)
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
	m := len(s.alpha)
	for _, ti := range s.poly.touch[attr][value] {
		i := int(ti)
		total += s.exceptFactor(i, s.fac[i*m+attr])
	}
	for _, ti := range s.poly.loose[attr] {
		i := int(ti)
		total += s.exceptFactor(i, s.fac[i*m+attr])
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

// maskScale prepares a masked pass: over the constrained attributes except
// skip (the differentiated attribute; -1 for none) it returns Π M_a/F_a —
// the rescale of a term constraining none of them, M_a being the masked and
// F_a the unmasked full-domain sum — with their bitmask. ok is false when
// some full-domain sum F_a is zero or the scale is not finite; the caller
// must then fall back to the full walk.
func (s *System) maskScale(sc *evalScratch, skip int) (scale float64, sMask uint64, ok bool) {
	scale = 1.0
	for _, a := range sc.attrs {
		if a == skip {
			continue
		}
		n := len(s.alpha[a])
		f := s.prefix[a][n]
		if f == 0 {
			return 0, 0, false
		}
		scale *= sc.masked(a, 0, n-1) / f
		sMask |= 1 << uint(a)
	}
	return scale, sMask, isFinite(scale)
}

// maskedExceptAttr returns term i's masked product of all factors except
// the attribute attr's one (already known to admit the differentiated
// value). sMask/scaleExcl describe the constrained attributes minus attr.
func (s *System) maskedExceptAttr(i, attr int, sc *evalScratch, sMask uint64, scaleExcl float64) float64 {
	f := s.fac[i*len(s.alpha)+attr]
	if s.poly.attrBits[i]&sMask == 0 {
		// The term constrains no masked attribute besides possibly attr:
		// its remaining factors are the cached ones with every a ∈ S\{attr}
		// full-domain factor F_a replaced by M_a — a pure rescale.
		return scaleExcl * s.exceptFactor(i, f)
	}
	val, z := s.nz[i], s.zeros[i]
	if f == 0 {
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
// unmasked polynomial) without visiting the terms the mask only rescales —
// by Eq. (8), n·α_v·out[v]/P is then a whole group-by column. With S' the
// constrained attributes other than attr,
//
//	out[v] = scaleExcl·Σ_{k: attrSets[k]∩S'=∅} (col[k][v] + loose[k]) + Σ_{t∈candidates(S'), v∈ρ_attr(t)} maskedExceptAttr(t)
//
// where col/loose is the attribute's unmasked column split by attribute set
// (setColumns, built by the first column read of attr after a write) and
// each candidate's masked all-but-attr product is computed once and added
// to the values of its range on attr; values the predicate excludes on attr
// itself are zero. Every cell is a sum of disjoint parts — nothing is
// subtracted. The cost is O(|sets|·N_attr + candidates·|S'| + their range
// lengths). Shapes the pruned path cannot cover fall back to one full-walk
// derivOneD per value, as Eval falls back to evalFullWalk.
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
	clear(out)
	if sc.void {
		return
	}
	// The sets the mask does not reach: their stored columns, rescaled.
	cols := s.setColumns(attr)
	rescaled := 0.0
	for k, bits := range p.attrSets {
		if bits&sMask != 0 {
			continue
		}
		if col := cols.col[k]; col != nil {
			for v, x := range col {
				out[v] += x
			}
		} else {
			rescaled += cols.loose[k]
		}
	}
	for v := range out {
		out[v] = scaleExcl * (out[v] + rescaled)
	}
	// The candidates: each one's product goes to the values of its range on
	// attr, or to every value when it does not constrain attr.
	everywhere := 0.0
	m, aBit := len(s.alpha), uint64(1)<<uint(attr)
	for _, ti := range s.candidates(sc, attr) {
		i := int(ti)
		x := s.maskedExceptAttr(i, attr, sc, sMask, scaleExcl)
		if p.attrBits[i]&aBit == 0 {
			everywhere += x
			continue
		}
		r := p.ranges[i*m+attr]
		for v := r.lo; v <= r.hi; v++ {
			out[v] += x
		}
	}
	cons := sc.cons[attr]
	for v := range out {
		if cons.Matches(v) {
			out[v] += everywhere
		} else {
			out[v] = 0
		}
	}
}

// setColumns returns the attribute's unmasked derivative column split by
// attribute set, building and publishing it on the first column read of the
// attribute after a write: one pass over the terms, the cost of the
// unmasked column itself, into the spare buffers when a write left some.
func (s *System) setColumns(attr int) *setColumns {
	ps := s.partials()
	if c := ps.cols[attr].Load(); c != nil {
		return c
	}
	p := s.poly
	c := ps.spare[attr].Swap(nil)
	if c != nil {
		for _, col := range c.col {
			clear(col)
		}
		clear(c.loose)
	} else {
		c = &setColumns{col: make([][]float64, len(p.attrSets)), loose: make([]float64, len(p.attrSets))}
		aBit := uint64(1) << uint(attr)
		for k, bits := range p.attrSets {
			if bits&aBit != 0 {
				c.col[k] = make([]float64, len(s.alpha[attr]))
			}
		}
	}
	m := len(s.alpha)
	for i, k := range p.termSet {
		x := s.exceptFactor(i, s.fac[i*m+attr])
		col := c.col[k]
		if col == nil {
			c.loose[k] += x
			continue
		}
		r := p.ranges[i*m+attr]
		for v := r.lo; v <= r.hi; v++ {
			col[v] += x
		}
	}
	return publish(&ps.cols[attr], c)
}

// derivOneD is the full-walk masked derivative — DerivColumn's fallback for
// the shapes its pruned pass cannot cover and the reference implementation
// the equivalence tests compare against.
func (s *System) derivOneD(attr, value int, cons []query.Constraint) float64 {
	// If the mask excludes the value, the variable does not occur in the
	// masked polynomial at all.
	if !cons[attr].Matches(value) {
		return 0
	}
	total := 0.0
	m := len(s.alpha)
	for i, stats := range s.poly.stats {
		prod := 1.0
		skip := false
		for a := range s.alpha {
			r := s.poly.rangeAt(i*m + a)
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
		for _, j := range stats {
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
	return n * s.Get(ref) * s.Deriv(ref) / p
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
