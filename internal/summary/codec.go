// Binary codec for solved summaries: the serialization half of the
// snapshot store (internal/store). A solved summary is fully determined by
// its schema, the statistic set Φ it was fit to, and the converged variable
// weights (α, δ) of the polynomial — the polynomial structure itself is a
// deterministic function of the statistics, so it is not stored: decode
// takes the one a resident model of the same structure already holds
// (polynomial.Shared; consecutive generations share one, since a refresh
// keeps the structure), and builds it only when the process holds none.
// Decoding therefore reconstructs a query-ready estimator without
// re-running the solver: the weights are restored bit-exactly (IEEE 754
// bits are written verbatim) and the term caches are recomputed with the
// same deterministic full rebuild the solver's last sweep used, so a
// decoded summary answers every query bit-identically to the freshly-built
// one it was encoded from, whether its structure was shared or built.
//
// The payload is a little-endian stream of uvarints, length-prefixed
// strings, and raw float64 bits. It carries no header or checksum of its
// own — framing, format versioning, and integrity are the store's job.

package summary

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"time"

	"repro/internal/core"
	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/stats"
)

// Estimator kind tags, the first byte of every encoded estimator. Tag 2
// (K per-partition summaries) is retired: stores written by earlier builds
// may still hold such files, so PeekName describes them (listing, pruning
// and replica sync keep working) while DecodeEstimator refuses them.
const (
	kindSummary = 1
	kindRetired = 2
)

// Sanity caps on decoded counts, so a corrupted length prefix fails with a
// descriptive error instead of attempting a multi-gigabyte allocation.
const (
	maxAttrs     = 1 << 12
	maxDomain    = 1 << 22
	maxMulti     = 1 << 20
	maxStringLen = 1 << 16
)

// ErrNotSnapshotable is reported by EncodeEstimator for estimator kinds
// that answer from data rather than from a solved model: serializing them
// would mean serializing (part of) the relation itself.
var ErrNotSnapshotable = errors.New("estimator is not snapshot-able")

// EncodeEstimator writes the snapshot payload of a solved estimator. Only
// the model-based estimator is snapshot-able: a *Summary answers queries
// from solved weights alone, while the exact engine and the sampling
// baselines would have to serialize (part of) the data itself.
func EncodeEstimator(w io.Writer, est core.Estimator) error {
	s, ok := est.(*Summary)
	if !ok {
		return fmt.Errorf("summary: estimator %q (%T): %w", est.Name(), est, ErrNotSnapshotable)
	}
	ew := newEncoder(w)
	ew.byte(kindSummary)
	s.encode(ew)
	return ew.flush()
}

// DecodeEstimator reads a snapshot payload written by EncodeEstimator and
// reconstructs the estimator, query-ready, without re-solving.
func DecodeEstimator(r io.Reader) (core.Estimator, error) {
	dr := newDecoder(r)
	kind := dr.byte()
	if dr.err != nil {
		return nil, fmt.Errorf("summary: decode: %w", dr.err)
	}
	switch kind {
	case kindSummary:
		s, err := decodeSummary(dr)
		if err != nil {
			return nil, err
		}
		return s, nil
	case kindRetired:
		return nil, errors.New("summary: decode: partitioned snapshots are no longer served; prune the key or rebuild")
	default:
		return nil, fmt.Errorf("summary: decode: unknown estimator kind %d", kind)
	}
}

// PeekName reads just the estimator kind tag and name from the head of a
// snapshot payload, without reconstructing the model — the store uses it
// to describe the snapshot files it finds on disk.
// Every estimator kind, the retired one included, serializes its name
// first, so this prefix is stable across the payload layouts.
func PeekName(r io.Reader) (string, error) {
	dr := newDecoder(r)
	kind := dr.byte()
	name := dr.str()
	if dr.err != nil {
		return "", fmt.Errorf("summary: peek: %w", dr.err)
	}
	if kind != kindSummary && kind != kindRetired {
		return "", fmt.Errorf("summary: peek: unknown estimator kind %d", kind)
	}
	return name, nil
}

// --- Summary ----------------------------------------------------------

func (s *Summary) encode(w *encoder) {
	w.str(s.name)
	encodeSchema(w, s.sch)
	w.f64(s.n)
	w.uvarint(uint64(s.maxCombos))

	// Statistic set Φ.
	w.uvarint(uint64(s.set.N))
	for _, col := range s.set.OneD {
		w.uvarint(uint64(len(col)))
		for _, x := range col {
			w.f64(x)
		}
	}
	w.uvarint(uint64(len(s.set.Multi)))
	for _, st := range s.set.Multi {
		w.uvarint(uint64(len(st.Attrs)))
		for k, a := range st.Attrs {
			w.uvarint(uint64(a))
			w.uvarint(uint64(st.Ranges[k].Lo))
			w.uvarint(uint64(st.Ranges[k].Hi))
		}
		w.f64(st.Count)
	}

	// Chosen pairs (reporting metadata).
	w.uvarint(uint64(len(s.pairs)))
	for _, pc := range s.pairs {
		w.uvarint(uint64(pc.A1))
		w.uvarint(uint64(pc.A2))
		w.f64(pc.Chi2)
		w.f64(pc.V)
	}

	// Solver report.
	w.uvarint(uint64(s.report.Sweeps))
	w.f64(s.report.MaxViolation)
	w.bool(s.report.Converged)
	// The solve's wall-clock time is not part of the model: writing it would
	// make the same model encode to a different length and checksum on every
	// build. The slot stays (as 0) so the wire layout is unchanged.
	w.uvarint(0)
	w.uvarint(uint64(s.report.Constraints))

	// Converged variable weights, raw IEEE 754 bits.
	for a := 0; a < s.sch.NumAttrs(); a++ {
		for v := 0; v < s.sch.Attr(a).Size(); v++ {
			w.f64(s.sys.OneD(a, v))
		}
	}
	for j := 0; j < len(s.set.Multi); j++ {
		w.f64(s.sys.MultiVar(j))
	}
}

func decodeSummary(r *decoder) (*Summary, error) {
	fail := func(err error) (*Summary, error) {
		return nil, fmt.Errorf("summary: decode: %w", err)
	}

	name := r.str()
	sch, err := decodeSchema(r)
	if err != nil {
		return fail(err)
	}
	n := r.f64()
	maxCombos := int(r.uvarint(1 << 32))
	if r.err != nil {
		return fail(r.err)
	}
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return fail(fmt.Errorf("invalid cardinality %g", n))
	}
	if maxCombos <= 0 {
		return fail(fmt.Errorf("invalid group-by combination bound %d", maxCombos))
	}

	set := &stats.Set{
		N:           int(r.uvarint(1 << 40)),
		DomainSizes: sch.DomainSizes(),
		OneD:        make([][]float64, sch.NumAttrs()),
	}
	for a := range set.OneD {
		ln := int(r.uvarint(maxDomain))
		if r.err != nil {
			return fail(r.err)
		}
		if ln != sch.Attr(a).Size() {
			return fail(fmt.Errorf("attribute %d: %d 1D statistics for a domain of size %d", a, ln, sch.Attr(a).Size()))
		}
		col := make([]float64, ln)
		for v := range col {
			col[v] = r.f64()
		}
		set.OneD[a] = col
	}
	numMulti := int(r.uvarint(maxMulti))
	if r.err != nil {
		return fail(r.err)
	}
	multi := make([]stats.Statistic, 0, numMulti)
	for j := 0; j < numMulti; j++ {
		nAttrs := int(r.uvarint(maxAttrs))
		if r.err != nil {
			return fail(r.err)
		}
		st := stats.Statistic{
			Attrs:  make([]int, nAttrs),
			Ranges: make([]query.Range, nAttrs),
		}
		for k := range st.Attrs {
			st.Attrs[k] = int(r.uvarint(maxAttrs))
			st.Ranges[k].Lo = int(r.uvarint(maxDomain))
			st.Ranges[k].Hi = int(r.uvarint(maxDomain))
		}
		st.Count = r.f64()
		if r.err != nil {
			return fail(r.err)
		}
		multi = append(multi, st)
	}
	// AddMulti re-validates attribute order, domain bounds, and pairwise
	// disjointness, so a corrupted statistic cannot slip into the model.
	if err := set.AddMulti(multi...); err != nil {
		return fail(err)
	}

	numPairs := int(r.uvarint(maxAttrs * maxAttrs))
	if r.err != nil {
		return fail(r.err)
	}
	pairs := make([]stats.PairCorrelation, numPairs)
	for i := range pairs {
		pairs[i].A1 = int(r.uvarint(maxAttrs))
		pairs[i].A2 = int(r.uvarint(maxAttrs))
		pairs[i].Chi2 = r.f64()
		pairs[i].V = r.f64()
	}

	var report solver.Report
	report.Sweeps = int(r.uvarint(1 << 32))
	report.MaxViolation = r.f64()
	report.Converged = r.bool()
	report.Duration = time.Duration(r.uvarint(math.MaxInt64))
	report.Constraints = int(r.uvarint(1 << 32))

	alpha := make([][]float64, sch.NumAttrs())
	for a := range alpha {
		col := make([]float64, sch.Attr(a).Size())
		for v := range col {
			col[v] = r.f64()
		}
		alpha[a] = col
	}
	delta := make([]float64, len(set.Multi))
	for j := range delta {
		delta[j] = r.f64()
	}
	if r.err != nil {
		return fail(r.err)
	}

	// The polynomial structure is a deterministic function of the specs:
	// take the one a resident model of the same structure holds, or build
	// it, and restore the solved weights over it.
	comp, err := polynomial.Shared(set.DomainSizes, set.MultiSpecs())
	if err != nil {
		return fail(err)
	}
	// NewSystemFrom's single full rebuild recomputes the cached P with
	// exactly the summation order the solver's final sweep used, so the
	// normalization constant — and with it every answer — matches the fresh
	// build bit-for-bit.
	sys, err := polynomial.NewSystemFrom(comp, alpha, delta)
	if err != nil {
		return fail(err)
	}
	p := sys.Eval(nil)
	if degenerate(p) {
		return fail(fmt.Errorf("restored polynomial evaluates to %g; snapshot is degenerate", p))
	}

	return &Summary{
		name:        name,
		sch:         sch,
		n:           n,
		set:         set,
		sys:         sys,
		constraints: constraintsOf(set),
		pairs:       pairs,
		report:      report,
		p:           p,
		maxCombos:   maxCombos,
	}, nil
}

// --- schema -----------------------------------------------------------

const (
	schemaKindCategorical = 0
	schemaKindBinned      = 1
)

func encodeSchema(w *encoder, sch *schema.Schema) {
	w.uvarint(uint64(sch.NumAttrs()))
	for i := 0; i < sch.NumAttrs(); i++ {
		a := sch.Attr(i)
		w.str(a.Name())
		switch a.Kind() {
		case schema.Categorical:
			w.byte(schemaKindCategorical)
			w.uvarint(uint64(a.Size()))
			for v := 0; v < a.Size(); v++ {
				w.str(a.Label(v))
			}
		case schema.Binned:
			w.byte(schemaKindBinned)
			lo, hi := a.Bounds()
			w.f64(lo)
			w.f64(hi)
			w.uvarint(uint64(a.Size()))
		}
	}
}

func decodeSchema(r *decoder) (*schema.Schema, error) {
	numAttrs := int(r.uvarint(maxAttrs))
	if r.err != nil {
		return nil, r.err
	}
	attrs := make([]schema.Attribute, 0, numAttrs)
	for i := 0; i < numAttrs; i++ {
		name := r.str()
		kind := r.byte()
		if r.err != nil {
			return nil, r.err
		}
		switch kind {
		case schemaKindCategorical:
			nLabels := int(r.uvarint(maxDomain))
			if r.err != nil {
				return nil, r.err
			}
			labels := make([]string, nLabels)
			for v := range labels {
				labels[v] = r.str()
			}
			if r.err != nil {
				return nil, r.err
			}
			a, err := schema.NewCategorical(name, labels)
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, a)
		case schemaKindBinned:
			lo := r.f64()
			hi := r.f64()
			bins := int(r.uvarint(maxDomain))
			if r.err != nil {
				return nil, r.err
			}
			a, err := schema.NewBinned(name, lo, hi, bins)
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, a)
		default:
			return nil, fmt.Errorf("unknown attribute kind %d", kind)
		}
	}
	return schema.New(attrs...)
}

// --- primitive stream -------------------------------------------------

// encoder is a sticky-error little-endian writer over a buffered stream.
type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func newEncoder(w io.Writer) *encoder { return &encoder{w: bufio.NewWriter(w)} }

func (e *encoder) flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func (e *encoder) byte(b byte) {
	if e.err != nil {
		return
	}
	e.err = e.w.WriteByte(b)
}

func (e *encoder) uvarint(x uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], x)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) f64(x float64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(x))
	_, e.err = e.w.Write(e.buf[:8])
}

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) str(s string) {
	if len(s) > maxStringLen {
		if e.err == nil {
			e.err = fmt.Errorf("summary: string of %d bytes exceeds the %d-byte codec limit", len(s), maxStringLen)
		}
		return
	}
	e.uvarint(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

// decoder is the sticky-error counterpart of encoder. Every length read is
// bounded, so corrupted prefixes fail instead of driving allocations.
type decoder struct {
	r   *bufio.Reader
	buf [8]byte
	err error
}

func newDecoder(r io.Reader) *decoder { return &decoder{r: bufio.NewReader(r)} }

func (d *decoder) fail(err error) {
	if d.err == nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		d.err = err
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(err)
		return 0
	}
	return b
}

func (d *decoder) uvarint(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail(err)
		return 0
	}
	if x > max {
		d.fail(fmt.Errorf("count %d exceeds the sanity bound %d", x, max))
		return 0
	}
	return x
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if _, err := io.ReadFull(d.r, d.buf[:8]); err != nil {
		d.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[:8]))
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) str() string {
	n := d.uvarint(maxStringLen)
	if d.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.fail(err)
		return ""
	}
	return string(buf)
}
