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
// strings, and raw float64 bits, written and read with internal/frame's
// primitives, the batch wire's too. It carries no header or checksum of its
// own — framing, format versioning, and integrity are the store's job.

package summary

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/frame"
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
// Every count must also fit the bytes left behind it (frame.Reader.Count).
const (
	maxAttrs     = 1 << 12
	maxDomain    = 1 << 22
	maxMulti     = 1 << 20
	maxStringLen = 1 << 16
)

// errPayload tags the failures the payload reader finds itself: truncation,
// a count past its bound or the bytes left, trailing bytes.
var errPayload = errors.New("malformed payload")

// EncodeEstimator writes the snapshot payload of a solved estimator. Only
// the model-based estimator is snapshot-able: a *Summary answers queries
// from solved weights alone, while the exact engine and the sampling
// baselines would have to serialize (part of) the data itself.
func EncodeEstimator(out io.Writer, est core.Estimator) error {
	s, ok := est.(*Summary)
	if !ok {
		return fmt.Errorf("summary: estimator %q (%T) is not snapshot-able", est.Name(), est)
	}
	var w frame.Writer
	w.Byte(kindSummary)
	if err := s.encode(&w); err != nil {
		return err
	}
	_, err := out.Write(w.Buf)
	return err
}

// readPayload reads all of in into one buffer, sized up front when in knows
// how much it holds (a bytes.Reader over a verified frame, as the store
// passes).
func readPayload(in io.Reader) ([]byte, error) {
	if l, ok := in.(interface{ Len() int }); ok {
		buf := make([]byte, l.Len())
		_, err := io.ReadFull(in, buf)
		return buf, err
	}
	return io.ReadAll(in)
}

// DecodeEstimator reads a snapshot payload written by EncodeEstimator and
// reconstructs the estimator, query-ready, without re-solving.
func DecodeEstimator(in io.Reader) (core.Estimator, error) {
	payload, err := readPayload(in)
	if err != nil {
		return nil, fmt.Errorf("summary: decode: %w", err)
	}
	r := frame.NewReader(payload, errPayload)
	switch kind := r.Byte(); {
	case r.Err() != nil:
		return nil, fmt.Errorf("summary: decode: %w", r.Err())
	case kind == kindSummary:
		s, err := decodeSummary(&r)
		if err != nil {
			return nil, fmt.Errorf("summary: decode: %w", err)
		}
		return s, nil
	case kind == kindRetired:
		return nil, errors.New("summary: decode: partitioned snapshots are no longer served; prune the key or rebuild")
	default:
		return nil, fmt.Errorf("summary: decode: unknown estimator kind %d", kind)
	}
}

// PeekName reads just the estimator kind tag and name from the head of a
// snapshot payload, without reconstructing the model — the store uses it
// to describe the snapshot files it finds on disk, on the payload it has
// already verified, so nothing is copied.
// Every estimator kind, the retired one included, serializes its name
// first, so this prefix is stable across the payload layouts.
func PeekName(payload []byte) (string, error) {
	r := frame.NewReader(payload, errPayload)
	kind := r.Byte()
	name := r.Str(maxStringLen, "name")
	if err := r.Err(); err != nil {
		return "", fmt.Errorf("summary: peek: %w", err)
	}
	if kind != kindSummary && kind != kindRetired {
		return "", fmt.Errorf("summary: peek: unknown estimator kind %d", kind)
	}
	return name, nil
}

// --- Summary ----------------------------------------------------------

// encode writes the summary's payload after its kind tag. A name or label
// longer than the decoder reads back is refused.
func (s *Summary) encode(w *frame.Writer) error {
	var long error
	str := func(x string) {
		if len(x) > maxStringLen && long == nil {
			long = fmt.Errorf("summary: string of %d bytes exceeds the %d-byte codec limit", len(x), maxStringLen)
		}
		w.Str(x)
	}
	str(s.name)
	encodeSchema(w, s.sch, str)
	w.Float(s.n)
	w.Uvarint(uint64(s.maxCombos))

	// Statistic set Φ.
	w.Uvarint(uint64(s.set.N))
	for _, col := range s.set.OneD {
		w.Uvarint(uint64(len(col)))
		for _, x := range col {
			w.Float(x)
		}
	}
	w.Uvarint(uint64(len(s.set.Multi)))
	for _, st := range s.set.Multi {
		w.Uvarint(uint64(len(st.Attrs)))
		for k, a := range st.Attrs {
			w.Uvarint(uint64(a))
			w.Uvarint(uint64(st.Ranges[k].Lo))
			w.Uvarint(uint64(st.Ranges[k].Hi))
		}
		w.Float(st.Count)
	}

	// Chosen pairs (reporting metadata).
	w.Uvarint(uint64(len(s.pairs)))
	for _, pc := range s.pairs {
		w.Uvarint(uint64(pc.A1))
		w.Uvarint(uint64(pc.A2))
		w.Float(pc.Chi2)
		w.Float(pc.V)
	}

	// Solver report.
	w.Uvarint(uint64(s.report.Sweeps))
	w.Float(s.report.MaxViolation)
	converged := byte(0)
	if s.report.Converged {
		converged = 1
	}
	w.Byte(converged)
	// The solve's wall-clock time is not part of the model: writing it would
	// make the same model encode to a different length and checksum on every
	// build. The slot stays (as 0) so the wire layout is unchanged.
	w.Uvarint(0)
	w.Uvarint(uint64(s.report.Constraints))

	// Converged variable weights, raw IEEE 754 bits.
	for a := 0; a < s.sch.NumAttrs(); a++ {
		for v := 0; v < s.sch.Attr(a).Size(); v++ {
			w.Float(s.sys.OneD(a, v))
		}
	}
	for j := 0; j < len(s.set.Multi); j++ {
		w.Float(s.sys.MultiVar(j))
	}
	return long
}

const (
	// minStatisticBytes, minStatAttrBytes and minPairBytes are the fewest
	// bytes a multi-dimensional statistic (attribute count, count), one of
	// its attributes (index, range bounds) and a chosen pair (two indexes,
	// two floats) take in the payload.
	minStatisticBytes = 1 + 8
	minStatAttrBytes  = 3
	minPairBytes      = 2 + 2*8
)

// decodeSummary reads what encode wrote. A payload that decodes is the one
// encoding of its model: a Converged byte other than 0 or 1, a solve-time
// slot other than 0, or bytes past the last weight are refused.
func decodeSummary(r *frame.Reader) (*Summary, error) {
	name := r.Str(maxStringLen, "name")
	sch, err := decodeSchema(r)
	if err != nil {
		return nil, err
	}
	n := r.Float()
	maxCombos := r.Count(1<<32, 0, "group-by combination")
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return nil, fmt.Errorf("invalid cardinality %g", n)
	}
	if maxCombos <= 0 {
		return nil, fmt.Errorf("invalid group-by combination bound %d", maxCombos)
	}

	set := &stats.Set{
		N:           r.Count(1<<40, 0, "row"),
		DomainSizes: sch.DomainSizes(),
		OneD:        make([][]float64, sch.NumAttrs()),
	}
	for a := range set.OneD {
		ln := r.Count(maxDomain, 8, "1D statistic")
		if err := r.Err(); err != nil {
			return nil, err
		}
		if ln != sch.Attr(a).Size() {
			return nil, fmt.Errorf("attribute %d: %d 1D statistics for a domain of size %d", a, ln, sch.Attr(a).Size())
		}
		col := make([]float64, ln)
		for v := range col {
			col[v] = r.Float()
		}
		set.OneD[a] = col
	}
	multi := make([]stats.Statistic, r.Count(maxMulti, minStatisticBytes, "statistic"))
	for j := range multi {
		st := &multi[j]
		nAttrs := r.Count(maxAttrs, minStatAttrBytes, "statistic attribute")
		st.Attrs, st.Ranges = make([]int, nAttrs), make([]query.Range, nAttrs)
		for k := range st.Attrs {
			st.Attrs[k] = r.Count(maxAttrs, 0, "attribute index")
			st.Ranges[k].Lo = r.Count(maxDomain, 0, "range bound")
			st.Ranges[k].Hi = r.Count(maxDomain, 0, "range bound")
		}
		st.Count = r.Float()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// AddMulti re-validates attribute order, domain bounds, and pairwise
	// disjointness, so a corrupted statistic cannot slip into the model.
	if err := set.AddMulti(multi...); err != nil {
		return nil, err
	}

	pairs := make([]stats.PairCorrelation, r.Count(maxAttrs*maxAttrs, minPairBytes, "chosen pair"))
	for i := range pairs {
		pairs[i].A1 = r.Count(maxAttrs, 0, "attribute index")
		pairs[i].A2 = r.Count(maxAttrs, 0, "attribute index")
		pairs[i].Chi2 = r.Float()
		pairs[i].V = r.Float()
	}

	var report solver.Report
	report.Sweeps = r.Count(1<<32, 0, "sweep")
	report.MaxViolation = r.Float()
	converged := r.Byte()
	solveTime := r.Uvarint()
	report.Converged = converged == 1
	report.Constraints = r.Count(1<<32, 0, "constraint")
	if r.Err() == nil && (converged > 1 || solveTime != 0) {
		return nil, fmt.Errorf("solver report: converged byte %d and solve-time slot %d, want 0 or 1 and 0", converged, solveTime)
	}

	alpha := make([][]float64, sch.NumAttrs())
	for a := range alpha {
		col := make([]float64, sch.Attr(a).Size())
		for v := range col {
			col[v] = r.Float()
		}
		alpha[a] = col
	}
	delta := make([]float64, len(set.Multi))
	for j := range delta {
		delta[j] = r.Float()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}

	// The polynomial structure is a deterministic function of the specs:
	// take the one a resident model of the same structure holds, or build
	// it, and restore the solved weights over it.
	comp, err := polynomial.Shared(set.DomainSizes, set.MultiSpecs())
	if err != nil {
		return nil, err
	}
	// NewSystemFrom's single full rebuild recomputes the cached P with
	// exactly the summation order the solver's final sweep used, so the
	// normalization constant — and with it every answer — matches the fresh
	// build bit-for-bit.
	sys, err := polynomial.NewSystemFrom(comp, alpha, delta)
	if err != nil {
		return nil, err
	}
	p := sys.Eval(nil)
	if degenerate(p) {
		return nil, fmt.Errorf("restored polynomial evaluates to %g; snapshot is degenerate", p)
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

// encodeSchema writes sch, its names and labels through str.
func encodeSchema(w *frame.Writer, sch *schema.Schema, str func(string)) {
	w.Uvarint(uint64(sch.NumAttrs()))
	for i := 0; i < sch.NumAttrs(); i++ {
		a := sch.Attr(i)
		str(a.Name())
		switch a.Kind() {
		case schema.Categorical:
			w.Byte(schemaKindCategorical)
			w.Uvarint(uint64(a.Size()))
			for v := 0; v < a.Size(); v++ {
				str(a.Label(v))
			}
		case schema.Binned:
			w.Byte(schemaKindBinned)
			lo, hi := a.Bounds()
			w.Float(lo)
			w.Float(hi)
			w.Uvarint(uint64(a.Size()))
		}
	}
}

func decodeSchema(r *frame.Reader) (*schema.Schema, error) {
	// An attribute takes at least its name's length and its kind byte.
	attrs := make([]schema.Attribute, r.Count(maxAttrs, 2, "attribute"))
	for i := range attrs {
		name := r.Str(maxStringLen, "attribute name")
		var err error
		switch kind := r.Byte(); {
		case r.Err() != nil:
			return nil, r.Err()
		case kind == schemaKindCategorical:
			labels := make([]string, r.Count(maxDomain, 1, "label"))
			for v := range labels {
				labels[v] = r.Str(maxStringLen, "label")
			}
			if err := r.Err(); err != nil {
				return nil, err
			}
			attrs[i], err = schema.NewCategorical(name, labels)
		case kind == schemaKindBinned:
			lo, hi := r.Float(), r.Float()
			bins := r.Count(maxDomain, 0, "bin")
			if err := r.Err(); err != nil {
				return nil, err
			}
			attrs[i], err = schema.NewBinned(name, lo, hi, bins)
		default:
			return nil, fmt.Errorf("unknown attribute kind %d", kind)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return schema.New(attrs...)
}
