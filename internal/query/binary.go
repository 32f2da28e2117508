// Binary wire format for batched queries and answers, the compact frame
// behind summaryd's POST /query/batch. HTTP/JSON per-query round trips
// dominate serving cost once the model answers in microseconds; this
// format amortizes the transport by carrying N queries (and N answers)
// per round trip, encoded as varints and raw float bits instead of JSON
// text.
//
// Framing is the snapshot store's (internal/frame): an 8-byte magic, a
// little-endian uint16 format version, 2 reserved bytes, a uint64 payload
// length, and a CRC32-C checksum of the payload — 24 bytes total, then the
// payload. Decode verifies all of it before touching the payload, so
// truncated frames, corrupted bytes, and lying length fields are rejected
// with descriptive errors instead of being decoded into silently-wrong
// queries.
//
// Request payload layout (all ints unsigned varints unless noted):
//
//	estimator   len + UTF-8 bytes (at most 1 KiB)
//	version     (format v2 only) snapshot version, > 0
//	count       number of batch items (1..MaxBatchItems)
//	per item:
//	  num_attrs
//	  group-by   count + attribute indexes (0 = counting query)
//	  where      count + per constraint:
//	               attr, tag byte 'r' | 's',
//	               'r': lo, hi (inclusive, lo <= hi)
//	               's': count + sorted distinct values
//
// Every integer must fit a non-negative int and constraints come strictly
// ascending by attribute — the JSON wire's admission rules, refused in the
// JSON wire's words, on encode and on decode alike.
//
// Answer payload layout:
//
//	estimator   len + UTF-8 bytes (at most 1 KiB)
//	count       number of answers
//	per answer: flags byte (bit0 cached, bit1 group-by, bit2 error), then
//	  error:    len + message (at most 4 KiB)
//	  group-by: count + per group (len + values, float64 estimate bits)
//	  count:    float64 bits (little-endian IEEE 754)
//
// Floats travel as exact bit patterns, so a decoded answer is
// bit-identical to the server-side float64 — the same guarantee the JSON
// path gets from Go's round-trippable float encoding.

package query

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/frame"
)

const (
	// batchRequestMagic and batchAnswerMagic identify the two frame kinds;
	// the trailing byte doubles as framing-version bump space.
	batchRequestMagic = "EDBBATQ1"
	batchAnswerMagic  = "EDBBATA1"
	// batchFormatVersion is the baseline payload format version (PR 6
	// wire); frames without a snapshot version are still written as v1,
	// so a fleet of old readers keeps decoding a new client's traffic.
	batchFormatVersion = 1
	// batchFormatVersionAt is the payload format version that carries a
	// snapshot version (time-travel queries) after the estimator name.
	// Decoders accept both.
	batchFormatVersionAt = 2
	// MaxBatchFrameBytes bounds the payload a decoder will read (16 MiB),
	// so a corrupted or hostile length field cannot drive an absurd
	// allocation.
	MaxBatchFrameBytes = 16 << 20
	// MaxBatchItems bounds the number of queries (and answers) per frame.
	MaxBatchItems = 1 << 16
	// maxNameBytes bounds the estimator name of a frame: both encoders
	// refuse a longer one, both decoders refuse to read one.
	maxNameBytes = 1 << 10
	// maxErrorBytes bounds an answer's error message: AppendAnswers clips a
	// longer one, DecodeAnswers refuses to read one.
	maxErrorBytes = 1 << 12
)

// ErrFrame tags every framing/integrity failure of the batch decoders
// (bad magic, version mismatch, truncation, length mismatch, checksum
// mismatch), so transports can distinguish damage from semantic
// validation errors.
var ErrFrame = errors.New("query: batch frame corrupt")

// BatchItem is one query of a batch: a counting query when GroupBy is
// empty, a group-by query otherwise. A nil predicate asks for the full
// relation cardinality, mirroring POST /query.
type BatchItem struct {
	Pred    *Predicate
	GroupBy []int
}

// AppendIdentity appends the item's canonical identity — kind ('c' count,
// 'g' group-by), grouping attributes in request order, canonical
// predicate — to dst and returns the extended slice. It is the
// tier-independent part of every result-cache key: the node and the router
// each write their own estimator and freshness prefix in front of it, so one
// query has one identity however it arrived. A nil predicate writes "-",
// which no canonical key (they start with '#') can collide with.
func (it BatchItem) AppendIdentity(dst []byte) []byte {
	if len(it.GroupBy) == 0 {
		dst = append(dst, 'c')
	} else {
		dst = append(dst, 'g')
		for _, a := range it.GroupBy {
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(a), 10)
		}
	}
	dst = append(dst, 0)
	if it.Pred == nil {
		return append(dst, '-')
	}
	return it.Pred.AppendCanonical(dst)
}

// GroupRow is one row of a group-by answer — the one shape every layer
// (estimators, result caches, both wires, the router) holds a group in, so
// an answer moves between them without a copy.
type GroupRow struct {
	// Values are the encoded domain values of the grouping attributes, in
	// the order the attributes were given.
	Values []int `json:"values"`
	// Estimate is the (estimated) COUNT(*) of the group.
	Estimate float64 `json:"estimate"`
}

// BatchGroup is the name the batch wire knows a GroupRow by.
type BatchGroup = GroupRow

// BatchAnswer is the answer to one BatchItem, on every read path. Exactly
// one of Count, Groups, or Error is meaningful: Error is set when the item
// failed (arity mismatch, estimator failure), Groups when the item was a
// group-by, Count otherwise.
type BatchAnswer struct {
	Count   float64
	Groups  []GroupRow
	IsGroup bool
	Cached  bool
	Error   string
}

// --- encoding ---------------------------------------------------------

// beginFrame reserves header space at the end of dst, for sealFrame to fill
// in once the payload behind it is written, so a whole frame is built in
// one contiguous buffer the caller can reuse across calls.
func beginFrame(dst []byte) frame.Writer {
	return frame.Writer{Buf: append(dst, make([]byte, frame.HeaderSize)...)}
}

// sealFrame fills in the frame header reserved at base (magic, format
// version, payload length, CRC32-C) and returns the completed buffer.
func sealFrame(w *frame.Writer, base int, magic string, version uint16) ([]byte, error) {
	if _, err := frame.Seal(w.Buf[base:], magic, version, MaxBatchFrameBytes); err != nil {
		return nil, fmt.Errorf("query: batch frame: %v", err)
	}
	return w.Buf, nil
}

// AppendBatch appends a complete framed batch request — the target
// estimator name and N queries — to dst and returns the extended slice.
// Items are validated the same way DecodeBatchAt validates them, so an
// encoder can never produce a frame its decoder rejects. It reuses dst's
// spare capacity, so a client that recycles its request buffer encodes
// steady-state batches without allocating. dst may be nil.
func AppendBatch(dst []byte, estimator string, items []BatchItem) ([]byte, error) {
	return AppendBatchAt(dst, estimator, 0, items)
}

// AppendBatchAt is AppendBatch targeting a specific snapshot version of
// the estimator's dataset. version 0 (the live estimator) emits a format
// v1 frame — bit-identical to what AppendBatch always produced, so
// version-unaware servers keep working; version > 0 emits a format v2
// frame carrying the snapshot version after the estimator name.
func AppendBatchAt(dst []byte, estimator string, version int, items []BatchItem) ([]byte, error) {
	if version < 0 {
		return nil, fmt.Errorf("query: batch snapshot version %d must be non-negative", version)
	}
	if len(items) == 0 {
		return nil, errors.New("query: batch must contain at least one item")
	}
	if len(items) > MaxBatchItems {
		return nil, fmt.Errorf("query: batch of %d items exceeds the %d-item bound", len(items), MaxBatchItems)
	}
	if err := checkName(estimator); err != nil {
		return nil, err
	}
	base := len(dst)
	w := beginFrame(dst)
	w.Str(estimator)
	format := uint16(batchFormatVersion)
	if version > 0 {
		format = batchFormatVersionAt
		w.Uvarint(uint64(version))
	}
	w.Uvarint(uint64(len(items)))
	for i, it := range items {
		if err := encodeItem(&w, it); err != nil {
			return nil, fmt.Errorf("query: batch item %d: %w", i, err)
		}
	}
	return sealFrame(&w, base, batchRequestMagic, format)
}

// checkName refuses an estimator name longer than the decoders read.
func checkName(estimator string) error {
	if len(estimator) > maxNameBytes {
		return fmt.Errorf("query: %d-byte estimator name exceeds the %d-byte bound", len(estimator), maxNameBytes)
	}
	return nil
}

// clip cuts s to at most n bytes, at the start of a UTF-8 sequence.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n]
}

// CheckGroupBy refuses a grouping attribute the wire cannot carry: the one
// admission rule for group-by attributes of every decoder, binary and JSON
// alike. The range check against the schema is the server's.
func CheckGroupBy(attrs []int) error {
	for _, a := range attrs {
		if a < 0 {
			return fmt.Errorf("group-by attribute %d must be non-negative", a)
		}
	}
	return nil
}

// encodeItem appends one batch item to the payload.
func encodeItem(w *frame.Writer, it BatchItem) error {
	numAttrs := 0
	if it.Pred != nil {
		numAttrs = it.Pred.NumAttrs()
	}
	// A nil predicate still needs an arity for group-by validation; the
	// wire carries 0 and the server resolves it against the estimator.
	w.Uvarint(uint64(numAttrs))
	w.Uvarint(uint64(len(it.GroupBy)))
	if err := CheckGroupBy(it.GroupBy); err != nil {
		return err
	}
	for _, a := range it.GroupBy {
		w.Uvarint(uint64(a))
	}
	if it.Pred == nil {
		w.Uvarint(0)
		return nil
	}
	w.Uvarint(uint64(len(it.Pred.cons)))
	for _, ac := range it.Pred.cons {
		a, c := ac.attr, ac.c
		w.Uvarint(uint64(a))
		switch c.Kind {
		case InRange:
			if err := checkRange(c.Range.Lo, c.Range.Hi); err != nil {
				return err
			}
			w.Byte('r')
			w.Uvarint(uint64(c.Range.Lo))
			w.Uvarint(uint64(c.Range.Hi))
		case InSet:
			if err := checkSet(c.Values); err != nil {
				return err
			}
			w.Byte('s')
			w.Uvarint(uint64(len(c.Values)))
			for _, v := range c.Values {
				w.Uvarint(uint64(v))
			}
		default:
			return fmt.Errorf("cannot encode constraint kind %d on attribute %d", c.Kind, a)
		}
	}
	return nil
}

// AppendAnswers appends a complete framed batch answer — the answering
// estimator name and one BatchAnswer per request item, in request order —
// to dst and returns the extended slice. An error message longer than the
// decoder reads is clipped at a UTF-8 boundary, so one long error cannot
// void its batchmates. It reuses dst's spare capacity, so a server that
// pools response buffers assembles steady-state answers without
// allocating. dst may be nil.
func AppendAnswers(dst []byte, estimator string, answers []BatchAnswer) ([]byte, error) {
	if err := checkName(estimator); err != nil {
		return nil, err
	}
	base := len(dst)
	w := beginFrame(dst)
	w.Str(estimator)
	w.Uvarint(uint64(len(answers)))
	for _, a := range answers {
		var flags byte
		if a.Cached {
			flags |= 1
		}
		if a.IsGroup {
			flags |= 2
		}
		if a.Error != "" {
			flags |= 4
		}
		w.Byte(flags)
		switch {
		case a.Error != "":
			w.Str(clip(a.Error, maxErrorBytes))
		case a.IsGroup:
			w.Uvarint(uint64(len(a.Groups)))
			for _, g := range a.Groups {
				w.Uvarint(uint64(len(g.Values)))
				for _, v := range g.Values {
					w.Uvarint(uint64(v))
				}
				w.Float(g.Estimate)
			}
		default:
			w.Float(a.Count)
		}
	}
	return sealFrame(&w, base, batchAnswerMagic, batchFormatVersion)
}

// --- decoding ---------------------------------------------------------

// carve cuts n elements off the front of *slab, capped so an append to them
// cannot reach a neighbour's. A slab too short is replaced by one sized for
// this request and, guessing that they look alike, the left-1 requests after
// it — but never past limit, the most elements the bytes remaining could
// still declare, so a frame's slabs stay proportional to its own length.
func carve[T any](slab *[]T, n, left, limit int) []T {
	if n > len(*slab) {
		*slab = make([]T, max(n, min(n*left, limit)))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// readFrame verifies the framing (magic, format version within
// [1, maxVersion], length, CRC32-C) and returns a reader over the payload,
// whose own failures are ErrFrame, and the format version the frame
// declared.
func readFrame(in io.Reader, magic string, maxVersion uint16) (frame.Reader, uint16, error) {
	payload, version, _, err := frame.Verify(in, magic, batchFormatVersion, maxVersion, MaxBatchFrameBytes)
	if err != nil {
		return frame.Reader{}, 0, fmt.Errorf("%w: %v", ErrFrame, err)
	}
	return frame.NewReader(payload, ErrFrame), version, nil
}

// DecodeBatchAt reads and validates a framed batch request, returning the
// estimator name, the snapshot version the frame targets — 0 (the live
// estimator) for format v1 frames, the encoded version (> 0) for format
// v2 — and the decoded items. Validation mirrors the JSON path's
// strictness — out-of-range or duplicate attributes, inverted ranges, and
// empty sets are rejected with errors that pinpoint the offending item —
// so a malformed frame never becomes a silently-wrong query.
func DecodeBatchAt(in io.Reader) (string, int, []BatchItem, error) {
	r, format, err := readFrame(in, batchRequestMagic, batchFormatVersionAt)
	if err != nil {
		return "", 0, nil, err
	}
	estimator := r.Str(maxNameBytes, "estimator name")
	version := 0
	if format >= batchFormatVersionAt {
		v := r.Uvarint()
		if r.Err() == nil && (v == 0 || v > 1<<31) {
			r.Fail(fmt.Errorf("%w: snapshot version %d out of range [1, 2^31]", ErrFrame, v))
		}
		version = int(v)
	}
	n := r.Count(MaxBatchItems, minItemBytes, "batch item")
	if err := r.Err(); err != nil {
		return "", 0, nil, err
	}
	if n == 0 {
		return "", 0, nil, errors.New("query: batch must contain at least one item")
	}
	// The whole batch decodes into these two slices plus the slabs its
	// constraints and integer lists are carved from: a handful of
	// allocations per frame, not several per item.
	items := make([]BatchItem, n)
	preds := make([]Predicate, n)
	var d itemDecoder
	for i := range items {
		if err := d.item(&r, &items[i], &preds[i], n-i); err != nil {
			return "", 0, nil, fmt.Errorf("query: batch item %d: %w", i, err)
		}
	}
	if err := r.Done(); err != nil {
		return "", 0, nil, err
	}
	return estimator, version, items, nil
}

const (
	// minItemBytes and minConstraintBytes are the fewest bytes a batch item
	// (num_attrs, group-by count, constraint count) and a constraint (attr,
	// tag, at least one argument) take on the wire.
	minItemBytes       = 3
	minConstraintBytes = 3
)

// itemDecoder decodes the items of one frame, carving their constraint and
// integer (group-by attributes, set values) storage out of shared slabs.
// It does not hold the frame's reader: the slabs end up in the decoded
// items, and a reader held beside them would follow them onto the heap.
type itemDecoder struct {
	cons []attrConstraint
	ints []int
}

// readInts reads n integers into storage carved for them.
func (d *itemDecoder) readInts(r *frame.Reader, n, left int) []int {
	out := carve(&d.ints, n, left, r.Left())
	for k := range out {
		out[k] = r.Int()
	}
	return out
}

// item reads and validates one batch item from r into it, the left-th from
// the end of its frame; pred is the storage of its predicate, should it
// carry one. A read that fails leaves zeros behind it, so every check of a
// value read waits on the reader's error first.
func (d *itemDecoder) item(r *frame.Reader, it *BatchItem, pred *Predicate, left int) error {
	numAttrs := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if numAttrs < 0 || numAttrs > 1<<20 {
		return fmt.Errorf("%w: num_attrs %d is absurd", ErrFrame, uint64(numAttrs))
	}

	if ng := r.Count(1<<10, 1, "group-by"); ng > 0 {
		it.GroupBy = d.readInts(r, ng, left)
		if err := r.Err(); err != nil {
			return err
		}
		if err := CheckGroupBy(it.GroupBy); err != nil {
			return err
		}
	}

	nc := r.Count(1<<16, minConstraintBytes, "constraint")
	if err := r.Err(); err != nil {
		return err
	}
	if nc == 0 && numAttrs == 0 {
		// No constraints and no arity: a nil predicate (full-cardinality /
		// pure group-by query).
		return nil
	}
	if numAttrs == 0 {
		return errors.New("constraints without num_attrs")
	}
	pred.numAttrs = numAttrs
	pred.cons = carve(&d.cons, nc, left, r.Left()/minConstraintBytes)
	prev := -1
	for k := range pred.cons {
		attr := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if attr < 0 || attr >= numAttrs {
			return fmt.Errorf("attribute %d out of range [0,%d)", attr, numAttrs)
		}
		if attr <= prev {
			return fmt.Errorf("constraints not strictly ascending by attribute (%d after %d)", attr, prev)
		}
		prev = attr
		var c Constraint
		switch tag := r.Byte(); {
		case r.Err() != nil:
			return r.Err()
		case tag == 'r':
			lo, hi := r.Int(), r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			if err := checkRange(lo, hi); err != nil {
				return err
			}
			c = ValueIn(NewRange(lo, hi))
		case tag == 's':
			values := d.readInts(r, r.Count(1<<16, 1, "set value"), left)
			if err := r.Err(); err != nil {
				return err
			}
			if err := checkSet(values); err != nil {
				return err
			}
			c = ownedSet(values)
		default:
			return fmt.Errorf("unknown constraint tag %q (want 'r' or 's')", tag)
		}
		pred.cons[k] = attrConstraint{attr: attr, c: c}
	}
	it.Pred = pred
	return nil
}

// DecodeAnswers reads and validates a framed batch answer, returning the
// estimator name and the decoded answers.
func DecodeAnswers(in io.Reader) (string, []BatchAnswer, error) {
	r, _, err := readFrame(in, batchAnswerMagic, batchFormatVersion)
	if err != nil {
		return "", nil, err
	}
	estimator := r.Str(maxNameBytes, "estimator name")
	answers := make([]BatchAnswer, r.Count(MaxBatchItems, 1, "answer"))
	for i := range answers {
		flags := r.Byte()
		if r.Err() != nil {
			break
		}
		if flags&^7 != 0 {
			return "", nil, fmt.Errorf("%w: answer %d has unknown flag bits %#x", ErrFrame, i, flags)
		}
		a := &answers[i]
		a.Cached, a.IsGroup = flags&1 != 0, flags&2 != 0
		switch {
		case flags&4 != 0:
			a.Error = r.Str(maxErrorBytes, "error message")
			if r.Err() == nil && a.Error == "" {
				return "", nil, fmt.Errorf("%w: answer %d flags an error with an empty message", ErrFrame, i)
			}
		case a.IsGroup:
			if ngroups := r.Count(1<<20, 1, "group"); ngroups > 0 {
				a.Groups = make([]BatchGroup, ngroups)
			}
			for g := range a.Groups {
				values := make([]int, r.Count(1<<8, 1, "group value"))
				for j := range values {
					values[j] = r.Int()
				}
				a.Groups[g] = BatchGroup{Values: values, Estimate: r.Float()}
			}
		default:
			a.Count = r.Float()
		}
	}
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return estimator, answers, nil
}
