package frame

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends payload primitives to Buf: a byte, an unsigned varint, a
// length-prefixed string, or the little-endian bits of a float64. Writing
// cannot fail; bounds are the caller's, checked before it writes.
type Writer struct {
	Buf []byte
}

// Byte appends one byte.
func (w *Writer) Byte(b byte) { w.Buf = append(w.Buf, b) }

// Uvarint appends v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Str appends s as its length, a varint, followed by its bytes.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Float appends the IEEE 754 bits of f, little-endian, so it reads back
// bit-identically.
func (w *Writer) Float(f float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(f))
}

// Reader reads Writer's primitives back from a verified payload. Its first
// failure sticks: every later read returns a zero value and Err reports the
// failure, so a caller may read a group of fields and check once. The
// failures it finds itself — a truncated field, a varint in more bytes than
// it needs, a count past its bound or past what the bytes remaining could
// carry, trailing bytes — wrap the sentinel it was made with; every value
// Writer writes reads back, and every payload that reads back is the only
// encoding of its values.
type Reader struct {
	buf      []byte
	off      int
	err      error
	sentinel error
}

// NewReader returns a Reader over payload whose own failures wrap sentinel.
func NewReader(payload []byte, sentinel error) Reader {
	return Reader{buf: payload, sentinel: sentinel}
}

// Fail records err unless a failure is already recorded. Callers report the
// payloads they refuse on their own grounds through it, so a later read
// sees the failure.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.sentinel}, args...)...)
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Left returns the number of bytes not yet read.
func (r *Reader) Left() int { return len(r.buf) - r.off }

// Done returns the first failure, or an error if any payload bytes are left
// unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.failf("%d trailing payload bytes", r.Left())
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.failf("truncated byte at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint. One written in more bytes than it needs
// (a trailing zero group) is refused, so a value has one encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.failf("truncated varint at offset %d", r.off)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.failf("overlong varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads a varint as an int. A value past the int range wraps negative,
// for the caller to refuse as it refuses any negative number.
func (r *Reader) Int() int { return int(r.Uvarint()) }

// Count reads a varint bounded by max, guarding slice pre-allocation
// against length lies: a count can never exceed what the bytes remaining
// could carry, every counted element being at least width bytes. A width
// of 0 bounds a plain value, which claims no bytes of its own.
func (r *Reader) Count(max, width int, what string) int {
	v := r.Uvarint()
	switch {
	case r.err != nil:
		return 0
	case v > uint64(max):
		r.failf("%s count %d exceeds the %d bound", what, v, max)
		return 0
	case v*uint64(width) > uint64(r.Left()):
		r.failf("%s count %d cannot fit the %d bytes remaining", what, v, r.Left())
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string of at most max bytes.
func (r *Reader) Str(max int, what string) string {
	n := r.Count(max, 1, what)
	if n == 0 {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Float reads the little-endian IEEE 754 bits of a float64.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if r.Left() < 8 {
		r.failf("truncated float at offset %d", r.off)
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(bits)
}
