package frame

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

const (
	testMagic = "FRAMETST"
	testBound = 1 << 10
)

func sealed(t *testing.T, payload string, version uint16) []byte {
	t.Helper()
	framed := append(make([]byte, HeaderSize), payload...)
	if _, err := Seal(framed, testMagic, version, testBound); err != nil {
		t.Fatal(err)
	}
	return framed
}

func TestSealVerifyRoundTrip(t *testing.T) {
	for _, payload := range []string{"", "x", strings.Repeat("entropy", 100)} {
		framed := append(bytes.Repeat([]byte{0xff}, HeaderSize), payload...) // dirty header space
		sum, err := Seal(framed, testMagic, 2, testBound)
		if err != nil {
			t.Fatal(err)
		}
		got, version, gotSum, err := Verify(bytes.NewReader(framed), testMagic, 1, 2, testBound)
		if err != nil {
			t.Fatalf("Verify of a sealed %d-byte payload: %v", len(payload), err)
		}
		if string(got) != payload || version != 2 || gotSum != sum {
			t.Errorf("round trip of %d bytes: payload %q, version %d, checksum %08x (sealed %08x)", len(payload), got, version, gotSum, sum)
		}
		if framed[10] != 0 || framed[11] != 0 {
			t.Errorf("reserved bytes % x, want zero", framed[10:12])
		}
		// Check reads the same frame in place: its payload is framed's own.
		inPlace, version, gotSum, err := Check(framed, testMagic, 1, 2, testBound)
		if err != nil || string(inPlace) != payload || version != 2 || gotSum != sum {
			t.Errorf("Check of %d bytes: payload %q, version %d, checksum %08x, %v", len(payload), inPlace, version, gotSum, err)
		}
		if len(payload) > 0 && &inPlace[0] != &framed[HeaderSize] {
			t.Errorf("Check of %d bytes copied the payload", len(payload))
		}
	}
	if _, err := Seal(make([]byte, HeaderSize+testBound+1), testMagic, 1, testBound); err == nil {
		t.Error("Seal accepted a payload above the bound")
	}
}

// TestVerifyRejections holds Verify, on a stream, and Check, in memory, to
// the same refusals.
func TestVerifyRejections(t *testing.T) {
	pristine := sealed(t, "a payload worth protecting", 1)
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
		want   string
	}{
		{"empty", func(b []byte) []byte { return nil }, "header truncated"},
		{"truncated header", func(b []byte) []byte { return b[:HeaderSize-3] }, "header truncated"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-2] }, "payload truncated"},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "magic"},
		{"version below range", func(b []byte) []byte { b[8] = 0; return b }, "version"},
		{"version above range", func(b []byte) []byte { b[8] = 3; return b }, "version"},
		{"length lies short", func(b []byte) []byte { b[12]--; return b }, "trailing garbage"},
		{"length lies absurd", func(b []byte) []byte { b[19] = 0xff; return b }, "bound"},
		{"flipped payload bit", func(b []byte) []byte { b[HeaderSize+3] ^= 0x10; return b }, "checksum"},
		{"flipped checksum", func(b []byte) []byte { b[20] ^= 0x01; return b }, "checksum"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde) }, "trailing garbage"},
	} {
		mangled := tc.mangle(append([]byte(nil), pristine...))
		_, _, _, err := Verify(bytes.NewReader(mangled), testMagic, 1, 2, testBound)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if _, _, _, err := Check(mangled, testMagic, 1, 2, testBound); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

var errTest = errors.New("test payload")

func TestPayloadRoundTrip(t *testing.T) {
	var w Writer
	w.Byte(7)
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Str("")
	w.Str("naïve")
	w.Float(math.Copysign(0, -1))
	w.Float(math.Float64frombits(0x7ff8000000000001)) // a NaN with a payload
	w.Uvarint(3)
	r := NewReader(w.Buf, errTest)
	if b := r.Byte(); b != 7 {
		t.Errorf("Byte = %d", b)
	}
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Int(); v != 1<<40 {
		t.Errorf("Int = %d", v)
	}
	if s := r.Str(8, "string"); s != "" {
		t.Errorf("empty Str = %q", s)
	}
	if s := r.Str(8, "string"); s != "naïve" {
		t.Errorf("Str = %q", s)
	}
	if f := r.Float(); math.Float64bits(f) != 1<<63 {
		t.Errorf("Float(-0) = %x", math.Float64bits(f))
	}
	if f := r.Float(); math.Float64bits(f) != 0x7ff8000000000001 {
		t.Errorf("Float(NaN) = %x", math.Float64bits(f))
	}
	if n := r.Count(3, 0, "value"); n != 3 || r.Left() != 0 {
		t.Errorf("Count = %d with %d bytes left", n, r.Left())
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRefusals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(r *Reader)
		want    string
	}{
		{"truncated byte", nil, func(r *Reader) { r.Byte() }, "truncated byte at offset 0"},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated varint at offset 0"},
		{"overlong varint", []byte{1, 0x81, 0x00}, func(r *Reader) { r.Byte(); r.Uvarint() }, "overlong varint at offset 1"},
		{"truncated float", make([]byte, 7), func(r *Reader) { r.Float() }, "truncated float at offset 0"},
		{"count past its bound", []byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(8, 1, "item") }, "item count 9 exceeds the 8 bound"},
		{"count past the bytes left", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(8, 2, "item") }, "item count 3 cannot fit the 5 bytes remaining"},
		{"string past the bytes left", []byte{4, 'a', 'b'}, func(r *Reader) { r.Str(8, "name") }, "name count 4 cannot fit the 2 bytes remaining"},
		{"trailing bytes", []byte{1, 2, 3}, func(r *Reader) { r.Byte() }, "2 trailing payload bytes"},
	} {
		r := NewReader(tc.payload, errTest)
		tc.read(&r)
		err := r.Done()
		if !errors.Is(err, errTest) || !strings.HasSuffix(err.Error(), ": "+tc.want) {
			t.Errorf("%s: err = %v, want the sentinel and %q", tc.name, err, tc.want)
		}
	}

	// The first failure sticks: later reads return zeros and leave it be,
	// and a caller's own refusal does not replace it.
	r := NewReader([]byte{0x80}, errTest)
	r.Uvarint()
	first := r.Err()
	if r.Byte() != 0 || r.Float() != 0 || r.Str(8, "name") != "" || r.Count(8, 1, "item") != 0 {
		t.Error("a read after a failure returned a value")
	}
	r.Fail(errors.New("later"))
	if r.Err() != first || r.Done() != first {
		t.Errorf("err = %v, want the first failure %v", r.Err(), first)
	}
	r = NewReader(nil, errTest)
	own := errors.New("caller's refusal")
	r.Fail(own)
	if r.Done() != own {
		t.Errorf("Done = %v, want the caller's refusal", r.Done())
	}
}
