package frame

import (
	"bytes"
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
	}
	if _, err := Seal(make([]byte, HeaderSize+testBound+1), testMagic, 1, testBound); err == nil {
		t.Error("Seal accepted a payload above the bound")
	}
}

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
	}
}
