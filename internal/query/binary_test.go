package query

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomItem builds a random batch item over a 5-attribute schema with
// domain sizes up to 16, mixing counting and group-by queries and all
// constraint kinds.
func randomItem(rng *rand.Rand) BatchItem {
	const numAttrs, maxVal = 5, 16
	var it BatchItem
	if rng.Intn(8) == 0 {
		// Predicate-free item (full cardinality or pure group-by).
		if rng.Intn(2) == 0 {
			it.GroupBy = []int{rng.Intn(numAttrs)}
		}
		return it
	}
	p := NewPredicate(numAttrs)
	for _, a := range rng.Perm(numAttrs)[:1+rng.Intn(3)] {
		switch rng.Intn(3) {
		case 0:
			p.WhereEq(a, rng.Intn(maxVal))
		case 1:
			lo := rng.Intn(maxVal)
			p.WhereRange(a, lo, lo+rng.Intn(maxVal-lo))
		default:
			vals := make([]int, 1+rng.Intn(4))
			for i := range vals {
				vals[i] = rng.Intn(maxVal)
			}
			p.WhereIn(a, vals...)
		}
	}
	it.Pred = p
	if rng.Intn(4) == 0 {
		it.GroupBy = []int{rng.Intn(numAttrs)}
	}
	return it
}

// TestBatchRequestRoundTrip encodes random batches and asserts the decoded
// items are semantically identical (predicate equality, same group-bys).
func TestBatchRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		items := make([]BatchItem, 1+rng.Intn(40))
		for i := range items {
			items[i] = randomItem(rng)
		}
		frame, err := AppendBatch(nil, "demo/maxent", items)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		estimator, version, got, err := DecodeBatchAt(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if estimator != "demo/maxent" || version != 0 {
			t.Fatalf("trial %d: estimator %q at version %d", trial, estimator, version)
		}
		if len(got) != len(items) {
			t.Fatalf("trial %d: %d items decoded, want %d", trial, len(got), len(items))
		}
		for i, it := range items {
			g := got[i]
			switch {
			case it.Pred == nil && g.Pred != nil:
				t.Errorf("trial %d item %d: decoded a predicate from a nil one", trial, i)
			case it.Pred != nil && g.Pred == nil:
				t.Errorf("trial %d item %d: predicate lost", trial, i)
			case it.Pred != nil && !it.Pred.Equal(g.Pred):
				t.Errorf("trial %d item %d: %s != %s", trial, i, it.Pred, g.Pred)
			}
			if len(it.GroupBy) != len(g.GroupBy) {
				t.Errorf("trial %d item %d: group-by %v != %v", trial, i, g.GroupBy, it.GroupBy)
				continue
			}
			for k := range it.GroupBy {
				if it.GroupBy[k] != g.GroupBy[k] {
					t.Errorf("trial %d item %d: group-by %v != %v", trial, i, g.GroupBy, it.GroupBy)
					break
				}
			}
		}
	}

	// A name the decoder would refuse is refused at encode.
	long := strings.Repeat("n", 2000)
	if _, err := AppendBatch(nil, long, []BatchItem{{}}); err == nil {
		t.Error("a 2000-byte estimator name encoded")
	}
	if _, err := AppendBatchAt(nil, long, 3, []BatchItem{{}}); err == nil {
		t.Error("a 2000-byte estimator name encoded at a version")
	}
}

// TestBatchAnswerRoundTrip covers all three answer shapes, including exact
// float bit patterns.
func TestBatchAnswerRoundTrip(t *testing.T) {
	answers := []BatchAnswer{
		{Count: 1234.5678901234567, Cached: true},
		{Count: math.Nextafter(1, 2)},
		{IsGroup: true, Groups: []BatchGroup{
			{Values: []int{0, 3}, Estimate: 17.25},
			{Values: []int{1, 0}, Estimate: 0.000123456789},
		}},
		{IsGroup: true, Groups: nil, Cached: true}, // empty group answer
		{Error: "summary: group-by space exceeds 65536 combinations"},
		// 5000 bytes whose 4096-byte cut falls inside a 3-byte rune: the
		// encoder clips it to the decoder's bound at the rune's start.
		{Error: strings.Repeat("e", 4095) + strings.Repeat("€", 1) + strings.Repeat("e", 902)},
	}
	if _, err := AppendAnswers(nil, strings.Repeat("n", 2000), answers); err == nil {
		t.Error("a 2000-byte estimator name encoded")
	}
	frame, err := AppendAnswers(nil, "demo/exact", answers)
	if err != nil {
		t.Fatal(err)
	}
	answers[len(answers)-1].Error = strings.Repeat("e", 4095)
	estimator, got, err := DecodeAnswers(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if estimator != "demo/exact" {
		t.Fatalf("estimator %q", estimator)
	}
	if len(got) != len(answers) {
		t.Fatalf("%d answers, want %d", len(got), len(answers))
	}
	for i, want := range answers {
		g := got[i]
		if g.Cached != want.Cached || g.IsGroup != want.IsGroup || g.Error != want.Error {
			t.Errorf("answer %d: flags/error %+v != %+v", i, g, want)
		}
		if math.Float64bits(g.Count) != math.Float64bits(want.Count) {
			t.Errorf("answer %d: count bits differ: %v != %v", i, g.Count, want.Count)
		}
		if len(g.Groups) != len(want.Groups) {
			t.Errorf("answer %d: %d groups, want %d", i, len(g.Groups), len(want.Groups))
			continue
		}
		for k, wg := range want.Groups {
			if math.Float64bits(g.Groups[k].Estimate) != math.Float64bits(wg.Estimate) {
				t.Errorf("answer %d group %d: estimate bits differ", i, k)
			}
		}
	}
}

// TestBatchFrameRejections drives every framing failure mode and asserts a
// clean, tagged error — never a panic, never a silent wrong decode.
func TestBatchFrameRejections(t *testing.T) {
	items := []BatchItem{{Pred: NewPredicate(4).WhereEq(0, 1)}}
	frame, err := AppendBatch(nil, "demo/maxent", items)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated header", func(t *testing.T) {
		_, _, _, err := DecodeBatchAt(bytes.NewReader(frame[:10]))
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("err = %v, want ErrFrame", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, _, err := DecodeBatchAt(bytes.NewReader(frame[:len(frame)-2]))
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("err = %v, want ErrFrame", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[0] ^= 0xff
		_, _, _, err := DecodeBatchAt(bytes.NewReader(bad))
		if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want magic ErrFrame", err)
		}
	})
	t.Run("answer magic on request decoder", func(t *testing.T) {
		answers, err := AppendAnswers(nil, "x", []BatchAnswer{{Count: 1}})
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = DecodeBatchAt(bytes.NewReader(answers))
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("err = %v, want ErrFrame", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[8] = 99
		_, _, _, err := DecodeBatchAt(bytes.NewReader(bad))
		if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "version") {
			t.Fatalf("err = %v, want version ErrFrame", err)
		}
	})
	t.Run("crc corruption", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] ^= 0x01 // flip a payload bit
		_, _, _, err := DecodeBatchAt(bytes.NewReader(bad))
		if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("err = %v, want checksum ErrFrame", err)
		}
	})
	t.Run("length lies short", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		// Claim one byte fewer than present: trailing garbage.
		n := len(bad) - 24
		bad[12] = byte(n - 1)
		_, _, _, err := DecodeBatchAt(bytes.NewReader(bad))
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("err = %v, want ErrFrame", err)
		}
	})
	t.Run("length lies absurd", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		for i := 12; i < 20; i++ {
			bad[i] = 0xff
		}
		_, _, _, err := DecodeBatchAt(bytes.NewReader(bad))
		if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "bound") {
			t.Fatalf("err = %v, want bound ErrFrame", err)
		}
	})
	t.Run("empty batch", func(t *testing.T) {
		if _, err := AppendBatch(nil, "x", nil); err == nil {
			t.Fatal("empty batch encoded")
		}
	})
}

// FuzzDecodeBatch hammers the request decoder with mutated frames: the
// only contract is no panic, and any accepted input must re-encode.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		items := make([]BatchItem, 1+rng.Intn(5))
		for i := range items {
			items[i] = randomItem(rng)
		}
		frame, err := AppendBatch(nil, "demo/maxent", items)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Versioned (format v2) seed: the old-frame/new-frame compatibility
	// pair must both stay in the accepted language.
	versioned, err := AppendBatchAt(nil, "demo/maxent", 7, []BatchItem{{}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(versioned)
	f.Add(readFixture(f, "batch_v1.bin"))
	f.Add(readFixture(f, "batch_v2.bin"))
	f.Add([]byte{})
	f.Add([]byte(batchRequestMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		estimator, version, items, err := DecodeBatchAt(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the decoder accepts must be encodable again and decode
		// to the same batch — the decoder defines the canonical form.
		buf, err := AppendBatchAt(nil, estimator, version, items)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		est2, v2, items2, err := DecodeBatchAt(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if est2 != estimator || v2 != version || len(items2) != len(items) {
			t.Fatalf("round trip drifted: %q/v%d/%d != %q/v%d/%d", est2, v2, len(items2), estimator, version, len(items))
		}
		for i := range items {
			a, b := items[i], items2[i]
			if (a.Pred == nil) != (b.Pred == nil) || (a.Pred != nil && !a.Pred.Equal(b.Pred)) {
				t.Fatalf("item %d predicate drifted", i)
			}
		}
	})
}

// FuzzDecodeAnswers is the answer-side counterpart.
func FuzzDecodeAnswers(f *testing.F) {
	frame, err := AppendAnswers(nil, "demo/maxent", []BatchAnswer{
		{Count: 42.5, Cached: true},
		{IsGroup: true, Groups: []BatchGroup{{Values: []int{1}, Estimate: 3}}},
		{Error: "boom"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(readFixture(f, "answers.bin"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = DecodeAnswers(bytes.NewReader(data))
	})
}
