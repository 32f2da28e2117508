package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestAppendBatchAtVersionZeroIsBitIdenticalV1: targeting version 0 (the
// live estimator) must emit exactly the PR 6 v1 frame, byte for byte —
// that is the compatibility contract that lets old servers keep decoding
// new clients.
func TestAppendBatchAtVersionZeroIsBitIdenticalV1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		items := make([]BatchItem, 1+rng.Intn(10))
		for i := range items {
			items[i] = randomItem(rng)
		}
		old, err := AppendBatch(nil, "demo/maxent", items)
		if err != nil {
			t.Fatal(err)
		}
		at, err := AppendBatchAt(nil, "demo/maxent", 0, items)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(old, at) {
			t.Fatalf("trial %d: AppendBatchAt(v0) drifted from AppendBatch", trial)
		}
		if v := binary.LittleEndian.Uint16(at[8:10]); v != batchFormatVersion {
			t.Fatalf("trial %d: v0 frame declares format %d, want %d", trial, v, batchFormatVersion)
		}
	}
}

// TestOldFramesStillDecode: a v1 frame (what every pre-versioning client
// emits) must decode, reporting version 0.
func TestOldFramesStillDecode(t *testing.T) {
	items := []BatchItem{{Pred: NewPredicate(3).WhereEq(0, 1)}, {}}
	frame, err := AppendBatch(nil, "demo/maxent", items)
	if err != nil {
		t.Fatal(err)
	}
	est, version, got, err := DecodeBatchAt(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("versioned API rejected a v1 frame: %v", err)
	}
	if est != "demo/maxent" || version != 0 || len(got) != 2 {
		t.Fatalf("versioned API decoded %q/v%d/%d items, want demo/maxent/v0/2", est, version, len(got))
	}
}

// TestVersionedBatchRoundTrip: v2 frames carry the snapshot version
// through encode/decode.
func TestVersionedBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, version := range []int{1, 2, 42, 1 << 20} {
		items := make([]BatchItem, 1+rng.Intn(10))
		for i := range items {
			items[i] = randomItem(rng)
		}
		frame, err := AppendBatchAt(nil, "demo/maxent", version, items)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(frame[8:10]); v != batchFormatVersionAt {
			t.Fatalf("versioned frame declares format %d, want %d", v, batchFormatVersionAt)
		}
		est, got, decItems, err := DecodeBatchAt(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if est != "demo/maxent" || got != version || len(decItems) != len(items) {
			t.Fatalf("decoded %q/v%d/%d items, want demo/maxent/v%d/%d", est, got, len(decItems), version, len(items))
		}
		for i := range items {
			a, b := items[i], decItems[i]
			if (a.Pred == nil) != (b.Pred == nil) || (a.Pred != nil && !a.Pred.Equal(b.Pred)) {
				t.Fatalf("v%d item %d predicate drifted", version, i)
			}
		}
	}
}

// TestVersionedBatchRejections: negative versions cannot be encoded, a
// v2 frame with snapshot version 0 is rejected (0 travels as format v1),
// and an unknown future format version is rejected.
func TestVersionedBatchRejections(t *testing.T) {
	if _, err := AppendBatchAt(nil, "demo/maxent", -1, []BatchItem{{}}); err == nil {
		t.Error("AppendBatchAt accepted a negative version")
	}

	// Hand-corrupt a v2 frame's snapshot version down to 0: payload is
	// str("demo/maxent") = 1+11 bytes, then uvarint(version).
	frame, err := AppendBatchAt(nil, "demo/maxent", 1, []BatchItem{{}})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	const versionOff = batchHeaderSize + 1 + len("demo/maxent")
	if bad[versionOff] != 1 {
		t.Fatalf("test layout assumption broken: byte at %d is %#x, want 0x01", versionOff, bad[versionOff])
	}
	bad[versionOff] = 0
	binary.LittleEndian.PutUint32(bad[20:24], crc32.Checksum(bad[batchHeaderSize:], batchCRCTable))
	if _, _, _, err := DecodeBatchAt(bytes.NewReader(bad)); !errors.Is(err, ErrFrame) {
		t.Errorf("v2 frame with snapshot version 0: err=%v, want ErrFrame", err)
	}

	future := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint16(future[8:10], batchFormatVersionAt+1)
	if _, _, _, err := DecodeBatchAt(bytes.NewReader(future)); !errors.Is(err, ErrFrame) {
		t.Errorf("future format version: err=%v, want ErrFrame", err)
	}
}
