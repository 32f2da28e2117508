package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/frame"
)

// rawBatch seals a hand-written request payload — estimator "e", then
// whatever build appends — so tests can present frames no encoder writes.
func rawBatch(t testing.TB, build func(w *frame.Writer)) []byte {
	t.Helper()
	w := beginFrame(nil)
	w.Str("e")
	build(&w)
	sealed, err := sealFrame(&w, 0, batchRequestMagic, batchFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// neg is how a negative int reaches the binary wire: as the varint of its
// two's complement, the bytes a careless uint64(v) cast writes.
func neg(v int) uint64 { return uint64(v) }

// TestWiresRefuseTheSameInputs is the admission table of both wires in both
// directions: a predicate the JSON decoder refuses is refused by the binary
// decoder in the same words, and the binary encoder will not write it.
func TestWiresRefuseTheSameInputs(t *testing.T) {
	// item writes a one-item batch of a 5-attribute predicate with one
	// constraint on attribute attr, body being the tag and its arguments.
	item := func(attr uint64, body ...uint64) func(w *frame.Writer) {
		return func(w *frame.Writer) {
			w.Uvarint(1) // items
			w.Uvarint(5) // num_attrs
			w.Uvarint(0) // group-by
			w.Uvarint(1) // constraints
			w.Uvarint(attr)
			w.Byte(byte(body[0]))
			for _, v := range body[1:] {
				w.Uvarint(v)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		json   string              // the JSON predicate making the mistake
		frame  func(*frame.Writer) // the binary frame making it
		encode *BatchItem          // the item making it, nil when no Predicate can
		want   string
	}{
		{"negative range",
			`{"num_attrs":5,"where":[{"attr":0,"kind":"range","lo":-5,"hi":-1}]}`,
			item(0, 'r', neg(-5), neg(-1)),
			&BatchItem{Pred: NewPredicate(5).WhereRange(0, -5, -1)},
			"range lo -5 must be non-negative"},
		{"negative hi",
			`{"num_attrs":5,"where":[{"attr":0,"kind":"range","lo":2,"hi":-1}]}`,
			item(0, 'r', 2, neg(-1)),
			&BatchItem{Pred: NewPredicate(5).WhereRange(0, 2, -1)},
			"empty range [2,-1]"},
		{"inverted range",
			`{"num_attrs":5,"where":[{"attr":1,"kind":"range","lo":4,"hi":2}]}`,
			item(1, 'r', 4, 2),
			&BatchItem{Pred: NewPredicate(5).WhereRange(1, 4, 2)},
			"empty range [4,2]"},
		{"negative set value",
			`{"num_attrs":5,"where":[{"attr":2,"kind":"set","values":[3,-3]}]}`,
			item(2, 's', 2, 3, neg(-3)),
			&BatchItem{Pred: NewPredicate(5).WhereIn(2, 3, -3)},
			"set value -3 must be non-negative"},
		{"empty set",
			`{"num_attrs":5,"where":[{"attr":2,"kind":"set","values":[]}]}`,
			item(2, 's', 0),
			&BatchItem{Pred: NewPredicate(5).Where(2, Constraint{Kind: InSet})},
			"set constraint needs a non-empty value list"},
		{"negative attribute",
			`{"num_attrs":5,"where":[{"attr":-5,"kind":"eq","value":1}]}`,
			item(neg(-5), 'r', 1, 1),
			nil, // Where panics on it
			"attribute -5 out of range [0,5)"},
		{"attribute past the arity",
			`{"num_attrs":5,"where":[{"attr":5,"kind":"eq","value":1}]}`,
			item(5, 'r', 1, 1),
			nil,
			"attribute 5 out of range [0,5)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p Predicate
			if err := json.Unmarshal([]byte(tc.json), &p); err == nil || !strings.HasSuffix(err.Error(), ": "+tc.want) {
				t.Errorf("JSON decode: %v, want ...: %s", err, tc.want)
			}
			_, _, items, err := DecodeBatchAt(bytes.NewReader(rawBatch(t, tc.frame)))
			if err == nil || err.Error() != "query: batch item 0: "+tc.want {
				t.Errorf("binary decode: %v (items %v), want query: batch item 0: %s", err, items, tc.want)
			}
			if tc.encode == nil {
				return
			}
			if _, err := AppendBatch(nil, "e", []BatchItem{*tc.encode}); err == nil || err.Error() != "query: batch item 0: "+tc.want {
				t.Errorf("binary encode: %v, want query: batch item 0: %s", err, tc.want)
			}
		})
	}

	// Grouping attributes are range-checked against the schema by the
	// server; the wire refuses only what it cannot carry.
	const want = "query: batch item 0: group-by attribute -2 must be non-negative"
	if _, err := AppendBatch(nil, "e", []BatchItem{{GroupBy: []int{1, -2}}}); err == nil || err.Error() != want {
		t.Errorf("encode of a negative group-by attribute: %v", err)
	}
	frame := rawBatch(t, func(w *frame.Writer) {
		for _, v := range []uint64{1, 0, 2, 1, neg(-2), 0} {
			w.Uvarint(v)
		}
	})
	if _, _, _, err := DecodeBatchAt(bytes.NewReader(frame)); err == nil || err.Error() != want {
		t.Errorf("decode of a negative group-by attribute: %v", err)
	}
}

// allocated reports the heap bytes f allocates (cumulative, so a collection
// in the middle does not hide any): after one warm-up call, the least of ten
// measured ones. TotalAlloc is process-wide and whatever else runs can only
// add to it, so the minimum is f's own cost.
func allocated(f func()) uint64 {
	f()
	least := uint64(math.MaxUint64)
	for range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// wideItem is a one-constraint item over 2^20 attributes — the widest arity
// the binary wire admits.
func wideItem() BatchItem { return BatchItem{Pred: NewPredicate(1<<20).WhereEq(1<<20-1, 3)} }

// TestDecodedPredicateCostsItsBytes pins the property the sorted slice has by
// construction and a dense per-attribute array would not: what a decoded
// predicate allocates is bounded by the bytes that carried it, whatever
// arity those bytes declare.
func TestDecodedPredicateCostsItsBytes(t *testing.T) {
	t.Run("binary item declaring 2^20 attributes", func(t *testing.T) {
		frame, err := AppendBatch(nil, "e", []BatchItem{wideItem()})
		if err != nil {
			t.Fatal(err)
		}
		var items []BatchItem
		decode := func() {
			if _, _, items, err = DecodeBatchAt(bytes.NewReader(frame)); err != nil {
				t.Fatal(err)
			}
		}
		// Budget: measured 248 bytes in 8 allocations for the 38-byte frame —
		// the payload copy, the readers, one item, one predicate, one
		// constraint.
		if got := allocated(decode); got > 1<<10 {
			t.Errorf("a %d-byte frame decoded into %d bytes, budget 1 KiB", len(frame), got)
		}
		if got := testing.AllocsPerRun(20, decode); got > 12 {
			t.Errorf("a one-item frame decoded in %.0f allocations, budget 12", got)
		}
		if !items[0].Pred.Equal(wideItem().Pred) {
			t.Errorf("decoded %s", items[0].Pred)
		}
	})

	t.Run("JSON predicate declaring 2^20 attributes", func(t *testing.T) {
		data, err := json.Marshal(wideItem().Pred)
		if err != nil {
			t.Fatal(err)
		}
		var p Predicate
		decode := func() {
			if err := json.Unmarshal(data, &p); err != nil {
				t.Fatal(err)
			}
		}
		// encoding/json's own decode state dominates; the predicate is one
		// 56-byte constraint.
		if got := allocated(decode); got > 2<<10 {
			t.Errorf("a %d-byte JSON predicate decoded into %d bytes, budget 2 KiB", len(data), got)
		}
		if !p.Equal(wideItem().Pred) {
			t.Errorf("decoded %s", &p)
		}
	})

	t.Run("65536 items declaring 2^20 attributes", func(t *testing.T) {
		items := make([]BatchItem, MaxBatchItems)
		for i := range items {
			items[i] = wideItem()
		}
		frame, err := AppendBatch(nil, "e", items)
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			if _, _, _, err := DecodeBatchAt(bytes.NewReader(frame)); err != nil {
				t.Fatal(err)
			}
		}
		// Budget: 16 bytes per frame byte (measured ≈ 12: the payload once,
		// 32 bytes of item, 32 of predicate and 56 of constraint per 11-byte
		// encoded item), in a number of allocations that does not grow with
		// the item count.
		if got, budget := allocated(decode), uint64(16*len(frame)); got > budget {
			t.Errorf("a %d-byte frame of %d items decoded into %d bytes, budget %d", len(frame), len(items), got, budget)
		}
		if got := testing.AllocsPerRun(3, decode); got > 12 {
			t.Errorf("a %d-item frame decoded in %.0f allocations, budget 12", len(items), got)
		}
	})

	t.Run("a lying constraint count", func(t *testing.T) {
		// One item claiming 60000 constraints in front of 64 bytes: refused
		// on the count, before any slab is sized by it.
		framed := rawBatch(t, func(w *frame.Writer) {
			for _, v := range []uint64{1, 5, 0, 60000} {
				w.Uvarint(v)
			}
			w.Buf = append(w.Buf, make([]byte, 64)...)
		})
		var err error
		got := allocated(func() { _, _, _, err = DecodeBatchAt(bytes.NewReader(framed)) })
		if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "constraint count 60000 cannot fit the 64 bytes remaining") {
			t.Errorf("err = %v, want the count refused against the bytes remaining", err)
		}
		if got > 2<<10 {
			t.Errorf("the refusal allocated %d bytes, budget 2 KiB", got)
		}
		// A count the bytes could carry sizes its slab by the count, never
		// past what remains: 16 constraints claimed in front of 64 zero bytes
		// (which then fail on their tag).
		framed = rawBatch(t, func(w *frame.Writer) {
			for _, v := range []uint64{1, 5, 0, 16} {
				w.Uvarint(v)
			}
			w.Buf = append(w.Buf, make([]byte, 64)...)
		})
		got = allocated(func() { _, _, _, err = DecodeBatchAt(bytes.NewReader(framed)) })
		if err == nil || !strings.Contains(err.Error(), "unknown constraint tag") {
			t.Errorf("err = %v, want the tag refused", err)
		}
		if got > 4<<10 {
			t.Errorf("16 claimed constraints allocated %d bytes, budget 4 KiB", got)
		}
	})
}

// benchItems is 32 counting queries of the benchmark's node-warm shape: five
// attributes, one to three of them constrained, every fourth item a range.
func benchItems() []BatchItem {
	items := make([]BatchItem, 32)
	for i := range items {
		p := NewPredicate(5)
		for k := 0; k <= i%3; k++ {
			a := (i + 2*k) % 5
			if i%4 == 3 && k == 0 {
				p.WhereRange(a, 10+i, 40+i)
			} else {
				p.WhereEq(a, 100+7*i+k)
			}
		}
		items[i] = BatchItem{Pred: p}
	}
	return items
}

// BenchmarkDecodeBatch32 is the request half of a batch round trip: verify
// and decode one 32-item binary frame.
func BenchmarkDecodeBatch32(b *testing.B) {
	frame, err := AppendBatch(nil, "flights/maxent", benchItems())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	rd := bytes.NewReader(frame)
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		if _, _, _, err := DecodeBatchAt(rd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendIdentity is one item's cache identity appended behind a
// prefix in a reused buffer, as Server.read and Router.read build it.
func BenchmarkAppendIdentity(b *testing.B) {
	items := benchItems()
	key := append(make([]byte, 0, 256), "flights/maxent\x00v1\x00"...)
	prefix := len(key)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key = items[i%len(items)].AppendIdentity(key[:prefix])
	}
	if len(key) <= prefix {
		b.Fatal("no identity appended")
	}
}
