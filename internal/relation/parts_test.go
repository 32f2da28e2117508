package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/schema"
)

func partsTestSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustBinned("a", 0, 1, 7),
		schema.MustBinned("b", 0, 1, 300),
		schema.MustBinned("c", 0, 1, 13),
	)
}

func numParts(r *Relation) int {
	n := 0
	for range r.Parts() {
		n++
	}
	return n
}

// TestPartsAnswerLikeOnePart builds the same rows three ways — one part
// sized up front, appended row by row from an empty relation, and
// appended in batches onto a capped view through a Mutable — and holds
// every read of the multi-part relations, and of random slices of them, to
// the single-part one.
func TestPartsAnswerLikeOnePart(t *testing.T) {
	sch := partsTestSchema()
	const rows = 3*blockRows + 1234
	rng := rand.New(rand.NewSource(36))
	sizes := sch.DomainSizes()
	tuples := make([][]int, rows)
	for i := range tuples {
		tuples[i] = make([]int, len(sizes))
		for a, n := range sizes {
			tuples[i][a] = (rng.Intn(n) * (i % 5)) % n
		}
	}
	one := NewWithCapacity(sch, rows)
	byRow := New(sch)
	for _, tuple := range tuples {
		one.MustAppend(tuple)
		byRow.MustAppend(tuple)
	}
	const head = 1000
	seed := NewWithCapacity(sch, head)
	for _, tuple := range tuples[:head] {
		seed.MustAppend(tuple)
	}
	mut := NewMutable(seed)
	for lo := head; lo < rows; lo += 7777 {
		if _, err := mut.AppendRows(tuples[lo:min(lo+7777, rows)]); err != nil {
			t.Fatal(err)
		}
	}
	batched, _ := mut.Freeze()
	if numParts(one) != 1 || numParts(byRow) != 4 || numParts(batched) != 5 {
		t.Fatalf("parts: one %d, by row %d, batched %d; want 1, 4, 5", numParts(one), numParts(byRow), numParts(batched))
	}

	type pair struct {
		name      string
		got, want *Relation
	}
	cases := []pair{{"by row", byRow, one}, {"batched", batched, one}}
	for k := 0; k < 4; k++ {
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo+1)
		if k == 0 {
			lo, hi = blockRows-5, blockRows+5
		}
		for _, c := range cases[:2] {
			got, err := c.got.Slice(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := one.Slice(lo, hi)
			cases = append(cases, pair{fmt.Sprintf("%s [%d,%d)", c.name, lo, hi), got, want})
		}
	}

	preds := []*query.Predicate{
		nil,
		query.NewPredicate(3).WhereEq(0, 2),
		query.NewPredicate(3).WhereRange(1, 40, 200).WhereEq(2, 0),
	}
	boxes := [][]query.Range{
		{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 99}},
		{{Lo: 4, Hi: 6}, {Lo: 0, Hi: 299}},
		{{Lo: 0, Hi: 6}, {Lo: 100, Hi: 150}}, // overlaps the first
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		if c.got.NumRows() != c.want.NumRows() {
			t.Fatalf("%s: %d rows, want %d", c.name, c.got.NumRows(), c.want.NumRows())
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for a := range sizes {
				if !reflect.DeepEqual(c.got.Histogram1D(a), c.want.Histogram1D(a)) {
					t.Fatalf("%s, GOMAXPROCS %d: Histogram1D(%d) differs", c.name, procs, a)
				}
				for b := range sizes {
					if b != a && !reflect.DeepEqual(c.got.Histogram2D(a, b), c.want.Histogram2D(a, b)) {
						t.Fatalf("%s, GOMAXPROCS %d: Histogram2D(%d, %d) differs", c.name, procs, a, b)
					}
				}
			}
			if got, want := c.got.CountBoxes([]int{0, 1}, boxes), c.want.CountBoxes([]int{0, 1}, boxes); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, GOMAXPROCS %d: CountBoxes %v, want %v", c.name, procs, got, want)
			}
		}
		for _, p := range preds {
			if got, want := c.got.Count(p), c.want.Count(p); got != want {
				t.Fatalf("%s: Count(%v) = %d, want %d", c.name, p, got, want)
			}
			if got, want := groupCounts(c.got, []int{0, 2}, p), groupCounts(c.want, []int{0, 2}, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Groups under %v differ", c.name, p)
			}
		}
		for a := range sizes {
			if !reflect.DeepEqual(c.got.Column(a), c.want.Column(a)) {
				t.Fatalf("%s: Column(%d) differs", c.name, a)
			}
		}
		var got, want []int
		for i := 0; i < c.got.NumRows(); i++ {
			if g, w := c.got.Row(i, got), c.want.Row(i, want); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: Row(%d) = %v, want %v", c.name, i, g, w)
			}
			for a := range sizes {
				if g, w := c.got.Value(i, a), c.want.Value(i, a); g != w {
					t.Fatalf("%s: Value(%d, %d) = %d, want %d", c.name, i, a, g, w)
				}
			}
		}
	}

	// CountBoxes against one Count scan per box.
	for b, n := range one.CountBoxes([]int{0, 1}, boxes) {
		p := query.NewPredicate(3).WhereRange(0, boxes[b][0].Lo, boxes[b][0].Hi).WhereRange(1, boxes[b][1].Lo, boxes[b][1].Hi)
		if want := one.Count(p); n != want {
			t.Fatalf("CountBoxes box %d = %d, Count = %d", b, n, want)
		}
	}
}

// TestAppendToCappedViewCostsItsRows wraps a capped view of a large
// relation for appends: the first batch opens a new part, so it allocates
// that part and not a copy of the rows before it.
func TestAppendToCappedViewCostsItsRows(t *testing.T) {
	sch := schema.MustNew(
		schema.MustBinned("a", 0, 1, 7),
		schema.MustBinned("b", 0, 1, 300),
		schema.MustBinned("c", 0, 1, 13),
		schema.MustBinned("d", 0, 1, 50),
		schema.MustBinned("e", 0, 1, 80),
	)
	const rows, batch = 1_000_000, 5000
	rel := NewWithCapacity(sch, rows)
	tuple := make([]int, sch.NumAttrs())
	for i := 0; i < rows; i++ {
		tuple[0] = i % 7
		rel.MustAppend(tuple)
	}
	view, err := rel.Slice(0, rows)
	if err != nil {
		t.Fatal(err)
	}
	mut := NewMutable(view)
	delta := make([][]int, batch)
	for i := range delta {
		delta[i] = []int{i % 7, i % 300, i % 13, i % 50, i % 80}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := mut.AppendRows(delta); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("appending %d rows to a capped %d-row view allocated %d bytes", batch, rows, grew)
	}
	frozen, _ := mut.Freeze()
	if frozen.NumRows() != rows+batch || frozen.Value(rows+batch-1, 4) != (batch-1)%80 || frozen.Value(rows-1, 0) != (rows-1)%7 {
		t.Fatal("the grown relation does not hold the view's rows followed by the batch")
	}
}
