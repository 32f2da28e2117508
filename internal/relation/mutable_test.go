package relation

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/schema"
)

func mutableTestSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustCategorical("a", []string{"x", "y", "z"}),
		schema.MustCategorical("b", []string{"p", "q"}),
	)
}

func TestMutableAppendAndFreeze(t *testing.T) {
	m := NewMutable(New(mutableTestSchema()))
	if m.NumRows() != 0 || m.Generation() != 0 {
		t.Fatalf("fresh mutable: rows=%d gen=%d, want 0/0", m.NumRows(), m.Generation())
	}
	if err := m.Append([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendRows([][]int{{1, 0}, {2, 1}}); err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", m.NumRows())
	}
	if m.Generation() != 2 {
		t.Fatalf("generation = %d, want 2 (one per batch)", m.Generation())
	}

	frozen, gen := m.Freeze()
	if frozen.NumRows() != 3 || gen != 2 {
		t.Fatalf("freeze: rows=%d gen=%d, want 3/2", frozen.NumRows(), gen)
	}

	// Appends after the freeze must not be visible through the view.
	if _, err := m.AppendRows([][]int{{0, 0}, {0, 0}, {0, 0}}); err != nil {
		t.Fatal(err)
	}
	if frozen.NumRows() != 3 {
		t.Fatalf("frozen view grew to %d rows after append", frozen.NumRows())
	}
	p := query.NewPredicate(2)
	p.WhereEq(0, 0)
	if got := frozen.Count(p); got != 1 {
		t.Fatalf("frozen count(a=x) = %d, want 1 (post-freeze appends leaked in)", got)
	}
	full, _ := m.Freeze()
	if got := full.Count(p); got != 4 {
		t.Fatalf("new freeze count(a=x) = %d, want 4", got)
	}

	// The delta between two freezes is a plain slice view.
	delta, err := full.Slice(frozen.NumRows(), full.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if delta.NumRows() != 3 || delta.Count(p) != 3 {
		t.Fatalf("delta view: rows=%d count(a=x)=%d, want 3/3", delta.NumRows(), delta.Count(p))
	}
}

func TestMutableAppendRowsAllOrNothing(t *testing.T) {
	m := NewMutable(New(mutableTestSchema()))
	if _, err := m.AppendRows([][]int{{0, 0}, {0, 9}}); err == nil {
		t.Fatal("AppendRows accepted an out-of-domain value")
	}
	if m.NumRows() != 0 {
		t.Fatalf("failed batch left %d rows behind", m.NumRows())
	}
	if _, err := m.AppendRows([][]int{{0, 0, 0}}); err == nil {
		t.Fatal("AppendRows accepted a wrong-arity row")
	}
	if m.Generation() != 0 {
		t.Fatalf("failed batches bumped the generation to %d", m.Generation())
	}
	if n, err := m.AppendRows(nil); err != nil || n != 0 {
		t.Fatalf("empty batch: n=%d err=%v, want 0/nil", n, err)
	}
	if m.Generation() != 0 {
		t.Fatal("empty batch bumped the generation")
	}
}

// TestMutableConcurrentFreezeAndAppend drives batched appends across
// several part boundaries and freezes from many goroutines; under -race
// this proves the zero-copy freeze contract (appends never write through a
// frozen view). Readers read every row of each view twice and must see the
// same rows both times, and every row a writer appended.
func TestMutableConcurrentFreezeAndAppend(t *testing.T) {
	m := NewMutable(New(mutableTestSchema()))
	const writers, rounds, batch = 4, 40, 1000 // 160,000 rows: three parts
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows := make([][]int, batch)
			for i := 0; i < rounds; i++ {
				for k := range rows {
					rows[k] = []int{w % 3, (i + k) % 2}
				}
				if _, err := m.AppendRows(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view, _ := m.Freeze()
				// Histograms touch every row of the view, so a racing write
				// would trip the race detector.
				first := view.Histogram2D(0, 1)
				total := 0
				for _, row := range first {
					for _, c := range row {
						total += c
					}
				}
				if total != view.NumRows() || total%batch != 0 {
					t.Errorf("histogram counts %d rows, view has %d", total, view.NumRows())
					return
				}
				if again := view.Histogram2D(0, 1); !reflect.DeepEqual(again, first) {
					t.Error("a frozen view changed under concurrent appends")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := m.NumRows(); got != writers*rounds*batch {
		t.Fatalf("rows = %d, want %d", got, writers*rounds*batch)
	}
	view, _ := m.Freeze()
	if parts := numParts(view); parts != 3 {
		t.Fatalf("%d rows in %d parts, want 3", view.NumRows(), parts)
	}
	h := view.Histogram1D(0)
	for w := 0; w < writers; w++ {
		h[w%3] -= rounds * batch
	}
	if !reflect.DeepEqual(h, []int{0, 0, 0}) {
		t.Fatalf("attribute a counts off by %v from what the writers appended", h)
	}
}
