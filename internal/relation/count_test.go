package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/schema"
)

// TestHistogramsMatchSequentialCount holds the block-split counting to an
// inline row-by-row count at every worker count the split can choose: row
// counts on both sides of one and two blocks, several blocks with a ragged
// last one, and a slice view that starts mid-column, so that every block's
// offset is shifted.
func TestHistogramsMatchSequentialCount(t *testing.T) {
	sch := schema.MustNew(
		schema.MustBinned("a", 0, 1, 7),
		schema.MustBinned("b", 0, 1, 300),
		schema.MustBinned("c", 0, 1, 13),
	)
	const most = 5*blockRows + 4321
	rng := rand.New(rand.NewSource(33))
	full := NewWithCapacity(sch, most+1000)
	sizes := sch.DomainSizes()
	tuple := make([]int, len(sizes))
	for i := 0; i < most+1000; i++ {
		for a, n := range sizes {
			// Skewed, so neighbouring blocks count different things.
			tuple[a] = (rng.Intn(n) * (i % 5)) % n
		}
		full.MustAppend(tuple)
	}
	var views []*Relation
	for _, rows := range []int{0, 1, blockRows - 1, blockRows, 2*blockRows + 1, most} {
		v, err := full.Slice(0, rows)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	shifted, err := full.Slice(777, most+777)
	if err != nil {
		t.Fatal(err)
	}
	views = append(views, shifted)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for k, rel := range views {
			name := fmt.Sprintf("GOMAXPROCS=%d view %d (%d rows)", procs, k, rel.NumRows())
			for a, n := range sizes {
				want := make([]int, n)
				for i := 0; i < rel.NumRows(); i++ {
					want[rel.Value(i, a)]++
				}
				if got := rel.Histogram1D(a); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Histogram1D(%d) differs from a sequential count", name, a)
				}
				for b, n2 := range sizes {
					if b == a {
						continue
					}
					want := make([][]int, n)
					for v := range want {
						want[v] = make([]int, n2)
					}
					for i := 0; i < rel.NumRows(); i++ {
						want[rel.Value(i, a)][rel.Value(i, b)]++
					}
					if got := rel.Histogram2D(a, b); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Histogram2D(%d, %d) differs from a sequential count", name, a, b)
					}
				}
			}
		}
	}
}
