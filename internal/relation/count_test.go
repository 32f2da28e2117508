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

// oraclePairTable counts the joint table of (a1, a2) row by row.
func oraclePairTable(rel *Relation, a1, a2 int) [][]int {
	out := make([][]int, rel.sch.Attr(a1).Size())
	for v := range out {
		out[v] = make([]int, rel.sch.Attr(a2).Size())
	}
	oracleRows(rel, nil, func(row []int) { out[row[a1]][row[a2]]++ })
	return out
}

// checkPairTables holds tables, counted for pairs, to the row oracle.
func checkPairTables(t *testing.T, name string, rel *Relation, pairs [][2]int, tables [][][]int) {
	t.Helper()
	if len(tables) != len(pairs) {
		t.Fatalf("%s: %d tables for %d pairs", name, len(tables), len(pairs))
	}
	for i, p := range pairs {
		if want := oraclePairTable(rel, p[0], p[1]); !reflect.DeepEqual(tables[i], want) {
			t.Fatalf("%s: the table of pair %v differs from a per-row count", name, p)
		}
	}
}

// TestPairTablesFoldBeforeWrap holds the overflow rule: a worker adds its
// cells into the tables before it has counted more rows than a cell
// holds. Counted into uint8 cells, which wrap after 255, a relation of
// more than three blocks whose rows crowd a few cells (thousands of rows
// each) must still count exactly, at every worker count.
func TestPairTablesFoldBeforeWrap(t *testing.T) {
	sch := schema.MustNew(
		schema.MustBinned("a", 0, 1, 3),
		schema.MustBinned("b", 0, 1, 40),
		schema.MustBinned("c", 0, 1, 2),
	)
	rng := rand.New(rand.NewSource(56))
	rel := oracleRelation(t, rng, sch, 3*blockRows+5000)
	pairs := [][2]int{{0, 2}, {1, 0}, {2, 2}, {0, 1}}
	if hot := oraclePairTable(rel, 0, 2)[0][0]; hot < 1000 {
		t.Fatalf("the hottest cell holds %d rows; want enough to wrap a uint8 many times", hot)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		name := fmt.Sprintf("GOMAXPROCS=%d", procs)
		checkPairTables(t, name+" uint8 cells", rel, pairs, pairTables[uint8](rel, pairs))
		checkPairTables(t, name, rel, pairs, rel.PairTables(pairs))
	}
}

// TestPairTablesCountInGroups holds the memory rule: pairs whose cells
// outgrow pairScratchCells are counted in consecutive groups, a pair
// larger than the bound alone, with the same tables as one pair at a
// time.
func TestPairTablesCountInGroups(t *testing.T) {
	sch := schema.MustNew(
		schema.MustBinned("a", 0, 1, 600),
		schema.MustBinned("b", 0, 1, 500),
		schema.MustBinned("c", 0, 1, 3),
		schema.MustBinned("d", 0, 1, 7),
	)
	if 600*500 <= pairScratchCells {
		t.Fatalf("pair (a, b) has %d cells, within the %d-cell bound", 600*500, pairScratchCells)
	}
	rel := oracleRelation(t, rand.New(rand.NewSource(57)), sch, 2*blockRows+20_000)
	pairs := [][2]int{{2, 3}, {0, 1}, {1, 3}, {0, 2}, {1, 0}, {3, 3}}
	want := [][2]int{{0, 1}, {1, 2}, {2, 4}, {4, 5}, {5, 6}}
	if got := rel.pairGroups(pairs); !reflect.DeepEqual(got, want) {
		t.Fatalf("pairGroups = %v, want %v", got, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		name := fmt.Sprintf("GOMAXPROCS=%d", procs)
		tables := rel.PairTables(pairs)
		checkPairTables(t, name, rel, pairs, tables)
		for i, p := range pairs {
			if one := rel.Histogram2D(p[0], p[1]); !reflect.DeepEqual(one, tables[i]) {
				t.Fatalf("%s: pair %v counted alone differs from its group's count", name, p)
			}
		}
	}
}
