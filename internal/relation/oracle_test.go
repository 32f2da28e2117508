package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/schema"
)

// The oracle for every compiled scan: a plain loop over rows that reads a
// set constraint as membership in its value list, sorted or not.

func oracleAdmits(c query.Constraint, v int) bool {
	switch c.Kind {
	case query.InRange:
		return c.Range.Lo <= v && v <= c.Range.Hi
	case query.InSet:
		return slices.Contains(c.Values, v)
	default:
		return true
	}
}

func oracleRows(rel *Relation, pred *query.Predicate, visit func(row []int)) {
	row := make([]int, rel.NumAttrs())
rows:
	for i := range rel.NumRows() {
		row = rel.Row(i, row)
		if pred != nil {
			for _, a := range pred.ConstrainedAttrs() {
				if !oracleAdmits(pred.Constraint(a), row[a]) {
					continue rows
				}
			}
		}
		visit(row)
	}
}

func oracleCount(rel *Relation, pred *query.Predicate) int {
	n := 0
	oracleRows(rel, pred, func([]int) { n++ })
	return n
}

// groupCounts collects the groups rel.Groups yields into a map, the shape
// the oracle counts into.
func groupCounts(rel *Relation, groupAttrs []int, pred *query.Predicate) map[GroupKey]int {
	out := make(map[GroupKey]int)
	for vals, c := range rel.Groups(groupAttrs, pred) {
		out[MakeGroupKey(vals)] = c
	}
	return out
}

func oracleGroupCounts(rel *Relation, groupAttrs []int, pred *query.Predicate) map[GroupKey]int {
	out := make(map[GroupKey]int)
	vals := make([]int, len(groupAttrs))
	oracleRows(rel, pred, func(row []int) {
		for k, a := range groupAttrs {
			vals[k] = row[a]
		}
		out[MakeGroupKey(vals)]++
	})
	return out
}

// randomConstraint draws any constraint kind over a domain of n values:
// points and ranges in and out of the domain, empty ranges, and sets that
// are unsorted, hold duplicates, reach outside the domain or are empty.
// Sets are built as literals so they keep the order they were drawn in.
func randomConstraint(rng *rand.Rand, n int) query.Constraint {
	v := func() int { return rng.Intn(n+4) - 2 }
	switch rng.Intn(7) {
	case 0:
		return query.ValueEq(rng.Intn(n))
	case 1:
		lo := rng.Intn(n)
		return query.ValueIn(query.NewRange(lo, lo+rng.Intn(n)))
	case 2:
		return query.ValueIn(query.NewRange(v(), v()))
	case 3:
		return query.ValueIn(query.NewRange(0, n-1))
	case 4:
		return query.Constraint{Kind: query.InSet}
	default:
		vals := make([]int, 1+rng.Intn(5))
		for i := range vals {
			vals[i] = v()
		}
		return query.Constraint{Kind: query.InSet, Values: vals}
	}
}

func randomPredicate(rng *rand.Rand, sch *schema.Schema) *query.Predicate {
	if rng.Intn(5) == 0 {
		return nil
	}
	p := query.NewPredicate(sch.NumAttrs())
	for a, n := range sch.DomainSizes() {
		if rng.Intn(3) == 0 {
			p.Where(a, randomConstraint(rng, n))
		}
	}
	return p
}

// oracleRelation is a random relation of rows rows over sch, stored the way
// live ingestion stores it: a capped view of a first part, wrapped in a
// Mutable whose appends open further parts, frozen, then sliced so every
// part's first row moves.
func oracleRelation(t testing.TB, rng *rand.Rand, sch *schema.Schema, rows int) *Relation {
	sizes := sch.DomainSizes()
	tuple := func() []int {
		row := make([]int, len(sizes))
		for a, n := range sizes {
			// Skewed towards low values, so counts differ between cells.
			row[a] = min(rng.Intn(n), rng.Intn(n))
		}
		return row
	}
	first := rows / 3
	base := NewWithCapacity(sch, first+5)
	for range first + 5 {
		base.MustAppend(tuple())
	}
	view, err := base.Slice(0, first+5)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutable(view)
	for left := rows - first; left > 0; {
		batch := make([][]int, min(left, 1+rng.Intn(4000)))
		for i := range batch {
			batch[i] = tuple()
		}
		if _, err := m.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		left -= len(batch)
	}
	frozen, _ := m.Freeze()
	out, err := frozen.Slice(5, frozen.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompiledScansMatchRowOracle holds Count and Groups to the row
// oracle on multi-part relations, under every constraint kind, grouped by
// one to four attributes on both sides of the dense table's cap, with one
// and with two counting workers.
func TestCompiledScansMatchRowOracle(t *testing.T) {
	sch := schema.MustNew(
		schema.MustBinned("a", 0, 1, 7),
		schema.MustBinned("b", 0, 1, 12),
		schema.MustBinned("c", 0, 1, 300),
		schema.MustBinned("d", 0, 1, 3000),
		schema.MustBinned("e", 0, 1, 1),
	)
	rng := rand.New(rand.NewSource(46))
	rels := []*Relation{
		New(sch),
		oracleRelation(t, rng, sch, 900),
		oracleRelation(t, rng, sch, 2*blockRows+20_000),
	}
	if parts := len(rels[2].parts); parts < 3 {
		t.Fatalf("the large relation has %d parts, want blocks across part boundaries", parts)
	}
	groupings := [][]int{{0}, {3}, {4}, {1, 0}, {2, 3}, {0, 1, 2}, {3, 1, 0}, {0, 1, 4, 2}, {3, 2, 1, 0}, {1, 1}}
	paths := map[bool]int{} // dense or not -> groupings checked
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for r, rel := range rels {
			for q := range 12 {
				pred := randomPredicate(rng, sch)
				name := fmt.Sprintf("GOMAXPROCS=%d relation %d (%d rows) predicate %v", procs, r, rel.NumRows(), pred)
				if got, want := rel.Count(pred), oracleCount(rel, pred); got != want {
					t.Fatalf("%s: Count = %d, oracle %d", name, got, want)
				}
				attrs := groupings[q%len(groupings)]
				if got, want := groupCounts(rel, attrs, pred), oracleGroupCounts(rel, attrs, pred); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Groups(%v) has %d groups, oracle %d", name, attrs, len(got), len(want))
				}
				_, dense := rel.groupStrides(attrs)
				paths[dense]++
			}
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("dense and map paths checked %d and %d times; want both", paths[true], paths[false])
	}
}

// TestGroupStridesRefuseWideSpaces: four attributes of 65,536 values span
// 2^64 cells, which no int holds; the cap is checked without forming the
// product.
func TestGroupStridesRefuseWideSpaces(t *testing.T) {
	wide := make([]schema.Attribute, 4)
	for a := range wide {
		wide[a] = schema.MustBinned(fmt.Sprint("w", a), 0, 1, 65536)
	}
	rel := NewWithCapacity(schema.MustNew(wide...), 1)
	rel.MustAppend([]int{65535, 0, 1, 65535})
	if _, ok := rel.groupStrides([]int{0, 1, 2, 3}); ok {
		t.Fatal("a 2^64-cell group space was admitted as dense")
	}
	got := groupCounts(rel, []int{0, 1, 2, 3}, nil)
	if want := map[GroupKey]int{MakeGroupKey([]int{65535, 0, 1, 65535}): 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Groups = %v, want %v", got, want)
	}
}

// FuzzGroupCounts holds Count and Groups to the row oracle on small
// two-part relations: the seed draws the rows, the bytes the predicate
// (four per constraint: attribute, kind, two values) and the grouping.
func FuzzGroupCounts(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0b0011), []byte{0, 1, 2, 5})
	f.Add(int64(2), uint16(5000), uint8(0b1111), []byte{1, 2, 9, 3, 3, 0, 2, 2})
	f.Add(int64(3), uint16(0), uint8(0b0100), []byte{})
	f.Add(int64(4), uint16(64), uint8(0b1000), []byte{2, 3, 0, 0, 0, 1, 4, 1})
	sch := schema.MustNew(
		schema.MustBinned("a", 0, 1, 5),
		schema.MustBinned("b", 0, 1, 9),
		schema.MustBinned("c", 0, 1, 40),
		schema.MustBinned("d", 0, 1, 3),
	)
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, groupMask uint8, predBytes []byte) {
		rel := oracleRelation(t, rand.New(rand.NewSource(seed)), sch, int(rows%6000))
		var pred *query.Predicate
		if len(predBytes) > 0 {
			pred = query.NewPredicate(sch.NumAttrs())
		}
		for ; len(predBytes) >= 4; predBytes = predBytes[4:] {
			a := int(predBytes[0]) % sch.NumAttrs()
			x, y := int(int8(predBytes[2])), int(int8(predBytes[3]))
			switch predBytes[1] % 3 {
			case 0:
				pred.Where(a, query.ValueIn(query.NewRange(x, y)))
			case 1:
				pred.Where(a, query.Constraint{Kind: query.InSet, Values: []int{x, y}})
			default:
				pred.Where(a, query.Constraint{Kind: query.InSet})
			}
		}
		var attrs []int
		for a := range sch.NumAttrs() {
			if groupMask&(1<<a) != 0 {
				attrs = append(attrs, a)
			}
		}
		if got, want := rel.Count(pred), oracleCount(rel, pred); got != want {
			t.Fatalf("Count(%v) = %d, oracle %d", pred, got, want)
		}
		if len(attrs) == 0 {
			return
		}
		if got, want := groupCounts(rel, attrs, pred), oracleGroupCounts(rel, attrs, pred); !reflect.DeepEqual(got, want) {
			t.Fatalf("Groups(%v, %v) = %v, oracle %v", attrs, pred, got, want)
		}
	})
}
