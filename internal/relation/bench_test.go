package relation

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/schema"
)

// benchRelation is a skewed 1M-row relation with the benchmark's domain
// sizes (date 307, two airports of 54, time 62, distance 81), so attributes
// 1, 2 and 4 span the 236,196-cell group space of its widest accuracy
// template. Each value is the smallest of three uniform draws, so low
// values are common and high ones rare, and the airports are correlated.
var benchRelation = sync.OnceValue(func() *Relation {
	const rows = 1 << 20
	sizes := []int{307, 54, 54, 62, 81}
	attrs := make([]schema.Attribute, len(sizes))
	for a, n := range sizes {
		attrs[a] = schema.MustBinned(string(rune('a'+a)), 0, 1, n)
	}
	rel := NewWithCapacity(schema.MustNew(attrs...), rows)
	rng := rand.New(rand.NewSource(46))
	skewed := func(n int) int { return min(rng.Intn(n), rng.Intn(n), rng.Intn(n)) }
	tuple := make([]int, len(sizes))
	for range rows {
		for a, n := range sizes {
			tuple[a] = skewed(n)
		}
		tuple[2] = (tuple[1] + tuple[2]) % sizes[2]
		rel.MustAppend(tuple)
	}
	return rel
})

// BenchmarkCount is one exact count over 1M rows under one, two and three
// constrained attributes (a point, a range, a set).
func BenchmarkCount(b *testing.B) {
	rel := benchRelation()
	preds := []struct {
		name string
		pred *query.Predicate
	}{
		{"1attr", query.NewPredicate(5).WhereEq(1, 3)},
		{"2attr", query.NewPredicate(5).WhereEq(1, 3).WhereRange(4, 10, 40)},
		{"3attr", query.NewPredicate(5).WhereEq(1, 3).WhereRange(4, 10, 40).WhereIn(0, 1, 5, 9, 200)},
	}
	for _, p := range preds {
		b.Run(p.name, func(b *testing.B) {
			for range b.N {
				rel.Count(p.pred)
			}
		})
	}
}

// BenchmarkGroupCounts is one exact group-by over 1M rows by one, two and
// three attributes; 3attr is the 236,196-cell space.
func BenchmarkGroupCounts(b *testing.B) {
	rel := benchRelation()
	for _, g := range []struct {
		name  string
		attrs []int
	}{
		{"1attr", []int{1}},
		{"2attr", []int{1, 2}},
		{"3attr", []int{1, 2, 4}},
	} {
		b.Run(g.name, func(b *testing.B) {
			for range b.N {
				for range rel.Groups(g.attrs, nil) {
				}
			}
		})
	}
}
