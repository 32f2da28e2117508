package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
)

func sampleRelation(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	sch := schema.MustNew(
		schema.MustCategorical("a", []string{"x", "y", "z"}),
		schema.MustCategorical("b", []string{"p", "q"}),
	)
	rng := rand.New(rand.NewSource(99))
	rel := relation.NewWithCapacity(sch, rows)
	for i := 0; i < rows; i++ {
		rel.MustAppend([]int{rng.Intn(3), rng.Intn(2)})
	}
	return rel
}

// TestNilRNGIsDeterministic pins the injectable-randomness contract: a
// nil source falls back to DefaultSeed, so two default draws coincide.
func TestNilRNGIsDeterministic(t *testing.T) {
	rel := sampleRelation(t, 2000)
	u1, err := Uniform(rel, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := Uniform(rel, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u1.NumRows() != u2.NumRows() {
		t.Fatalf("default-seeded uniform samples differ: %d vs %d rows", u1.NumRows(), u2.NumRows())
	}
	for i := 0; i < u1.NumRows(); i++ {
		for a := 0; a < rel.NumAttrs(); a++ {
			if u1.Relation().Value(i, a) != u2.Relation().Value(i, a) {
				t.Fatalf("default-seeded uniform samples diverge at row %d", i)
			}
		}
	}
	s1, err := Stratified(rel, []int{0}, 0.1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Stratified(rel, []int{0}, 0.1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumRows() != s2.NumRows() {
		t.Fatalf("default-seeded stratified samples differ: %d vs %d rows", s1.NumRows(), s2.NumRows())
	}
	// A different seed draws a different sample (with overwhelming
	// probability at this size).
	u3, err := Uniform(rel, 0.1, rand.New(rand.NewSource(12345)))
	if err != nil {
		t.Fatal(err)
	}
	if u3.NumRows() == u1.NumRows() {
		same := true
		for i := 0; i < u1.NumRows() && same; i++ {
			for a := 0; a < rel.NumAttrs(); a++ {
				if u1.Relation().Value(i, a) != u3.Relation().Value(i, a) {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("differently seeded samples are identical")
		}
	}
}

// TestStratifiedWeightsAreUnbiasedOnTotals verifies the Horvitz-Thompson
// scaling: the weighted full count of a stratified sample equals the
// relation cardinality exactly (every stratum is scaled back to its true
// size).
func TestStratifiedWeightsAreUnbiasedOnTotals(t *testing.T) {
	rel := sampleRelation(t, 3000)
	s, err := Stratified(rel, []int{0, 1}, 0.05, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Count(nil); math.Abs(got-float64(rel.NumRows())) > 1e-6 {
		t.Fatalf("stratified full count = %g, want %d", got, rel.NumRows())
	}
	// Per-stratum counts are also exact by construction.
	for v := 0; v < 3; v++ {
		pred := query.NewPredicate(2).WhereEq(0, v)
		truth := float64(rel.Count(pred))
		if got := s.Count(pred); math.Abs(got-truth) > 1e-6 {
			t.Errorf("stratum a=%d: weighted count %g, want %g", v, got, truth)
		}
	}
}

// TestUniformGroupByConsistent checks that group-by estimates sum to the
// count estimate.
func TestUniformGroupByConsistent(t *testing.T) {
	rel := sampleRelation(t, 2000)
	s, err := Uniform(rel, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := s.GroupBy([]int{0}, nil)
	sum := 0.0
	for _, g := range groups {
		sum += g.Estimate
	}
	if math.Abs(sum-s.Count(nil)) > 1e-6 {
		t.Fatalf("group estimates sum to %g, count is %g", sum, s.Count(nil))
	}
}

// TestRateValidation pins the constructor error paths.
func TestRateValidation(t *testing.T) {
	rel := sampleRelation(t, 10)
	if _, err := Uniform(rel, 0, nil); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := Uniform(rel, 1.5, nil); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := Stratified(rel, nil, 0.5, 1, nil); err == nil {
		t.Error("no strata attributes accepted")
	}
}
