package summary

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/solver"
)

// codecTestRelation builds a correlated relation large enough for the 2D
// statistics to matter, without depending on internal/experiment (which
// would create an import cycle through internal/server).
func codecTestRelation(t testing.TB, rows int, seed int64) *relation.Relation {
	t.Helper()
	sch := schema.MustNew(
		schema.MustCategorical("region", []string{"NA", "EU", "APAC", "LATAM"}),
		schema.MustCategorical("product", []string{"a", "b", "c", "d", "e", "f"}),
		schema.MustCategorical("channel", []string{"web", "store", "phone"}),
		schema.MustBinned("amount", 0, 1000, 8),
	)
	rng := rand.New(rand.NewSource(seed))
	rel := relation.NewWithCapacity(sch, rows)
	for i := 0; i < rows; i++ {
		region := rng.Intn(4)
		product := (region + rng.Intn(2)) % 6
		if rng.Float64() < 0.1 {
			product = rng.Intn(6)
		}
		channel := rng.Intn(3)
		if region == 2 && rng.Float64() < 0.5 {
			channel = 0
		}
		bin, err := sch.Attr(3).Bin(rng.Float64() * 1000)
		if err != nil {
			t.Fatal(err)
		}
		rel.MustAppend([]int{region, product, channel, bin})
	}
	return rel
}

// randomPredicate draws a random conjunction over the schema: each
// attribute independently unconstrained, an equality, a range, or a set.
func randomPredicate(sch *schema.Schema, rng *rand.Rand) *query.Predicate {
	p := query.NewPredicate(sch.NumAttrs())
	for a := 0; a < sch.NumAttrs(); a++ {
		n := sch.Attr(a).Size()
		switch rng.Intn(4) {
		case 1:
			p.WhereEq(a, rng.Intn(n))
		case 2:
			lo := rng.Intn(n)
			p.WhereRange(a, lo, lo+rng.Intn(n-lo))
		case 3:
			vals := make([]int, 1+rng.Intn(3))
			for i := range vals {
				vals[i] = rng.Intn(n)
			}
			p.WhereIn(a, vals...)
		}
	}
	return p
}

// roundTrip encodes est and decodes it back.
func roundTrip(t *testing.T, est core.Estimator) core.Estimator {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeEstimator(&buf, est); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeEstimator(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return dec
}

// TestCodecRoundTripBitIdentical is the codec's core property: a decoded
// summary answers a randomized workload of counting and group-by queries
// bit-identically to the estimator it was encoded from — no re-solve, no
// tolerance.
func TestCodecRoundTripBitIdentical(t *testing.T) {
	rel := codecTestRelation(t, 4000, 7)
	sum, err := Build(rel, Options{Solver: solver.Options{MaxSweeps: 60}})
	if err != nil {
		t.Fatal(err)
	}
	est := core.Estimator(sum)
	t.Run(est.Name(), func(t *testing.T) {
		dec := roundTrip(t, est)
		if dec.Name() != est.Name() {
			t.Fatalf("decoded name %q, want %q", dec.Name(), est.Name())
		}
		if dec.ApproxBytes() != est.ApproxBytes() {
			t.Errorf("decoded ApproxBytes %d, want %d", dec.ApproxBytes(), est.ApproxBytes())
		}
		rng := rand.New(rand.NewSource(42))
		for q := 0; q < 200; q++ {
			pred := randomPredicate(rel.Schema(), rng)
			want, err1 := est.EstimateCount(pred)
			got, err2 := dec.EstimateCount(pred)
			if err1 != nil || err2 != nil {
				t.Fatalf("query %d: errors %v / %v", q, err1, err2)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("query %d (%s): decoded count %v != original %v (diff %g)",
					q, pred, got, want, math.Abs(got-want))
			}
		}
		for q := 0; q < 20; q++ {
			pred := randomPredicate(rel.Schema(), rng)
			attrs := []int{rng.Intn(rel.NumAttrs())}
			want, err1 := est.EstimateGroupBy(attrs, pred)
			got, err2 := dec.EstimateGroupBy(attrs, pred)
			if err1 != nil || err2 != nil {
				t.Fatalf("group-by %d: errors %v / %v", q, err1, err2)
			}
			if len(want) != len(got) {
				t.Fatalf("group-by %d: %d groups decoded, want %d", q, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(want[i].Estimate) != math.Float64bits(got[i].Estimate) {
					t.Fatalf("group-by %d row %d: decoded %v != original %v",
						q, i, got[i].Estimate, want[i].Estimate)
				}
			}
		}
	})
}

// TestCodecRoundTripRebuildsPruningIndex pins the interaction between the
// codec and the term-pruned masked evaluation: a snapshot carries only the
// statistics and solved weights, so the decoder must rebuild the
// attribute→term pruning index (it does, through NewCompressed), and the
// restored estimator must answer selective predicates — the shapes the
// pruned path accelerates — bit-identically to the summary it was encoded
// from.
func TestCodecRoundTripRebuildsPruningIndex(t *testing.T) {
	rel := codecTestRelation(t, 3000, 17)
	sum, err := Build(rel, Options{Solver: solver.Options{MaxSweeps: 60}})
	if err != nil {
		t.Fatal(err)
	}
	dec := roundTrip(t, sum).(*Summary)

	// Selective shapes: 0/1/2/all constrained attributes, InRange and InSet
	// mixes, including a raw unsorted set with duplicates and an
	// out-of-domain value (canonicalized per query on both sides).
	m := rel.NumAttrs()
	rawSet := query.NewPredicate(m)
	rawSet.Where(2, query.Constraint{Kind: query.InSet, Values: []int{2, 0, 2, 5}})
	preds := []*query.Predicate{
		nil,
		query.NewPredicate(m).WhereEq(1, 3),
		query.NewPredicate(m).WhereRange(3, 2, 6),
		query.NewPredicate(m).WhereRange(0, 1, 2).WhereIn(2, 0, 2),
		query.NewPredicate(m).WhereEq(1, 2).WhereIn(3, 1, 4, 7),
		rawSet,
		query.NewPredicate(m).WhereEq(0, 2).WhereRange(1, 1, 4).WhereIn(2, 0, 1).WhereRange(3, 0, 5),
	}
	for i, pred := range preds {
		want, err1 := sum.EstimateCount(pred)
		got, err2 := dec.EstimateCount(pred)
		if err1 != nil || err2 != nil {
			t.Fatalf("pred %d: errors %v / %v", i, err1, err2)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("pred %d (%v): decoded count %v != original %v", i, pred, got, want)
		}
		for a := 0; a < m; a++ {
			wantG, err1 := sum.EstimateGroupBy([]int{a}, pred)
			gotG, err2 := dec.EstimateGroupBy([]int{a}, pred)
			if err1 != nil || err2 != nil {
				t.Fatalf("pred %d group-by %d: errors %v / %v", i, a, err1, err2)
			}
			if len(wantG) != len(gotG) {
				t.Fatalf("pred %d group-by %d: %d groups decoded, want %d", i, a, len(gotG), len(wantG))
			}
			for g := range wantG {
				if math.Float64bits(wantG[g].Estimate) != math.Float64bits(gotG[g].Estimate) {
					t.Fatalf("pred %d group-by %d row %d: decoded %v != original %v",
						i, a, g, gotG[g].Estimate, wantG[g].Estimate)
				}
			}
		}
	}
}

// TestCodecPreservesMetadata checks the reporting accessors survive the
// round trip: solver report, chosen pairs, schema rendering, and N.
func TestCodecPreservesMetadata(t *testing.T) {
	rel := codecTestRelation(t, 2000, 11)
	sum, err := Build(rel, Options{Solver: solver.Options{MaxSweeps: 40}})
	if err != nil {
		t.Fatal(err)
	}
	dec := roundTrip(t, sum).(*Summary)
	if dec.N() != sum.N() {
		t.Errorf("N: %v != %v", dec.N(), sum.N())
	}
	if dec.Schema().String() != sum.Schema().String() {
		t.Errorf("schema: %s != %s", dec.Schema(), sum.Schema())
	}
	// The solve's wall-clock time is deliberately not persisted.
	want := sum.SolverReport()
	want.Duration = 0
	if dec.SolverReport() != want {
		t.Errorf("report: %+v != %+v", dec.SolverReport(), want)
	}
	if len(dec.ChosenPairs()) != len(sum.ChosenPairs()) {
		t.Fatalf("pairs: %d != %d", len(dec.ChosenPairs()), len(sum.ChosenPairs()))
	}
	for i, pc := range sum.ChosenPairs() {
		if dec.ChosenPairs()[i] != pc {
			t.Errorf("pair %d: %+v != %+v", i, dec.ChosenPairs()[i], pc)
		}
	}
	if len(dec.Constraints()) != len(sum.Constraints()) {
		t.Errorf("constraints: %d != %d", len(dec.Constraints()), len(sum.Constraints()))
	}
}

// TestCodecRejectsGarbage checks the decoder fails loudly on inputs that
// are not snapshots: empty, unknown kind tags, and truncated payloads.
func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeEstimator(bytes.NewReader(nil)); err == nil {
		t.Error("decoding an empty stream succeeded")
	}
	if _, err := DecodeEstimator(bytes.NewReader([]byte{99})); err == nil {
		t.Error("decoding an unknown kind tag succeeded")
	}

	rel := codecTestRelation(t, 500, 3)
	sum, err := Build(rel, Options{Solver: solver.Options{MaxSweeps: 20}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeEstimator(&buf, sum); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must be rejected, never decoded into a partial
	// model. Step keeps the test fast while still covering field
	// boundaries.
	for cut := 0; cut < len(full)-1; cut += 17 {
		if _, err := DecodeEstimator(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("decoding a %d/%d-byte truncation succeeded", cut, len(full))
		}
	}
}

// TestCodecRefusesOverlappingStatistics pins the decoder's disjointness
// check: a snapshot in which two statistics over the same attributes
// overlap — the last of one pair's statistics given the first one's ranges
// — is refused, not decoded into a model the compression does not cover.
func TestCodecRefusesOverlappingStatistics(t *testing.T) {
	sum, err := Build(codecTestRelation(t, 2000, 5), Options{Solver: solver.Options{MaxSweeps: 5}})
	if err != nil {
		t.Fatal(err)
	}
	multi := slices.Clone(sum.Stats().Multi)
	last := -1
	for j := range multi {
		if slices.Equal(multi[j].Attrs, multi[0].Attrs) {
			last = j
		}
	}
	if last < 2 {
		t.Fatalf("the first pair has %d statistics, want at least 3", last+1)
	}
	multi[last].Ranges = slices.Clone(multi[0].Ranges)
	set := *sum.Stats()
	set.Multi = multi
	bad := *sum
	bad.set = &set
	var buf bytes.Buffer
	if err := EncodeEstimator(&buf, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEstimator(&buf); err == nil || !strings.Contains(err.Error(), "over the same attributes overlap") {
		t.Fatalf("decoding overlapping statistics: %v, want the overlap refused", err)
	}
}

// TestEncodeRejectsNonModelEstimators: the exact engine and samples hold
// data, not solved weights; they must be refused, not silently mangled.
func TestEncodeRejectsNonModelEstimators(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeEstimator(&buf, stubEstimator{})
	if err == nil {
		t.Fatal("encoding a non-model estimator succeeded")
	}
}

type stubEstimator struct{}

func (stubEstimator) Name() string { return "stub" }
func (stubEstimator) EstimateCount(*query.Predicate) (float64, error) {
	return 0, nil
}
func (stubEstimator) EstimateGroupBy([]int, *query.Predicate) ([]core.GroupEstimate, error) {
	return nil, nil
}
func (stubEstimator) ApproxBytes() int64 { return 0 }
