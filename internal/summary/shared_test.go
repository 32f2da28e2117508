package summary

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/stats"
)

// encodeBytes returns the snapshot payload of a summary.
func encodeBytes(t *testing.T, s *Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeEstimator(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBytes decodes a snapshot payload into a summary.
func decodeBytes(t *testing.T, data []byte) *Summary {
	t.Helper()
	est, err := DecodeEstimator(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return est.(*Summary)
}

// answerBits returns the bits of every probe's masked evaluation and count
// estimate, and of P.
func answerBits(t *testing.T, s *Summary, probes []*query.Predicate) []uint64 {
	t.Helper()
	out := []uint64{math.Float64bits(s.System().Total())}
	for _, pred := range probes {
		c, err := s.EstimateCount(pred)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, math.Float64bits(s.System().Eval(pred)), math.Float64bits(c))
	}
	return out
}

// awaitCollected collects until the structure table holds no entry for the
// structure of (sizes, specs): its last model is gone and the entry's
// cleanup has run. It fails the test if that does not happen.
func awaitCollected(t *testing.T, sizes []int, specs []polynomial.MultiStatSpec) {
	t.Helper()
	for range 500 {
		runtime.GC()
		if live, filed := polynomial.Resident(sizes, specs); live == nil && !filed {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	live, filed := polynomial.Resident(sizes, specs)
	t.Fatalf("structure still in the table after collections: live %t, filed %t", live != nil, filed)
}

// decodeFresh decodes a snapshot once no model of its structure is
// resident, and checks that the decode missed: it built and recorded the
// polynomial now filed under the structure.
func decodeFresh(t *testing.T, data []byte, sizes []int, specs []polynomial.MultiStatSpec) *Summary {
	t.Helper()
	awaitCollected(t, sizes, specs)
	dec := decodeBytes(t, data)
	if live, _ := polynomial.Resident(sizes, specs); live != dec.System().Poly() {
		t.Fatal("a fresh decode did not record the polynomial it built")
	}
	return dec
}

// checkSharedDecodeMatchesFresh is the end of TestRestoreEquivalenceFlightsShape:
// dec was decoded from snap while the built model was resident, so it
// shares that model's structure. Once every model of the structure is gone,
// a fresh decode must answer every probe and re-encode exactly like dec.
func checkSharedDecodeMatchesFresh(t *testing.T, snap []byte, shared []uint64, reencoded []byte,
	probes []*query.Predicate, sizes []int, specs []polynomial.MultiStatSpec) {
	t.Helper()
	fresh := decodeFresh(t, snap, sizes, specs)
	if got := answerBits(t, fresh, probes); !slices.Equal(got, shared) {
		t.Fatalf("fresh decode answers %v, shared-structure decode %v", got, shared)
	}
	if !bytes.Equal(encodeBytes(t, fresh), reencoded) {
		t.Fatal("a fresh decode re-encodes to other bytes than a shared-structure decode")
	}
}

// TestDecodeMissesAfterLastModelCollected drops every model of a structure:
// the table's entry must go with the last one, and the next decode must
// build the structure again.
func TestDecodeMissesAfterLastModelCollected(t *testing.T) {
	sum, err := Build(codecTestRelation(t, 4000, 13), Options{Solver: solver.Options{MaxSweeps: 60}})
	if err != nil {
		t.Fatal(err)
	}
	sizes, specs := sum.Stats().DomainSizes, sum.Stats().MultiSpecs()
	snap := encodeBytes(t, sum)
	if dec := decodeBytes(t, snap); dec.System().Poly() != sum.System().Poly() {
		t.Fatal("a decode beside the built model did not share its structure")
	}
	decodeFresh(t, snap, sizes, specs)
}

// TestDecodeNeverSharesAChangedStructure decodes snapshots whose structure
// differs from a resident model's by one bound of one statistic, and by the
// domain size of one attribute: neither may take the resident structure.
func TestDecodeNeverSharesAChangedStructure(t *testing.T) {
	sum, err := Build(codecTestRelation(t, 4000, 17), Options{Heuristic: stats.Composite, Solver: solver.Options{MaxSweeps: 60}})
	if err != nil {
		t.Fatal(err)
	}
	resident := sum.System().Poly()

	// One bound: shrink the first multi-attribute range that can shrink.
	bound := *sum
	bound.set = sum.set.Clone()
	j, k := -1, -1
	for jj, st := range bound.set.Multi {
		for kk, r := range st.Ranges {
			if j < 0 && r.Hi > r.Lo {
				j, k = jj, kk
			}
		}
	}
	if j < 0 {
		t.Fatal("no statistic has a range to shrink")
	}
	st := &bound.set.Multi[j]
	st.Ranges = slices.Clone(st.Ranges)
	st.Ranges[k].Hi--
	dec := decodeBytes(t, encodeBytes(t, &bound))
	if dec.System().Poly() == resident {
		t.Fatal("a snapshot with one bound changed shared the resident structure")
	}
	if got := dec.System().Poly().MultiStat(j).Ranges[k]; got != st.Ranges[k] {
		t.Fatalf("decoded statistic %d range %d = %v, want %v", j, k, got, st.Ranges[k])
	}

	// One domain size: widen the binned amount attribute by one bin, whose
	// weight is 0.
	wide := *sum
	attrs := make([]schema.Attribute, sum.sch.NumAttrs())
	for a := range attrs {
		attrs[a] = sum.sch.Attr(a)
	}
	last := len(attrs) - 1
	lo, hi := attrs[last].Bounds()
	attrs[last] = schema.MustBinned(attrs[last].Name(), lo, hi, attrs[last].Size()+1)
	wide.sch = schema.MustNew(attrs...)
	wide.set = sum.set.Clone()
	wide.set.DomainSizes = wide.sch.DomainSizes()
	wide.set.OneD[last] = append(slices.Clone(wide.set.OneD[last]), 0)
	alpha, delta := systemValues(sum.System())
	alpha[last] = append(alpha[last], 0)
	poly, err := polynomial.NewCompressed(wide.set.DomainSizes, wide.set.MultiSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if wide.sys, err = polynomial.NewSystemFrom(poly, alpha, delta); err != nil {
		t.Fatal(err)
	}
	dec = decodeBytes(t, encodeBytes(t, &wide))
	if dec.System().Poly() == resident {
		t.Fatal("a snapshot with one domain size changed shared the resident structure")
	}
	if got := dec.System().Poly().DomainSizes()[last]; got != attrs[last].Size() {
		t.Fatalf("decoded domain size %d, want %d", got, attrs[last].Size())
	}
	runtime.KeepAlive(sum)
}

// TestSharedStructureConcurrentDecode decodes one snapshot from 8 goroutines
// at once while no model of its structure is resident: they must answer
// alike and like the built model, each hold a structure equal to the built
// one, and leave the table filing one of them.
func TestSharedStructureConcurrentDecode(t *testing.T) {
	sum, err := Build(codecTestRelation(t, 4000, 19), Options{Solver: solver.Options{MaxSweeps: 60}})
	if err != nil {
		t.Fatal(err)
	}
	sizes, specs := sum.Stats().DomainSizes, sum.Stats().MultiSpecs()
	terms := sum.System().Poly().NumTerms()
	snap := encodeBytes(t, sum)
	rng := rand.New(rand.NewSource(3))
	probes := make([]*query.Predicate, 16)
	for i := range probes {
		probes[i] = randomPredicate(sum.Schema(), rng)
	}
	want := answerBits(t, sum, probes)
	awaitCollected(t, sizes, specs)

	const decoders = 8
	decoded := make([]*Summary, decoders)
	errs := make([]error, decoders)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range decoders {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			est, err := DecodeEstimator(bytes.NewReader(snap))
			if err != nil {
				errs[g] = err
				return
			}
			decoded[g] = est.(*Summary)
		}()
	}
	start.Done()
	done.Wait()
	live, _ := polynomial.Resident(sizes, specs)
	filed := false
	for g := range decoders {
		if errs[g] != nil {
			t.Fatalf("decoder %d: %v", g, errs[g])
		}
		if got := answerBits(t, decoded[g], probes); !slices.Equal(got, want) {
			t.Fatalf("decoder %d answers %v, the built model %v", g, got, want)
		}
		poly := decoded[g].System().Poly()
		if !slices.Equal(poly.DomainSizes(), sizes) || poly.NumMultiStats() != len(specs) || poly.NumTerms() != terms {
			t.Fatalf("decoder %d holds a structure other than the built one", g)
		}
		for j, b := range specs {
			if d := poly.MultiStat(j); !slices.Equal(d.Attrs, b.Attrs) || !slices.Equal(d.Ranges, b.Ranges) {
				t.Fatalf("decoder %d statistic %d is %v, built %v", g, j, d, b)
			}
		}
		filed = filed || poly == live
	}
	if !filed {
		t.Fatal("the table files no decoder's polynomial for the structure")
	}
}
