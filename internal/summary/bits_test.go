package summary

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/polynomial"
	"repro/internal/solver"
)

// systemBits hashes the bits of every α and δ of a system, in the order of
// systemValues.
func systemBits(sys *polynomial.System) uint64 {
	h := fnv.New64a()
	put := func(x float64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
	alpha, delta := systemValues(sys)
	for _, col := range alpha {
		for _, x := range col {
			put(x)
		}
	}
	for _, x := range delta {
		put(x)
	}
	return h.Sum64()
}

// TestSolveBitsPinned pins the bits of the weights the solver leaves: the
// default cold 30-sweep solve of the benchmark-shaped model and of its wide
// variant, and one warm Fold of a 300-row delta into the former. A change to
// the term caches or the solver that claims to keep every float the same
// must keep these hashes. Other architectures may fuse multiply-adds, so the
// constants hold on amd64 only.
func TestSolveBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pinned bits are those of amd64, not %s", runtime.GOARCH)
	}
	cold := func(sum *Summary) *polynomial.System {
		sys := polynomial.NewSystem(sum.System().Poly())
		if _, err := solver.Solve(sys, sum.Constraints(), solver.Options{N: sum.N(), MaxSweeps: 30}); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	flights := flightsShapedSummary(t, 300, 0)
	folded, info, err := flights.Fold(flightsShapedRelation(t, 300, 8, 0), RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rebuilt {
		t.Fatal("a 300-row fold must warm-start")
	}
	for _, c := range []struct {
		name string
		sys  *polynomial.System
		want uint64
	}{
		{"flights cold solve", cold(flights), 0xde8803101ef0e0fc},
		{"wide cold solve", cold(flightsShapedSummary(t, 300, 3)), 0xb6b7dcfca98f8996},
		{"flights fold", folded.System(), 0xbe15b57c8bb49184},
	} {
		if got := systemBits(c.sys); got != c.want {
			t.Errorf("%s: weights hash to %#x, want %#x", c.name, got, c.want)
		}
	}
}
