package summary

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/solver"
)

// testdata/snapshot.bin is the payload of a small solved model — 500 rows
// of codecTestRelation, 20 sweeps — written by the codec as it stands. It
// must never be regenerated: every other codec test is a round trip, which
// a change to the payload layout would still pass.
func readSnapshotFixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSnapshotFormatFixture(t *testing.T) {
	want := readSnapshotFixture(t)
	est, err := DecodeEstimator(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	sum := est.(*Summary)
	if name, err := PeekName(want); err != nil || name != sum.Name() {
		t.Errorf("PeekName = %q, %v; decoded %q", name, err, sum.Name())
	}
	if sum.Name() != "maxent[LARGE,Ba=2,Bs=8]" || sum.N() != 500 || sum.Schema().NumAttrs() != 4 ||
		len(sum.Stats().Multi) != 16 || len(sum.ChosenPairs()) != 2 || sum.SolverReport().Sweeps != 20 {
		t.Errorf("decoded %s over %g rows: %d attributes, %d statistics, %d pairs, %d sweeps",
			sum.Name(), sum.N(), sum.Schema().NumAttrs(), len(sum.Stats().Multi), len(sum.ChosenPairs()), sum.SolverReport().Sweeps)
	}
	var again bytes.Buffer
	if err := EncodeEstimator(&again, sum); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Errorf("re-encoded to %d bytes that differ from the fixture's %d", again.Len(), len(want))
	}
}

// FuzzDecodeEstimator feeds the snapshot decoder mutated payloads. It must
// never panic, and a payload it accepts is the one encoding of its model:
// it re-encodes to the same bytes.
func FuzzDecodeEstimator(f *testing.F) {
	sum, err := Build(codecTestRelation(f, 300, 11), Options{Solver: solver.Options{MaxSweeps: 5}})
	if err != nil {
		f.Fatal(err)
	}
	var built bytes.Buffer
	if err := EncodeEstimator(&built, sum); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{built.Bytes(), readSnapshotFixture(f)} {
		f.Add(seed)
		for cut := 0; cut < len(seed); cut += len(seed)/8 + 1 {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		est, err := DecodeEstimator(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := EncodeEstimator(&again, est); err != nil {
			t.Fatalf("an accepted payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("an accepted %d-byte payload re-encoded to %d different bytes", len(data), again.Len())
		}
	})
}
