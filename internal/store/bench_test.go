package store_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/store"
	"repro/internal/summary"
)

// BenchmarkColdStart compares the two ways a serving process can obtain a
// query-ready estimator: rebuilding the full stats→polynomial→solver
// pipeline from the relation, versus restoring a snapshot. Rebuild cost
// grows with the relation; restore cost is O(summary bytes) and stays
// flat — the property the snapshot store exists for (and the BENCH.md
// cold-start table records). The restore runs beside the built model, as a
// node's restart-free reload, a time-travel restore or a replica install
// runs beside the generation it serves, so it measures a decode that takes
// the resident polynomial structure (polynomial.Shared) rather than
// building one.
func BenchmarkColdStart(b *testing.B) {
	for _, rows := range []int{20_000, 200_000, 1_000_000} {
		rel := experiment.SyntheticRelation(rows, rand.New(rand.NewSource(1)))

		b.Run(fmt.Sprintf("rebuild/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := summary.Build(rel, summary.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})

		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sum, err := summary.Build(rel, summary.Options{})
		if err != nil {
			b.Fatal(err)
		}
		info, err := st.Save("bench/maxent", sum)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("restore/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(info.Bytes)
			for i := 0; i < b.N; i++ {
				if _, _, err := st.Load("bench/maxent", 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		runtime.KeepAlive(sum)
	}
}
