package store_test

import (
	"fmt"
	"os"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/summary"
)

// Example shows the snapshot lifecycle: build a summary once, save it as
// an immutable versioned snapshot, and restore a query-ready estimator in
// a (conceptually) different process — no relation, no solver, answers
// bit-identical to the original.
func Example() {
	dir, err := os.MkdirTemp("", "snapshots-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Build once, from data.
	sch := schema.MustNew(
		schema.MustCategorical("color", []string{"red", "green", "blue"}),
		schema.MustCategorical("size", []string{"S", "M", "L"}),
	)
	rel := relation.New(sch)
	for i := 0; i < 90; i++ {
		rel.MustAppend([]int{i % 3, (i / 3) % 3})
	}
	sum, err := summary.Build(rel, summary.Options{PairBudget: -1})
	if err != nil {
		panic(err)
	}

	// Persist: versions are monotonic, writes are atomic.
	st, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	info, err := st.Save("demo/maxent", sum)
	if err != nil {
		panic(err)
	}
	fmt.Printf("saved v%d (%d bytes)\n", info.Version, info.Bytes)

	// Restore (the cold-start path): O(summary bytes), no re-solve.
	est, _, err := st.Load("demo/maxent", 0)
	if err != nil {
		panic(err)
	}
	pred := query.NewPredicate(2).WhereEq(0, 0)
	orig, _ := sum.EstimateCount(pred)
	restored, _ := est.EstimateCount(pred)
	fmt.Printf("bit-identical answers: %v\n", orig == restored)
	// Output:
	// saved v1 (187 bytes)
	// bit-identical answers: true
}
