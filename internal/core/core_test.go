package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestSortGroupEstimatesMatchesSortSlice sorts random group-by answers with
// many equal estimates both with SortGroupEstimates and with the sort.Slice
// comparator it replaced: distinct values make the order total, so the two
// must agree element for element.
func TestSortGroupEstimatesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(3)
		seen := make(map[GroupKey]bool)
		var groups []GroupEstimate
		// Up to every one of the 8^width groups.
		for n := rng.Intn(1 << (3 * width)); len(groups) < n; {
			values := make([]int, width)
			for i := range values {
				values[i] = rng.Intn(8)
			}
			if k := MakeGroupKey(values); !seen[k] {
				seen[k] = true
				// Four estimates in all: most groups tie with others.
				groups = append(groups, GroupEstimate{Values: values, Estimate: float64(rng.Intn(4))})
			}
		}
		want := append([]GroupEstimate(nil), groups...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Estimate != want[j].Estimate {
				return want[i].Estimate > want[j].Estimate
			}
			a, b := want[i].Values, want[j].Values
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
		got := append([]GroupEstimate(nil), groups...)
		SortGroupEstimates(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d groups of width %d): the two sorts disagree", trial, len(groups), width)
		}
	}
}
