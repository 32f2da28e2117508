package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/query"
)

func box(attrs []int, ranges ...query.Range) Statistic {
	return Statistic{Attrs: attrs, Ranges: ranges}
}

// TestAddMultiRefusesSameSetOverlaps pins the disjointness check: overlaps
// within one attribute set are refused — also when the two statistics are
// not neighbours in the order of their first ranges, and when one of them
// was added by an earlier call — and the set is left as it was; overlaps
// across attribute sets are accepted.
func TestAddMultiRefusesSameSetOverlaps(t *testing.T) {
	ab, ac, abc := []int{0, 1}, []int{0, 2}, []int{0, 1, 2}
	wide := box(ab, query.NewRange(0, 3), query.Point(0))
	cases := []struct {
		name     string
		existing []Statistic
		added    []Statistic
		refused  string // "" when accepted
	}{
		{
			name:  "disjoint",
			added: []Statistic{wide, box(ab, query.Point(1), query.Point(1)), box(ab, query.NewRange(0, 3), query.NewRange(2, 3))},
		},
		{
			name:  "other attribute sets",
			added: []Statistic{wide, box(ac, query.NewRange(0, 3), query.Point(0)), box(abc, query.NewRange(0, 3), query.Point(0), query.Point(0))},
		},
		{
			// Sorted by first range the statistics are wide, [1,1], [2,2],
			// [3,3]: the overlap is between the first and the last.
			name: "not adjacent in the sort",
			added: []Statistic{
				wide,
				box(ab, query.Point(1), query.Point(1)),
				box(ab, query.Point(2), query.Point(1)),
				box(ab, query.Point(3), query.NewRange(0, 1)),
			},
			refused: fmt.Sprintf("stats: statistics %v and %v over the same attributes overlap", wide, box(ab, query.Point(3), query.NewRange(0, 1))),
		},
		{
			name:     "against an earlier call",
			existing: []Statistic{wide},
			added:    []Statistic{box(ab, query.Point(1), query.Point(2)), box(ab, query.NewRange(2, 3), query.NewRange(0, 1))},
			refused:  fmt.Sprintf("stats: statistics %v and %v over the same attributes overlap", wide, box(ab, query.NewRange(2, 3), query.NewRange(0, 1))),
		},
		{
			name:    "an overlap before a malformed statistic",
			added:   []Statistic{wide, wide, box([]int{1, 0}, query.Point(0), query.Point(0))},
			refused: fmt.Sprintf("stats: statistics %v and %v over the same attributes overlap", wide, wide),
		},
		{
			name:    "a malformed statistic before an overlap",
			added:   []Statistic{wide, box([]int{1, 0}, query.Point(0), query.Point(0)), wide},
			refused: "stats: statistic attributes must be sorted, got [1 0]",
		},
	}
	for _, tc := range cases {
		set := &Set{DomainSizes: []int{4, 4, 4}}
		if err := set.AddMulti(tc.existing...); err != nil {
			t.Fatalf("%s: existing statistics refused: %v", tc.name, err)
		}
		err := set.AddMulti(tc.added...)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refused == "" && len(set.Multi) != len(tc.existing)+len(tc.added):
			t.Errorf("%s: %d statistics after the call, want %d", tc.name, len(set.Multi), len(tc.existing)+len(tc.added))
		case tc.refused != "" && (err == nil || err.Error() != tc.refused):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.refused)
		case tc.refused != "" && len(set.Multi) != len(tc.existing):
			t.Errorf("%s: a refused call left %v, want %v", tc.name, set.Multi, tc.existing)
		}
	}
}

// TestAddMultiRefusesLikeAPairwiseCheck holds AddMulti to the check it
// replaced — each statistic in turn against every one before it — on random
// batches of small rectangles over three attribute sets: the same refusal,
// with the same text, or the same acceptance.
func TestAddMultiRefusesLikeAPairwiseCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := [][]int{{0, 1}, {0, 2}, {0, 1, 2}}
	sizes := []int{12, 10, 8}
	randomStatistic := func() Statistic {
		attrs := sets[rng.Intn(len(sets))]
		st := Statistic{Attrs: attrs}
		for _, a := range attrs {
			lo := rng.Intn(sizes[a])
			st.Ranges = append(st.Ranges, query.NewRange(lo, lo+rng.Intn(min(3, sizes[a]-lo))))
		}
		return st
	}
	refused, accepted := 0, 0
	for trial := 0; trial < 300; trial++ {
		set := &Set{DomainSizes: sizes}
		for call := 0; call < 4; call++ {
			batch := make([]Statistic, 1+rng.Intn(8))
			for k := range batch {
				batch[k] = randomStatistic()
			}
			want := pairwiseRefusal(set.Multi, batch)
			before := len(set.Multi)
			got := set.AddMulti(batch...)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d call %d: AddMulti = %v, pairwise check = %v", trial, call, got, want)
			}
			if got == nil {
				accepted++
			} else if refused++; len(set.Multi) != before {
				t.Fatalf("trial %d call %d: a refused call changed the set", trial, call)
			}
		}
	}
	if refused == 0 || accepted == 0 {
		t.Fatalf("%d batches refused, %d accepted: want both", refused, accepted)
	}
}

// pairwiseRefusal is the quadratic check AddMulti replaced: each new
// statistic against every statistic before it, in order.
func pairwiseRefusal(existing, added []Statistic) error {
	all := append([]Statistic(nil), existing...)
	for _, st := range added {
		for _, e := range all {
			if slices.Equal(e.Attrs, st.Attrs) && overlaps(e, st) {
				return fmt.Errorf("stats: statistics %v and %v over the same attributes overlap", e, st)
			}
		}
		all = append(all, st)
	}
	return nil
}
