package query

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// The frames under testdata/ were written by the wire format as it stands
// and must never be regenerated: every other codec test is a round trip,
// which a change to the format itself — encoder and decoder changed
// together — would still pass.

// fixtureItems is the batch in batch_v1.bin and batch_v2.bin: equality,
// range and set constraints, a two-attribute and a predicate-free group-by,
// and a full-cardinality count.
func fixtureItems() []BatchItem {
	return []BatchItem{
		{Pred: NewPredicate(5).WhereEq(0, 3).WhereRange(2, 1, 9)},
		{Pred: NewPredicate(5).WhereIn(1, 4, 0, 7).WhereRange(4, 300, 70000)},
		{GroupBy: []int{3, 1}, Pred: NewPredicate(5).WhereEq(4, 2)},
		{GroupBy: []int{2}},
		{},
	}
}

// fixtureAnswers are the answers in answers.bin: counts, cached or not,
// group-bys with and without groups, and an error.
func fixtureAnswers() []BatchAnswer {
	return []BatchAnswer{
		{Count: 2543.555686595755, Cached: true},
		{Count: 0},
		{IsGroup: true, Groups: []BatchGroup{{Values: []int{1, 0}, Estimate: 17.25}, {Values: []int{3, 200}, Estimate: 1e-9}}},
		{IsGroup: true, Cached: true},
		{Error: "attribute 7 out of range [0,5)"},
	}
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBatchFormatFixtures(t *testing.T) {
	for _, tc := range []struct {
		file    string
		version int
	}{{"batch_v1.bin", 0}, {"batch_v2.bin", 12}} {
		want := readFixture(t, tc.file)
		est, version, items, err := DecodeBatchAt(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if est != "flights/maxent" || version != tc.version || len(items) != len(fixtureItems()) {
			t.Fatalf("%s: decoded %q v%d with %d items", tc.file, est, version, len(items))
		}
		for i, it := range fixtureItems() {
			got := items[i]
			if !slices.Equal(got.GroupBy, it.GroupBy) || (got.Pred == nil) != (it.Pred == nil) || (it.Pred != nil && !got.Pred.Equal(it.Pred)) {
				t.Errorf("%s: item %d decoded as %+v, want %+v", tc.file, i, got, it)
			}
		}
		again, err := AppendBatchAt(nil, est, version, items)
		if err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: re-encoded to %x (%v), want %x", tc.file, again, err, want)
		}
		fresh, err := AppendBatchAt(nil, "flights/maxent", tc.version, fixtureItems())
		if err != nil || !bytes.Equal(fresh, want) {
			t.Errorf("%s: the batch encodes to %x (%v), want %x", tc.file, fresh, err, want)
		}
	}
}

func TestAnswerFormatFixture(t *testing.T) {
	want := readFixture(t, "answers.bin")
	est, answers, err := DecodeAnswers(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if est != "flights/maxent" || !reflect.DeepEqual(answers, fixtureAnswers()) {
		t.Fatalf("decoded %q %+v, want %+v", est, answers, fixtureAnswers())
	}
	again, err := AppendAnswers(nil, est, answers)
	if err != nil || !bytes.Equal(again, want) {
		t.Errorf("re-encoded to %x (%v), want %x", again, err, want)
	}
}
