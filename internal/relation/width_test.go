package relation

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/schema"
)

// wideSchema has one attribute at the widest domain a column can encode and
// one narrow one.
func wideSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustBinned("wide", 0, 1<<16, 1<<16),
		schema.MustCategorical("narrow", []string{"x", "y"}),
	)
}

// TestTopValueRoundTrips pins that the narrower column loses nothing at the
// top of the widest domain: value 65535 goes in through Append and
// Mutable.AppendRows and comes back out of Value, Row, Column, Slice and
// Select unchanged — and 65536 is refused rather than wrapped to 0.
func TestTopValueRoundTrips(t *testing.T) {
	const top = 1<<16 - 1
	rel := New(wideSchema())
	if err := rel.Append([]int{top, 1}); err != nil {
		t.Fatal(err)
	}
	if err := rel.Append([]int{1 << 16, 0}); err == nil || !strings.Contains(err.Error(), "out of domain") {
		t.Errorf("Append(65536) = %v, want it refused", err)
	}
	m := NewMutable(rel)
	if _, err := m.AppendRows([][]int{{0, 0}, {top, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendRows([][]int{{1 << 16, 0}}); err == nil {
		t.Error("AppendRows(65536) accepted")
	}
	frozen, _ := m.Freeze()

	check := func(what string, r *Relation, want [][]int) {
		t.Helper()
		if r.NumRows() != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, r.NumRows(), len(want))
		}
		for i, w := range want {
			if got := r.Row(i, nil); fmt.Sprint(got) != fmt.Sprint(w) {
				t.Errorf("%s: Row(%d) = %v, want %v", what, i, got, w)
			}
			if got := r.Value(i, 0); got != w[0] {
				t.Errorf("%s: Value(%d, 0) = %d, want %d", what, i, got, w[0])
			}
			if got := int(r.Column(0)[i]); got != w[0] {
				t.Errorf("%s: Column(0)[%d] = %d, want %d", what, i, got, w[0])
			}
		}
	}
	check("frozen", frozen, [][]int{{top, 1}, {0, 0}, {top, 0}})
	slice, err := frozen.Slice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("slice", slice, [][]int{{0, 0}, {top, 0}})
	check("select", frozen.Select([]int{2, 0}), [][]int{{top, 0}, {top, 1}})
	if got := frozen.Histogram1D(0)[top]; got != 2 {
		t.Errorf("Histogram1D(0)[65535] = %d, want 2", got)
	}
	if got, want := frozen.ApproxBytes(), int64(3*2*2); got != want {
		t.Errorf("ApproxBytes = %d, want %d (2 bytes per value)", got, want)
	}
}

// TestLoadCSVAtTheDomainCap loads a numeric column into 65536 bins, so its
// maximum encodes as 65535, and checks that asking LoadCSV for a wider
// domain — more bins, or more distinct labels under a raised
// MaxCategories — fails with the schema's own message.
func TestLoadCSVAtTheDomainCap(t *testing.T) {
	rel, err := LoadCSV(strings.NewReader("v,l\n0,a\n1,b\n"), CSVOptions{Bins: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Value(1, 0); got != 1<<16-1 {
		t.Errorf("the column maximum encoded as %d, want 65535", got)
	}

	_, want := schema.NewBinned("v", 0, 1, 1<<16+1)
	if _, err := LoadCSV(strings.NewReader("v\n0\n1\n"), CSVOptions{Bins: 1<<16 + 1}); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("LoadCSV with 65537 bins: %v, want %q", err, want)
	}

	var csv strings.Builder
	labels := make([]string, 1<<16+1)
	csv.WriteString("l\n")
	for i := range labels {
		labels[i] = fmt.Sprintf("k%06d", i)
		csv.WriteString(labels[i] + "\n")
	}
	_, want = schema.NewCategorical("l", labels)
	if _, err := LoadCSV(strings.NewReader(csv.String()), CSVOptions{MaxCategories: 1 << 17}); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("LoadCSV with 65537 labels under MaxCategories 131072: %v, want %q", err, want)
	}
}
