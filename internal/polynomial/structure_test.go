package polynomial

import (
	"runtime"
	"testing"

	"repro/internal/query"
)

// TestSharedReturnsTheResidentStructure checks the table's two halves on
// the benchmark's shape: NewCompressed always builds and records, and Shared
// hands back the recorded polynomial of an equal structure — equal, not the
// same slices — instead of building one.
func TestSharedReturnsTheResidentStructure(t *testing.T) {
	sizes, specs := flightsShapedSpecs()
	built, err := NewCompressed(sizes, specs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewCompressed(sizes, specs)
	if err != nil {
		t.Fatal(err)
	}
	if again == built {
		t.Fatal("NewCompressed returned a recorded polynomial; it must always build")
	}
	copied := make([]MultiStatSpec, len(specs))
	for j, s := range specs {
		copied[j] = MultiStatSpec{Attrs: append([]int(nil), s.Attrs...), Ranges: append([]query.Range(nil), s.Ranges...)}
	}
	got, err := Shared(append([]int(nil), sizes...), copied)
	if err != nil {
		t.Fatal(err)
	}
	if got != again {
		t.Fatal("Shared did not return the most recently recorded polynomial of the structure")
	}
	runtime.KeepAlive(built)
}

// TestStructureTableRefusesAMisfiledEntry files a polynomial under the
// digest of another structure, as a digest collision would: a lookup of
// that structure must refuse it and Shared must build the right one.
func TestStructureTableRefusesAMisfiledEntry(t *testing.T) {
	sizes := []int{7, 5, 3}
	want := []MultiStatSpec{{Attrs: []int{0, 2}, Ranges: []query.Range{{Lo: 1, Hi: 4}, {Lo: 0, Hi: 1}}}}
	// One bound differs.
	other := []MultiStatSpec{{Attrs: []int{0, 2}, Ranges: []query.Range{{Lo: 1, Hi: 4}, {Lo: 0, Hi: 2}}}}
	wrong, err := NewCompressed(sizes, other)
	if err != nil {
		t.Fatal(err)
	}
	record(digest(sizes, want), wrong)
	if live, filed := Resident(sizes, want); live != nil || !filed {
		t.Fatalf("Resident = %v, filed %t; want no live polynomial and the misfiled entry", live, filed)
	}
	got, err := Shared(sizes, want)
	if err != nil {
		t.Fatal(err)
	}
	if got == wrong || !got.sameStructure(sizes, want) {
		t.Fatalf("Shared returned %v for a structure the table holds only under a misfiled entry", got)
	}
	if live, _ := Resident(sizes, want); live != got {
		t.Fatal("Shared did not record the polynomial it built")
	}
	runtime.KeepAlive(wrong)
}
