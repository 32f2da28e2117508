package main

import "testing"

// flights1mSeed1 is the fingerprint of the 1,000,000-row relation seed 1
// generates. It is frozen here so the dataset cannot drift under later
// benchmark runs: a change to the generator is a change of benchmark and has
// to say so by changing this constant.
const flights1mSeed1 = 0x5092e02cf34da9ff

func TestFlightsSeedFixesTheRelation(t *testing.T) {
	rel := newFlightGen(1).relation(fullScale.rows)
	if got := fingerprint(rel); got != flights1mSeed1 {
		t.Fatalf("flights1m seed 1 has fingerprint %#x, frozen value is %#x", got, uint64(flights1mSeed1))
	}
	small := fingerprint(newFlightGen(1).relation(5000))
	if again := fingerprint(newFlightGen(1).relation(5000)); again != small {
		t.Fatalf("seed 1 gave fingerprints %#x and %#x", small, again)
	}
	if other := fingerprint(newFlightGen(2).relation(5000)); other == small {
		t.Fatalf("seeds 1 and 2 gave the same fingerprint %#x", small)
	}
}

func TestFlightsShape(t *testing.T) {
	rel := newFlightGen(1).relation(200_000)
	if got := rel.Schema().DomainSizes(); len(got) != numAttrs || got[attrDate] != 307 || got[attrOrigin] != 54 ||
		got[attrDest] != 54 || got[attrTime] != 62 || got[attrDistance] != 81 {
		t.Fatalf("domain sizes %v", got)
	}
	// 12 destinations per origin: at most 648 of the 2916 (origin, dest)
	// cells hold rows, so at least 77 % are empty.
	cells := 0
	for _, row := range rel.Histogram2D(attrOrigin, attrDest) {
		for _, c := range row {
			if c > 0 {
				cells++
			}
		}
	}
	if cells > numAirports*destsPerOrigin || cells < numAirports*destsPerOrigin/2 {
		t.Fatalf("%d non-empty (origin, dest) cells, want at most %d and most of them", cells, numAirports*destsPerOrigin)
	}
	// The ingest stream continues the base relation's sequence.
	g := newFlightGen(1)
	base := g.relation(1000)
	more := g.rows(10)
	whole := newFlightGen(1).relation(1010)
	for i, row := range more {
		for a, v := range row {
			if whole.Value(base.NumRows()+i, a) != v {
				t.Fatalf("ingest row %d attribute %d is %d, the generator's next row has %d", i, a, v, whole.Value(base.NumRows()+i, a))
			}
		}
	}
}
