package polynomial

import (
	"runtime"
	"slices"
	"sync"
	"unsafe"
	"weak"
)

// structures is the in-process table of the live Compressed polynomials,
// filed by a digest of the (domain sizes, statistic specs) they were built
// from. NewCompressed records what it builds; Shared looks a structure up
// before it builds one, so every model of one structure in a process — the
// generations a refresh makes, a replica's installs, a time-travel restore
// — holds one Compressed. The table holds one weak pointer per digest, to
// the most recently recorded polynomial: when it is collected, a cleanup
// removes its entry, so the table needs no eviction rule.
//
// Sharing is safe because a Compressed is immutable once NewCompressed
// returns it; Systems only read it. The table is package-level because the
// sharing is process-wide: every decoder, whatever its caller, looks up one
// table, and what it shares are equal, immutable values.
var structures = struct {
	mu   sync.Mutex
	live map[uint64]weak.Pointer[Compressed]
}{live: make(map[uint64]weak.Pointer[Compressed])}

// Shared returns the live Compressed built from the same domain sizes and
// statistic specs, or builds (and records) one when the table holds none.
// A hit needs the sizes and every spec to be equal, not just the digest.
func Shared(domainSizes []int, specs []MultiStatSpec) (*Compressed, error) {
	structures.mu.Lock()
	c := lookupLocked(digest(domainSizes, specs), domainSizes, specs)
	structures.mu.Unlock()
	if c != nil {
		return c, nil
	}
	return NewCompressed(domainSizes, specs)
}

// Resident reports the live Compressed the table holds for the structure
// (nil when none) and whether it files an entry under the structure's
// digest, counting one whose polynomial is collected but not yet cleaned up.
func Resident(domainSizes []int, specs []MultiStatSpec) (*Compressed, bool) {
	d := digest(domainSizes, specs)
	structures.mu.Lock()
	defer structures.mu.Unlock()
	_, filed := structures.live[d]
	return lookupLocked(d, domainSizes, specs), filed
}

// lookupLocked returns the live polynomial filed under d if its structure
// is (sizes, specs). Callers hold structures.mu.
func lookupLocked(d uint64, sizes []int, specs []MultiStatSpec) *Compressed {
	if c := structures.live[d].Value(); c != nil && c.sameStructure(sizes, specs) {
		return c
	}
	return nil
}

// record files c under digest d, in place of what was filed there, and
// arranges for the entry to leave the table once c is collected.
func record(d uint64, c *Compressed) {
	wp := weak.Make(c)
	structures.mu.Lock()
	structures.live[d] = wp
	structures.mu.Unlock()
	runtime.AddCleanup(c, forget, entry{d, wp})
}

// entry names one table entry: a digest and the weak pointer filed there.
type entry struct {
	d  uint64
	wp weak.Pointer[Compressed]
}

// forget removes a collected polynomial's entry from the table, unless a
// later record has filed another polynomial under its digest.
func forget(e entry) {
	structures.mu.Lock()
	defer structures.mu.Unlock()
	if structures.live[e.d] == e.wp {
		delete(structures.live, e.d)
	}
}

// sameStructure reports whether c was built from exactly these domain sizes
// and statistic specs.
func (c *Compressed) sameStructure(sizes []int, specs []MultiStatSpec) bool {
	if !slices.Equal(c.sizes, sizes) || len(c.specs) != len(specs) {
		return false
	}
	for j, s := range specs {
		if !slices.Equal(c.specs[j].Attrs, s.Attrs) || !slices.Equal(c.specs[j].Ranges, s.Ranges) {
			return false
		}
	}
	return true
}

// digest hashes a structure's domain sizes and statistic specs (FNV-1a over
// 64-bit words, the lengths included so that no two layouts run together).
// A matching digest only files candidates: a hit compares the structures.
func digest(sizes []int, specs []MultiStatSpec) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(len(sizes))) * prime
	for _, n := range sizes {
		h = (h ^ uint64(n)) * prime
	}
	h = (h ^ uint64(len(specs))) * prime
	for _, s := range specs {
		h = (h ^ uint64(len(s.Attrs))) * prime
		for k, a := range s.Attrs {
			h = (h ^ uint64(a)) * prime
			h = (h ^ uint64(s.Ranges[k].Lo)) * prime
			h = (h ^ uint64(s.Ranges[k].Hi)) * prime
		}
	}
	return h
}

// HeapBytes returns the heap the polynomial structure holds: its term,
// range and index tables. Every System over it shares this.
func (c *Compressed) HeapBytes() int64 {
	n := SliceBytes(c.sizes) + SliceBytes(c.specs) + SliceBytes(c.stats) + SliceBytes(c.ranges) +
		SliceBytes(c.touch) + SliceBytes(c.loose) + SliceBytes(c.starts) + SliceBytes(c.startOff) +
		SliceBytes(c.statTerms) + SliceBytes(c.attrBits) + SliceBytes(c.attrSets) + SliceBytes(c.termSet) +
		SliceBytes(c.termGroup) + SliceBytes(c.groups)
	for _, s := range c.specs {
		n += SliceBytes(s.Attrs) + SliceBytes(s.Ranges)
	}
	for _, st := range c.stats {
		n += SliceBytes(st)
	}
	for a := range c.touch {
		n += SliceBytes(c.touch[a])
		for _, l := range c.touch[a] {
			n += SliceBytes(l)
		}
		n += SliceBytes(c.loose[a]) + SliceBytes(c.starts[a]) + SliceBytes(c.startOff[a]) + SliceBytes(c.groups[a])
		if len(c.starts[a]) > 0 { // otherwise termGroup[a] is termSet
			n += SliceBytes(c.termGroup[a])
		}
	}
	for _, l := range c.statTerms {
		n += SliceBytes(l)
	}
	return n
}

// HeapBytes returns the heap the system holds apart from its polynomial
// structure: the variables, their prefix sums and the term caches, plus the
// partial sums its masked reads build — counted as if built, since a served
// model builds them on its first masked reads.
func (s *System) HeapBytes() int64 {
	const f64 = 8
	p := s.poly
	n := int64(unsafe.Sizeof(*s)) + SliceBytes(s.alpha) + SliceBytes(s.prefix) + SliceBytes(s.dirty) +
		SliceBytes(s.delta) + SliceBytes(s.fac) + SliceBytes(s.nz) + SliceBytes(s.zeros)
	for a := range s.alpha {
		n += SliceBytes(s.alpha[a]) + SliceBytes(s.prefix[a])
	}
	// The partial sums: one sum per attribute set, and per attribute a
	// column per set that constrains it, a loose sum per set and two per
	// range group.
	sets := int64(len(p.attrSets))
	n += sets * f64
	for a, size := range p.sizes {
		k := int64(0)
		for _, b := range p.attrSets {
			if b&(1<<uint(a)) != 0 {
				k++
			}
		}
		n += k*int64(size)*f64 + sets*(f64+int64(unsafe.Sizeof([]float64(nil)))) +
			2*int64(len(p.groups[a]))*f64
	}
	return n
}

// SliceBytes is the heap of a slice's backing array: its capacity times its
// element size.
func SliceBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}
