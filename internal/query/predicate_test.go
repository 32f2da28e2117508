package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refPredicate is the map-backed model the slice-backed Predicate replaced:
// what TestPredicateAgainstMapModel holds the new representation to.
type refPredicate map[int]Constraint

func (m refPredicate) attrs() []int {
	out := make([]int, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

func (m refPredicate) String() string {
	if len(m) == 0 {
		return "true"
	}
	var parts []string
	for _, a := range m.attrs() {
		parts = append(parts, fmt.Sprintf("A%d∈%s", a, m[a]))
	}
	return strings.Join(parts, " ∧ ")
}

func (m refPredicate) matches(row []int) bool {
	for a, c := range m {
		if !c.Matches(row[a]) {
			return false
		}
	}
	return true
}

func (m refPredicate) unsatisfiable() bool {
	for _, c := range m {
		if c.Empty() {
			return true
		}
	}
	return false
}

// TestPredicateAgainstMapModel applies random Where sequences, in random
// attribute order and with replacements and removals, to a Predicate and to
// the reference map, and requires every reader and both wires to agree.
func TestPredicateAgainstMapModel(t *testing.T) {
	const numAttrs, domain = 7, 12
	domains := make([]int, numAttrs)
	for a := range domains {
		domains[a] = domain
	}
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		p, ref := NewPredicate(numAttrs), refPredicate{}
		var other *Predicate // p as it stood one step earlier
		for step, steps := 0, 1+rng.Intn(12); step < steps; step++ {
			other = p.Clone()
			a := rng.Intn(numAttrs)
			switch rng.Intn(5) {
			case 0:
				v := rng.Intn(domain)
				p.WhereEq(a, v)
				ref[a] = ValueEq(v)
			case 1:
				lo := rng.Intn(domain)
				hi := lo + rng.Intn(domain-lo)
				p.WhereRange(a, lo, hi)
				ref[a] = ValueIn(NewRange(lo, hi))
			case 2:
				vals := make([]int, 1+rng.Intn(4))
				for i := range vals {
					vals[i] = rng.Intn(domain)
				}
				p.WhereIn(a, vals...)
				ref[a] = ValueSet(vals)
			case 3:
				c := ValueIn(NewRange(rng.Intn(domain), rng.Intn(domain))) // may be empty
				p.Where(a, c)
				ref[a] = c
			default:
				p.Where(a, AnyValue())
				delete(ref, a)
			}
			checkAgainstModel(t, p, ref, domains, rng)
			if t.Failed() {
				t.Fatalf("trial %d step %d: %s", trial, step, p)
			}
			// Equal against the previous state: equal iff the step changed
			// nothing the model can see.
			same := reflect.DeepEqual(map[int]Constraint(refOf(other)), map[int]Constraint(ref))
			if p.Equal(other) != same || other.Equal(p) != same {
				t.Fatalf("trial %d step %d: Equal(%s, %s) = %v, model says %v", trial, step, p, other, p.Equal(other), same)
			}
		}
	}
}

// refOf reads a predicate back into the model through its public readers.
func refOf(p *Predicate) refPredicate {
	m := refPredicate{}
	for _, a := range p.ConstrainedAttrs() {
		m[a] = p.Constraint(a)
	}
	return m
}

func checkAgainstModel(t *testing.T, p *Predicate, ref refPredicate, domains []int, rng *rand.Rand) {
	t.Helper()
	attrs := ref.attrs()
	if got := p.ConstrainedAttrs(); !reflect.DeepEqual(got, attrs) {
		t.Errorf("ConstrainedAttrs = %v, model %v", got, attrs)
	}
	for a := 0; a < p.NumAttrs(); a++ {
		want, ok := ref[a]
		if !ok {
			want = AnyValue()
		}
		if got := p.Constraint(a); !reflect.DeepEqual(got, want) {
			t.Errorf("Constraint(%d) = %v, model %v", a, got, want)
		}
	}
	if p.String() != ref.String() {
		t.Errorf("String = %q, model %q", p, ref)
	}
	if p.Unsatisfiable() != ref.unsatisfiable() {
		t.Errorf("Unsatisfiable = %v, model %v", p.Unsatisfiable(), ref.unsatisfiable())
	}
	row := make([]int, p.NumAttrs())
	for k := 0; k < 20; k++ {
		for a := range row {
			row[a] = rng.Intn(domains[a])
		}
		if p.Matches(row) != ref.matches(row) {
			t.Errorf("Matches(%v) = %v, model %v", row, p.Matches(row), ref.matches(row))
		}
	}
	if !p.Equal(p.Clone()) {
		t.Errorf("a clone is not Equal to its source")
	}
	if ref.unsatisfiable() {
		return // neither wire carries an empty range
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Errorf("MarshalJSON: %v", err)
		return
	}
	var viaJSON Predicate
	if err := json.Unmarshal(data, &viaJSON); err != nil || !viaJSON.Equal(p) {
		t.Errorf("JSON round trip of %s: %s (err %v)", p, &viaJSON, err)
	}
	frame, err := AppendBatch(nil, "e", []BatchItem{{Pred: p}})
	if err != nil {
		t.Errorf("AppendBatch: %v", err)
		return
	}
	_, _, items, err := DecodeBatchAt(bytes.NewReader(frame))
	if err != nil || !items[0].Pred.Equal(p) || items[0].Pred.CanonicalKey() != p.CanonicalKey() {
		t.Errorf("binary round trip of %s: %v (err %v)", p, items, err)
	}
}

// TestIdentityGolden pins CanonicalKey and AppendIdentity to the bytes the
// parent commit produced (recorded there with its map-backed predicate and
// strings.Builder identity): they are stored cache keys and the benchmark's
// dedup keys, and must not move with the representation.
func TestIdentityGolden(t *testing.T) {
	for _, tc := range []struct {
		name          string
		it            BatchItem
		key, identity string
	}{
		{"nil predicate", BatchItem{}, "-", "c\x00-"},
		{"empty predicate", BatchItem{Pred: NewPredicate(5)}, "#5", "c\x00#5"},
		{"eq", BatchItem{Pred: NewPredicate(5).WhereEq(2, 7)}, "#5|2r7:7", "c\x00#5|2r7:7"},
		{"range", BatchItem{Pred: NewPredicate(5).WhereRange(0, 3, 9)}, "#5|0r3:9", "c\x00#5|0r3:9"},
		{"set", BatchItem{Pred: NewPredicate(5).WhereIn(4, 9, 1, 4, 1)}, "#5|4s1,4,9", "c\x00#5|4s1,4,9"},
		{"mixed, built out of order",
			BatchItem{Pred: NewPredicate(5).WhereIn(3, 2, 0).WhereEq(1, 4).WhereRange(0, 1, 2)},
			"#5|0r1:2|1r4:4|3s0,2", "c\x00#5|0r1:2|1r4:4|3s0,2"},
		{"group-by without filter", BatchItem{GroupBy: []int{3}}, "-", "g,3\x00-"},
		{"group-by two attrs, request order", BatchItem{GroupBy: []int{4, 1}}, "-", "g,4,1\x00-"},
		{"group-by with filter", BatchItem{Pred: NewPredicate(5).WhereEq(0, 2), GroupBy: []int{1, 3}},
			"#5|0r2:2", "g,1,3\x00#5|0r2:2"},
		{"multi-digit",
			BatchItem{Pred: NewPredicate(1200).WhereRange(17, 100, 65535).WhereIn(1023, 4096, 12, 300).WhereEq(999, 123456),
				GroupBy: []int{110, 12}},
			"#1200|17r100:65535|999r123456:123456|1023s12,300,4096",
			"g,110,12\x00#1200|17r100:65535|999r123456:123456|1023s12,300,4096"},
	} {
		if tc.it.Pred != nil {
			if got := tc.it.Pred.CanonicalKey(); got != tc.key {
				t.Errorf("%s: CanonicalKey = %q, want %q", tc.name, got, tc.key)
			}
		}
		// Appended behind a prefix, as the two cache tiers do.
		if got := string(tc.it.AppendIdentity([]byte("p\x00"))); got != "p\x00"+tc.identity {
			t.Errorf("%s: AppendIdentity = %q, want %q", tc.name, got, "p\x00"+tc.identity)
		}
	}
}
