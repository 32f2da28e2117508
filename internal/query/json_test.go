package query

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// randomPredicate draws a valid predicate over numAttrs attributes with the
// given per-attribute domain size.
func randomPredicate(rng *rand.Rand, numAttrs, domain int) *Predicate {
	p := NewPredicate(numAttrs)
	for a := 0; a < numAttrs; a++ {
		switch rng.Intn(4) {
		case 0: // unconstrained
		case 1:
			p.WhereEq(a, rng.Intn(domain))
		case 2:
			lo := rng.Intn(domain)
			p.WhereRange(a, lo, lo+rng.Intn(domain-lo))
		case 3:
			vs := make([]int, 1+rng.Intn(4))
			for i := range vs {
				vs[i] = rng.Intn(domain)
			}
			p.WhereIn(a, vs...)
		}
	}
	return p
}

// TestJSONRoundTrip fuzzes marshal→unmarshal over random valid predicates:
// the decoded predicate must be semantically identical (Equal) and share
// the canonical key with the original.
func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		p := randomPredicate(rng, 1+rng.Intn(6), 2+rng.Intn(12))
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal %v: %v", p, err)
		}
		var q Predicate
		if err := json.Unmarshal(b, &q); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !p.Equal(&q) {
			t.Fatalf("round trip changed predicate: %v -> %s -> %v", p, b, &q)
		}
		if p.CanonicalKey() != q.CanonicalKey() {
			t.Fatalf("round trip changed key: %q vs %q", p.CanonicalKey(), q.CanonicalKey())
		}
	}
}

// TestCanonicalKeyInjective fuzzes pairs of random predicates: equal keys
// must imply semantically equal predicates, and vice versa. This is the
// property the server's result cache relies on.
func TestCanonicalKeyInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make(map[string]*Predicate)
	for i := 0; i < 5000; i++ {
		p := randomPredicate(rng, 1+rng.Intn(4), 2+rng.Intn(6))
		k := p.CanonicalKey()
		if prev, ok := keys[k]; ok {
			if !prev.Equal(p) {
				t.Fatalf("key collision: %q maps to both %v and %v", k, prev, p)
			}
		} else {
			keys[k] = p
		}
	}
	if len(keys) < 100 {
		t.Fatalf("fuzz degenerate: only %d distinct keys", len(keys))
	}
}

// TestCanonicalKeyDistinguishes spot-checks near-miss pairs that a sloppy
// key format (missing separators or tags) would conflate.
func TestCanonicalKeyDistinguishes(t *testing.T) {
	pairs := [][2]*Predicate{
		// Arity differs.
		{NewPredicate(2), NewPredicate(3)},
		// eq 12 on attr 1 vs eq 2 on attr 11 (digit-boundary ambiguity).
		{NewPredicate(20).WhereEq(1, 12), NewPredicate(20).WhereEq(11, 2)},
		// Range [1,2] vs set {1,2}.
		{NewPredicate(3).WhereRange(0, 1, 2), NewPredicate(3).WhereIn(0, 1, 2)},
		// Same values, different attribute.
		{NewPredicate(3).WhereEq(0, 1), NewPredicate(3).WhereEq(1, 1)},
		// Range split across attrs vs one attr: 0∈[1,2] ∧ 1∈[3,4] vs 0∈[1,4].
		{
			NewPredicate(3).WhereRange(0, 1, 2).WhereRange(1, 3, 4),
			NewPredicate(3).WhereRange(0, 1, 4),
		},
	}
	for i, pr := range pairs {
		if pr[0].CanonicalKey() == pr[1].CanonicalKey() {
			t.Errorf("pair %d: distinct predicates share key %q", i, pr[0].CanonicalKey())
		}
	}
	// Same predicate built in different constraint order keys identically.
	a := NewPredicate(4).WhereEq(2, 1).WhereRange(0, 1, 3)
	b := NewPredicate(4).WhereRange(0, 1, 3).WhereEq(2, 1)
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("order-insensitivity broken: %q vs %q", a.CanonicalKey(), b.CanonicalKey())
	}
	// Set dedup/sort normalizes.
	c := NewPredicate(2).WhereIn(0, 3, 1, 3, 2)
	d := NewPredicate(2).WhereIn(0, 1, 2, 3)
	if c.CanonicalKey() != d.CanonicalKey() {
		t.Errorf("set normalization broken: %q vs %q", c.CanonicalKey(), d.CanonicalKey())
	}
}

// TestUnmarshalRejects exercises every validation path of the wire format.
func TestUnmarshalRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"wrong json shape", `[1,2]`, "malformed"},
		{"zero arity", `{"num_attrs":0}`, "num_attrs"},
		{"negative arity", `{"num_attrs":-2}`, "num_attrs"},
		{"attr out of range", `{"num_attrs":2,"where":[{"attr":2,"kind":"eq","value":0}]}`, "out of range"},
		{"negative attr", `{"num_attrs":2,"where":[{"attr":-1,"kind":"eq","value":0}]}`, "out of range"},
		{"duplicate attr", `{"num_attrs":2,"where":[{"attr":0,"kind":"eq","value":0},{"attr":0,"kind":"eq","value":1}]}`, "duplicate"},
		{"duplicate attr, out of order", `{"num_attrs":3,"where":[{"attr":2,"kind":"eq","value":0},{"attr":0,"kind":"eq","value":0},{"attr":2,"kind":"any"}]}`, "where[2]: duplicate constraint on attribute 2"},
		{"unknown kind", `{"num_attrs":2,"where":[{"attr":0,"kind":"like"}]}`, "unknown constraint kind"},
		{"eq without value", `{"num_attrs":2,"where":[{"attr":0,"kind":"eq"}]}`, `"value"`},
		{"negative eq", `{"num_attrs":2,"where":[{"attr":0,"kind":"eq","value":-3}]}`, "non-negative"},
		{"range without bounds", `{"num_attrs":2,"where":[{"attr":0,"kind":"range","lo":1}]}`, `"hi"`},
		{"inverted range", `{"num_attrs":2,"where":[{"attr":0,"kind":"range","lo":3,"hi":1}]}`, "empty range"},
		{"negative range", `{"num_attrs":2,"where":[{"attr":0,"kind":"range","lo":-1,"hi":1}]}`, "non-negative"},
		{"empty set", `{"num_attrs":2,"where":[{"attr":0,"kind":"set"}]}`, "non-empty"},
		{"negative set value", `{"num_attrs":2,"where":[{"attr":0,"kind":"set","values":[1,-2]}]}`, "non-negative"},
	}
	for _, tc := range cases {
		var p Predicate
		err := json.Unmarshal([]byte(tc.body), &p)
		if err == nil {
			t.Errorf("%s: unmarshal accepted %s", tc.name, tc.body)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestUnmarshalAccepts covers the permissive input paths: "any" constraints
// are dropped, and "eq" decodes as a point range.
func TestUnmarshalAccepts(t *testing.T) {
	var p Predicate
	body := `{"num_attrs":3,"where":[{"attr":0,"kind":"any"},{"attr":1,"kind":"eq","value":2}]}`
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := p.ConstrainedAttrs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("constrained attrs = %v, want [1]", got)
	}
	want := NewPredicate(3).WhereEq(1, 2)
	if !p.Equal(want) {
		t.Fatalf("decoded %v, want %v", &p, want)
	}

	// The wire admits constraints in any order; the predicate keeps them by
	// attribute, so the key does not depend on how the client listed them.
	body = `{"num_attrs":3,"where":[{"attr":2,"kind":"set","values":[5,1]},{"attr":0,"kind":"range","lo":1,"hi":3},{"attr":1,"kind":"eq","value":2}]}`
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got, want := p.CanonicalKey(), "#3|0r1:3|1r2:2|2s1,5"; got != want {
		t.Fatalf("out-of-order where decoded to %q, want %q", got, want)
	}
}
