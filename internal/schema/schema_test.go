package schema

import (
	"strconv"
	"strings"
	"testing"
)

func labels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}

// TestDomainCap pins the widest domain a relation column can encode: 65536
// values are accepted by both constructors, 65537 refused by both with a
// message naming the cap, so an out-of-range value can never wrap.
func TestDomainCap(t *testing.T) {
	if a, err := NewCategorical("c", labels(1<<16)); err != nil || a.Size() != 1<<16 {
		t.Errorf("NewCategorical with 65536 labels: size %d, %v", a.Size(), err)
	}
	if a, err := NewBinned("b", 0, 1, 1<<16); err != nil || a.Size() != 1<<16 {
		t.Errorf("NewBinned with 65536 bins: size %d, %v", a.Size(), err)
	}
	for what, err := range map[string]error{
		"NewCategorical": func() error { _, err := NewCategorical("c", labels(1<<16+1)); return err }(),
		"NewBinned":      func() error { _, err := NewBinned("b", 0, 1, 1<<16+1); return err }(),
	} {
		if err == nil || !strings.Contains(err.Error(), "65537") || !strings.Contains(err.Error(), "65536 values a domain may hold") {
			t.Errorf("%s over 65537 values: %v, want the cap refused", what, err)
		}
	}
}

// TestAttributeCap pins the widest schema: 64 attributes are accepted, 65
// refused with a message naming the cap.
func TestAttributeCap(t *testing.T) {
	attrs := make([]Attribute, 65)
	for i := range attrs {
		attrs[i] = MustCategorical("a"+strconv.Itoa(i), labels(2))
	}
	if s, err := New(attrs[:64]...); err != nil || s.NumAttrs() != 64 {
		t.Fatalf("New with 64 attributes: %v", err)
	}
	if _, err := New(attrs...); err == nil || !strings.Contains(err.Error(), "65 attributes, more than the 64") {
		t.Fatalf("New with 65 attributes: %v, want the cap refused", err)
	}
}
