package fleet

import "testing"

// TestGenTableAdmitsNewestAtOrAboveFloor pins the caching rule: an answer is
// cached when its version is the newest seen of its estimator and at least
// its dataset's floor, and a cached entry is current while it carries that
// newest version.
func TestGenTableAdmitsNewestAtOrAboveFloor(t *testing.T) {
	tb := newGenTable()
	if _, ok := tb.current("demo/maxent"); ok {
		t.Fatal("current vouched for a never-observed estimator")
	}
	if !tb.observe("demo/maxent", 3) {
		t.Fatal("the first answer of an unfenced estimator was refused")
	}
	if !tb.observe("demo/maxent", 3) {
		t.Fatal("a repeat answer at the newest version was refused")
	}
	if !tb.observe("demo/maxent", 4) {
		t.Fatal("a newer version was refused")
	}
	if tb.observe("demo/maxent", 3) {
		t.Fatal("a lagging replica's older answer was admitted")
	}
	if gen, ok := tb.current("demo/maxent"); !ok || gen != 4 {
		t.Fatalf("current = (%d, %t), want (4, true)", gen, ok)
	}
}

// TestGenTableFencesUnseenEstimators pins the fence-before-first-read
// corner: a routed write to a dataset whose estimators the router has never
// observed still fences them at the write's version, so a lagging replica's
// pre-write answer arriving afterwards is refused, and an answer at the
// write's version is cached at once, whichever node gives it.
func TestGenTableFencesUnseenEstimators(t *testing.T) {
	tb := newGenTable()
	tb.fence("demo", 4) // the write lands before any read

	if tb.observe("demo/maxent", 3) {
		t.Fatal("a pre-write answer of a never-observed estimator was admitted")
	}
	if _, ok := tb.current("demo/maxent"); ok {
		t.Fatal("current vouched for a fenced, never-cached estimator")
	}
	if !tb.observe("demo/maxent", 4) {
		t.Fatal("an answer at the write's version was refused")
	}
	if gen, ok := tb.current("demo/maxent"); !ok || gen != 4 {
		t.Fatalf("current = (%d, %t), want (4, true)", gen, ok)
	}
	// The fence covers the dataset name itself, not just prefixed entries,
	// and no other dataset.
	if tb.observe("demo", 3) {
		t.Fatal("the dataset's own entry escaped the fence")
	}
	if !tb.observe("other/maxent", 1) {
		t.Fatal("a fence leaked onto an unrelated dataset")
	}
}

// TestGenTableFencesAtTheWritesVersion pins the fence on an observed
// estimator: after a write held by version 5, nothing below 5 is served or
// cached, and 5 is. A write that refreshed nothing fences at the version
// already serving, which keeps what is cached current, and a floor never
// falls.
func TestGenTableFencesAtTheWritesVersion(t *testing.T) {
	tb := newGenTable()
	tb.observe("demo/maxent", 4)
	tb.fence("demo", 5)
	if _, ok := tb.current("demo/maxent"); ok {
		t.Fatal("current vouched for a version below the write's")
	}
	if tb.observe("demo/maxent", 4) {
		t.Fatal("an answer below the write's version was admitted")
	}
	if !tb.observe("demo/maxent", 5) {
		t.Fatal("an answer at the write's version was refused")
	}
	tb.fence("demo", 5)
	tb.fence("demo", 2)
	if gen, ok := tb.current("demo/maxent"); !ok || gen != 5 {
		t.Fatalf("after repeat fences current = (%d, %t), want (5, true)", gen, ok)
	}
	if tb.observe("demo/maxent", 4) {
		t.Fatal("a lower fence let an answer below the floor in")
	}
}

// TestGenTableRefusesPreWriteAnswersAfterRestart replays a primary restart:
// the router has seen versions up to 7 when the primary restarts and a
// routed write publishes version 9. A lagging replica's answer at 8 is
// above every version seen, yet it predates the write, so it is refused;
// the primary's answer at 9 is admitted.
func TestGenTableRefusesPreWriteAnswersAfterRestart(t *testing.T) {
	tb := newGenTable()
	for v := uint64(1); v <= 7; v++ {
		tb.observe("demo/maxent", v)
	}
	tb.fence("demo", 9)
	if tb.observe("demo/maxent", 8) {
		t.Fatal("a pre-write answer above every version seen was admitted")
	}
	if _, ok := tb.current("demo/maxent"); ok {
		t.Fatal("current vouched for a version below the write's")
	}
	if !tb.observe("demo/maxent", 9) {
		t.Fatal("the write's own version was refused")
	}
	if gen, ok := tb.current("demo/maxent"); !ok || gen != 9 {
		t.Fatalf("current = (%d, %t), want (9, true)", gen, ok)
	}
}
