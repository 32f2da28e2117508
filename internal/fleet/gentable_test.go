package fleet

import "testing"

// TestGenTableFencesUnseenEstimators pins the fence-before-first-read
// corner of the freshness invariant: a routed write to a dataset whose
// estimators the router has never observed must still fence them, so a
// lagging replica's pre-write answer arriving afterwards is refused and
// only a strictly newer generation re-opens caching.
func TestGenTableFencesUnseenEstimators(t *testing.T) {
	tb := newGenTable()

	// The write lands before any read: nothing is in the table yet.
	tb.fence("demo")

	// A lagging replica answers first (replica answers are never proof) — possibly pre-write; refuse it.
	if tb.observe("demo/maxent", 3, tb.sent(), false) {
		t.Fatal("first post-fence observation of an unseen estimator was admitted to the cache")
	}
	if _, ok := tb.current("demo/maxent"); ok {
		t.Fatal("current vouched for a fenced, never-cached estimator")
	}
	// The same generation keeps being refused — it is never provably fresh.
	if tb.observe("demo/maxent", 3, tb.sent(), false) {
		t.Fatal("repeat observation at the fenced generation was admitted")
	}
	// A strictly newer generation proves the write was applied.
	if !tb.observe("demo/maxent", 4, tb.sent(), false) {
		t.Fatal("a strictly newer generation was refused after the fence")
	}
	if gen, ok := tb.current("demo/maxent"); !ok || gen != 4 {
		t.Fatalf("current = (%d, %t), want (4, true)", gen, ok)
	}

	// The fence covers the dataset name itself, not just prefixed entries.
	if tb.observe("demo", 7, tb.sent(), false) {
		t.Fatal("the dataset's own entry escaped the fence")
	}
	// Unrelated datasets are untouched by a scoped fence.
	if !tb.observe("other/maxent", 1, tb.sent(), false) {
		t.Fatal("a scoped fence leaked onto an unrelated dataset")
	}

	// A fence of everything (unparseable write path) covers names first
	// observed afterwards too.
	tb.fence("")
	if tb.observe("third/maxent", 5, tb.sent(), false) {
		t.Fatal("a fence-everything write did not fence a later-observed estimator")
	}
	if !tb.observe("third/maxent", 6, tb.sent(), false) {
		t.Fatal("a strictly newer generation was refused after the global fence")
	}
}

// TestGenTableAdmitsPostFencePrimaryAnswers pins how a fence lifts: the
// primary's answer to a fetch sent after the last fence is post-write at
// whatever generation it carries, so it is cached — also for an estimator
// first observed after the write, whose generation may never move again.
// The primary's answer to a fetch sent before the fence, landing after it,
// and a replica's answer prove nothing and stay refused.
func TestGenTableAdmitsPostFencePrimaryAnswers(t *testing.T) {
	tb := newGenTable()
	before := tb.sent()
	tb.fence("demo")
	after := tb.sent()

	if tb.observe("demo/maxent", 3, before, true) {
		t.Fatal("the primary's answer to a pre-fence fetch was admitted after the fence")
	}
	if tb.observe("demo/maxent", 3, after, false) {
		t.Fatal("a replica's answer lifted the fence")
	}
	if !tb.observe("demo/maxent", 3, after, true) {
		t.Fatal("the primary's answer to a post-fence fetch was refused")
	}
	if gen, ok := tb.current("demo/maxent"); !ok || gen != 3 {
		t.Fatalf("current = (%d, %t), want (3, true)", gen, ok)
	}
	// Once lifted, the replica's answers at the same generation are current.
	if !tb.observe("demo/maxent", 3, after, false) {
		t.Fatal("a replica answer at the vouched generation was refused")
	}

	// A second write fences the observed estimator again; a fetch sent
	// between the two fences proves nothing about the second.
	tb.fence("demo")
	if tb.observe("demo/maxent", 3, after, true) {
		t.Fatal("the primary's answer to a fetch sent before the second fence was admitted")
	}
	if !tb.observe("demo/maxent", 3, tb.sent(), true) {
		t.Fatal("the primary's answer to a fetch sent after the second fence was refused")
	}

	// A fence of everything counts as the last fence of every dataset.
	sent := tb.sent()
	tb.fence("")
	if tb.observe("other/maxent", 1, sent, true) {
		t.Fatal("a pre-fence primary answer escaped the global fence")
	}
	if !tb.observe("other/maxent", 1, tb.sent(), true) {
		t.Fatal("a post-fence primary answer was refused after the global fence")
	}
}
