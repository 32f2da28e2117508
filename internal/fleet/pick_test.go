package fleet

import (
	"fmt"
	"testing"
	"time"
)

// TestPickSpendsProbeOnlyOnChosenNode pins the node-selection contract behind
// breaker recovery: scanning the replica set must not move any breaker; only
// the node pick returns is admitted (open → half-open past the cooldown), so
// its probe is always sent and always reported. The parent's pick called
// Allow on every node it scanned, so whenever the load / rotation tie-break
// preferred a healthy peer, the recovered node was left half-open with no
// probe in flight — forever, since half-open admits nothing and only a probe's
// outcome leaves the state. All three rotations are covered, with and without
// a preferred node.
func TestPickSpendsProbeOnlyOnChosenNode(t *testing.T) {
	const sick = 1
	for _, prefer := range []int{-1, 0, sick, 2} {
		for rotation := 0; rotation < 3; rotation++ {
			t.Run(fmt.Sprintf("prefer=%d/rotation=%d", prefer, rotation), func(t *testing.T) {
				now := time.Unix(1000, 0)
				rt, err := NewRouter([]NodeConfig{{URL: "http://a"}, {URL: "http://b"}, {URL: "http://c"}}, Options{
					BreakerThreshold: 1,
					BreakerCooldown:  time.Second,
					CacheSize:        -1,
					Now:              func() time.Time { return now },
				})
				if err != nil {
					t.Fatal(err)
				}
				rt.rr.Store(uint64(rotation))
				node := rt.nodes[sick]
				node.breaker.Failure()
				if st, _ := node.breaker.State(); st != BreakerOpen {
					t.Fatalf("one failure at threshold 1 left the breaker %v", st)
				}
				if got := rt.pick(nil, sick); got == node {
					t.Fatal("pick returned a node whose breaker is open and cooling down")
				}
				now = now.Add(2 * time.Second)

				// Past the cooldown the node is a candidate again. Whatever pick
				// returns, the sick node is half-open exactly when it was chosen.
				chosen := rt.pick(nil, prefer)
				if chosen == nil {
					t.Fatal("pick found no node among three ready ones")
				}
				st, _ := node.breaker.State()
				if chosen == node && st != BreakerHalfOpen {
					t.Fatalf("the recovered node was chosen but its breaker is %v, want half-open", st)
				}
				if chosen != node && st != BreakerOpen {
					t.Fatalf("pick chose %s yet moved the recovered node's breaker to %v: its probe is spent on nobody", chosen.name, st)
				}
				if prefer == sick && chosen != node {
					t.Fatalf("the preferred node is ready but pick chose %s", chosen.name)
				}

				// The node must get its probe within one rotation of further
				// load-based picks, and a served probe closes the breaker.
				for i := 0; chosen != node; i++ {
					if i == len(rt.nodes) {
						t.Fatalf("%d further picks never chose the recovered node (breaker %v)", i, st)
					}
					chosen.breaker.Success()
					now = now.Add(time.Hour)
					chosen = rt.pick(nil, -1)
				}
				// While the probe is in flight nothing else is sent to the node.
				if again := rt.pick(nil, sick); again == node {
					t.Fatal("a second request was admitted while the probe was in flight")
				}
				node.breaker.Success()
				if st, _ := node.breaker.State(); st != BreakerClosed {
					t.Fatalf("a served probe left the breaker %v", st)
				}
			})
		}
	}
}

// TestPickRepicksWhenProbeIsTaken covers the race the admission step closes:
// a node that was ready when scanned but whose probe a concurrent pick won
// must be passed over, not returned unadmitted and not spun on.
func TestPickRepicksWhenProbeIsTaken(t *testing.T) {
	now := time.Unix(1000, 0)
	var rt *Router
	steal := false
	rt, err := NewRouter([]NodeConfig{{URL: "http://a"}, {URL: "http://b"}}, Options{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Second,
		CacheSize:        -1,
		// An open breaker reads the clock (under its lock) to answer Ready:
		// once armed, let that scan see the node ready and hand the probe to
		// "another pick" before this one can ask for it.
		Now: func() time.Time {
			if steal {
				steal = false
				rt.nodes[1].breaker.state = BreakerHalfOpen
			}
			return now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.nodes[1].breaker.Failure()
	now = now.Add(2 * time.Second)
	steal = true
	if got := rt.pick(nil, 1); got != rt.nodes[0] {
		t.Fatalf("pick returned %v, want the peer of the node whose probe was taken", got)
	}
	if st, _ := rt.nodes[1].breaker.State(); steal || st != BreakerHalfOpen {
		t.Fatalf("probe stolen: %v, breaker %v; want the concurrent probe's half-open state kept", !steal, st)
	}
}
