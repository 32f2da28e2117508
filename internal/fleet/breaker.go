package fleet

import (
	"sync"
	"time"
)

// BreakerState is the lifecycle position of one node's circuit breaker.
type BreakerState int

// The three breaker states: Closed passes traffic, Open sheds it, and
// HalfOpen admits a single probe after the cooldown.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for /metrics and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is a consecutive-failure circuit breaker guarding one node:
// threshold consecutive failures open it, the cooldown later it admits
// exactly one probe (half-open), and the probe's outcome closes or
// reopens it. It exists so a dead replica costs the router one connection
// timeout per cooldown instead of one per request.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
	opens       uint64
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Ready reports, without side effects, whether Allow would admit a request
// right now: the breaker is closed, or open with its cooldown elapsed. Node
// selection scans with Ready and calls Allow only on the node it sends to,
// so a probe is never spent on a node that is then not asked.
func (b *breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready()
}

func (b *breaker) ready() bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.now().Sub(b.openedAt) >= b.cooldown
	default: // half-open: the probe is already in flight
		return false
	}
}

// Allow reports whether a request may be sent to the node right now. In
// the open state it transitions to half-open — and admits the caller as
// the probe — once the cooldown has elapsed. A caller that is admitted must
// send the request and report its outcome with Success or Failure.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ready() {
		return false
	}
	if b.state == BreakerOpen {
		b.state = BreakerHalfOpen
	}
	return true
}

// Success records a served request, closing the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.consecutive = 0
}

// Failure records a failed request. A half-open probe failure reopens
// immediately; otherwise the breaker opens at the consecutive-failure
// threshold.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == BreakerHalfOpen || b.consecutive >= b.threshold {
		if b.state != BreakerOpen {
			b.opens++
		}
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.consecutive = 0
	}
}

// State returns the current state without side effects (no open →
// half-open transition), plus how often the breaker has opened.
func (b *breaker) State() (BreakerState, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
