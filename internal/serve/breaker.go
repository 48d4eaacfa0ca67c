package serve

// Circuit breakers for the overload tier: per-replica and per-region
// closed → open → half-open state machines driven by shed and crash
// signals and by served completions, consulted by the live-least-loaded
// replica router and the spill-over geo router so traffic routes around
// a drowning tier and probes it back in. Breakers compose with — they
// do not replace — the health probe/ejection tier: ejection removes a
// dead machine from the routing set entirely, while a breaker
// deprioritizes an alive-but-drowning one and re-admits it through
// half-open probe traffic. All transitions happen on the serial
// controller path, so breaker state (and every byte derived from it) is
// identical across worker counts.

import (
	"time"

	"repro/internal/obs"
)

// Breaker tunings: five consecutive failure signals (sheds, crash
// losses) trip a closed breaker open; an open breaker diverts traffic
// for five seconds before it half-opens and lets probe traffic
// through; three successes close a half-open breaker again, and any
// failure while half-open re-trips it.
const (
	breakerFailLimit = 5
	breakerOpenFor   = 5 * time.Second
	breakerProbes    = 3
)

// BreakerConfig enables the circuit breakers: a non-nil *BreakerConfig
// on Cluster/Geo turns them on with the tunings above, and nil disables
// them entirely (the legacy routing path, byte-identical).
type BreakerConfig struct{}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// breaker is one track's state machine and its signal feed.
type breaker struct {
	state    breakerState
	fails    int // consecutive failures while closed
	okProbes int // successes seen while half-open
	openedAt time.Duration
	opens    int // lifetime open transitions (Result.BreakerOpens)

	// track receives the transition events (nil when tracing is off).
	// label is their detail on a region breaker (the region name); a
	// replica breaker's label is empty, and its opens say "shed" or
	// "crash". doneSeen/rejSeen are per-engine cursors over the
	// engines' completed and rejected lists, indexed as passed to feed.
	track             *obs.Stream
	label             string
	doneSeen, rejSeen []int
}

// event emits one transition on the breaker's track.
func (b *breaker) event(now time.Duration, kind obs.Kind, detail string) {
	if b.label != "" {
		detail = b.label
	}
	b.track.Event(now, kind, obs.NoRequest, detail)
}

// feed sweeps engine i's terminal lists since its last feed: completions
// are successes, then admission sheds are failures. Serial controller
// points only, so the state machine sees the same signal order at
// every worker count.
func (b *breaker) feed(now time.Duration, i int, e *Engine) {
	for len(b.doneSeen) <= i {
		b.doneSeen = append(b.doneSeen, 0)
		b.rejSeen = append(b.rejSeen, 0)
	}
	for range e.completed[b.doneSeen[i]:] {
		if b.success() {
			b.event(now, obs.EvBreakerClose, "")
		}
	}
	b.doneSeen[i] = len(e.completed)
	for _, s := range e.rejected[b.rejSeen[i]:] {
		if s.rejectReason == RejectShed && b.failure(now) {
			b.event(now, obs.EvBreakerOpen, "shed")
		}
	}
	b.rejSeen[i] = len(e.rejected)
}

// crash trips the breaker on a crash: definitive failure evidence, no
// threshold. Nil-safe.
func (b *breaker) crash(now time.Duration) {
	if b != nil && b.trip(now) {
		b.event(now, obs.EvBreakerOpen, "crash")
	}
}

// admit consults the breaker for routing, emitting the half-open
// transition when an open window lapses. A nil breaker always admits.
func (b *breaker) admit(now time.Duration) bool {
	if b == nil {
		return true
	}
	wasOpen := b.state == breakerOpen
	ok := b.allow(now)
	if ok && wasOpen {
		b.event(now, obs.EvBreakerHalfOpen, "")
	}
	return ok
}

// failure records one failure signal (a shed); it trips a closed
// breaker at the threshold and instantly re-trips a half-open one.
// Returns true on a transition to open.
func (b *breaker) failure(now time.Duration) bool {
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= breakerFailLimit {
			b.trip(now)
			return true
		}
	case breakerHalfOpen:
		b.trip(now)
		return true
	}
	return false
}

// trip forces the breaker open — a crash is definitive evidence and
// skips the threshold. Returns true on a transition (an already-open
// breaker only refreshes its window).
func (b *breaker) trip(now time.Duration) bool {
	transition := b.state != breakerOpen
	b.state = breakerOpen
	b.openedAt = now
	b.fails, b.okProbes = 0, 0
	if transition {
		b.opens++
	}
	return transition
}

// success records one served completion; while half-open it counts
// toward closing. Returns true when it closed the breaker.
func (b *breaker) success() bool {
	switch b.state {
	case breakerClosed:
		b.fails = 0
	case breakerHalfOpen:
		b.okProbes++
		if b.okProbes >= breakerProbes {
			b.state = breakerClosed
			b.fails, b.okProbes = 0, 0
			return true
		}
	}
	return false
}

// allow reports whether routing may prefer this target, moving
// open → half-open once the open window has elapsed (the caller
// detects that transition by comparing state around the call). Open
// means avoid; half-open lets the probes through.
func (b *breaker) allow(now time.Duration) bool {
	if b.state == breakerOpen {
		if now-b.openedAt < breakerOpenFor {
			return false
		}
		b.state = breakerHalfOpen
		b.okProbes = 0
	}
	return true
}
