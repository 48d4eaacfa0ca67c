// Package obs is the simulator's observability layer: deterministic,
// sim-time-stamped request lifecycle spans and sampled fleet time
// series, exportable as Chrome trace-event JSON (Perfetto-loadable)
// and CSV/JSON time series.
//
// An Observer collects one run. The serve stack threads it through as
// a nil-gated hook: every emission site checks for a nil sink before
// materializing any arguments, so the disabled path costs a single
// pointer compare and zero allocations, and disabled output stays
// byte-identical to an uninstrumented build.
//
// Determinism contract: events live in per-track Streams. A stream is
// only ever appended to by one goroutine at a time — engine streams by
// the worker stepping that engine (worker pools partition engines by
// index), controller/balancer streams by the serial controller loop,
// which also writes fleet lifecycle events into parked replicas'
// streams between stepping barriers. Streams are registered in
// controller order (serial), so registration order, per-stream event
// order, and therefore every exported byte are independent of the
// worker count. Exports visit events in (time, stream registration
// order, intra-stream index) order — a total order with no ties —
// through a k-way merge of the streams, each first sorted stably by
// time if it was appended out of order. The Chrome trace is streamed
// from that merge one record at a time.
//
// Span conservation: every request that enters the system ends in
// exactly one terminal event — finish, reject, drop, shared-hit, shed
// or cloud-route — and no exported span of it ends after that event.
package obs

import (
	"cmp"
	"slices"
	"time"
)

// Kind labels one lifecycle event.
type Kind uint8

// Request lifecycle kinds (Req >= 0) and fleet lifecycle kinds
// (Req == NoRequest, attached to a replica or balancer track).
const (
	// EvEnqueue: the request entered a replica's waiting queue
	// (stamped at its arrival, which may precede the emitting
	// iteration — exports merge by time).
	EvEnqueue Kind = iota
	// EvAdmit: the scheduler moved the request into the running batch.
	EvAdmit
	// EvPrefillDone: the prompt (or recompute) finished prefilling and
	// the request entered decode. Emitted again after each preemption.
	EvPrefillDone
	// EvPreempt: the request was preempted (recompute) back to the
	// queue.
	EvPreempt
	// EvFinish: the final token was produced. Terminal.
	EvFinish
	// EvReject: the engine rejected the request (Detail = reason).
	// Terminal.
	EvReject
	// EvRoute: the balancer chose a replica (Detail = replica, or the
	// chosen region on a geo balancer track).
	EvRoute
	// EvSharedHit: the shared cache tier answered the request without
	// touching a replica. Terminal.
	EvSharedHit
	// EvRetry: a crash-lost request was resubmitted (a retry hop;
	// cross-region refugee hops land on the geo balancer track).
	EvRetry
	// EvDrop: the request exhausted its retry budget (or was stranded
	// with no routable fleet) and was dropped. Terminal.
	EvDrop
	// EvLost: in-flight work was lost to a crash or ejection drain.
	// Non-terminal — followed by EvRetry or EvDrop.
	EvLost
	// EvCrash: the replica crashed (fault plan or outage).
	EvCrash
	// EvRestart: the replica came back from a planned restart.
	EvRestart
	// EvEject: the health tier ejected the replica from routing.
	EvEject
	// EvReadmit: the health tier readmitted the replica after cooldown.
	EvReadmit
	// EvScaleUp: the autoscaler spawned a replica (Detail = name).
	EvScaleUp
	// EvScaleDown: the autoscaler drained a replica (Detail = name).
	EvScaleDown
	// EvShed: admission control shed the request as unservable within
	// its SLO (Detail = reason). Terminal.
	EvShed
	// EvBreakerOpen: the track's circuit breaker tripped open — routing
	// diverts around it.
	EvBreakerOpen
	// EvBreakerHalfOpen: the breaker's open window elapsed; probe
	// traffic is allowed through again.
	EvBreakerHalfOpen
	// EvBreakerClose: the half-open probes succeeded and the breaker
	// closed.
	EvBreakerClose
	// EvCloudRoute: the balancer diverted the request to the elastic
	// cloud backend, which accepted and priced it (Detail = the deciding
	// policy: "overflow", "shed-or-buy", or "geo-overflow"). Terminal —
	// the cloud never rejects work it accepted.
	EvCloudRoute
	// EvCloudThrottle: the cloud backend delayed or refused a dispatch
	// (Detail = "rate" for a rate-limit wait, "budget" for a MaxSpend
	// refusal). Non-terminal: a delayed request is still served by the
	// cloud; a refused one stays on its local path (a shed-or-buy
	// waiter is shed).
	EvCloudThrottle
)

// NoRequest is the Req value for fleet lifecycle events.
const NoRequest = -1

var kindNames = [...]string{
	EvEnqueue:         "enqueue",
	EvAdmit:           "admit",
	EvPrefillDone:     "prefill-done",
	EvPreempt:         "preempt",
	EvFinish:          "finish",
	EvReject:          "reject",
	EvRoute:           "route",
	EvSharedHit:       "shared-hit",
	EvRetry:           "retry",
	EvDrop:            "drop",
	EvLost:            "lost",
	EvCrash:           "crash",
	EvRestart:         "restart",
	EvEject:           "eject",
	EvReadmit:         "readmit",
	EvScaleUp:         "scale-up",
	EvScaleDown:       "scale-down",
	EvShed:            "shed",
	EvBreakerOpen:     "breaker-open",
	EvBreakerHalfOpen: "breaker-half-open",
	EvBreakerClose:    "breaker-close",
	EvCloudRoute:      "cloud-route",
	EvCloudThrottle:   "cloud-throttle",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Terminal reports whether the kind ends a request's span graph: a
// request that entered the system finishes, is rejected, is dropped,
// is answered by the shared cache, is shed, or is served by the cloud
// — exactly one of these, exactly once.
func (k Kind) Terminal() bool {
	switch k {
	case EvFinish, EvReject, EvDrop, EvSharedHit, EvShed, EvCloudRoute:
		return true
	}
	return false
}

// Event is one sim-time-stamped lifecycle event.
type Event struct {
	At     time.Duration `json:"at"`
	Kind   Kind          `json:"kind"`
	Req    int           `json:"req"`              // request ID, NoRequest for fleet events
	Detail string        `json:"detail,omitempty"` // reason / replica / region
}

// Stream is one track's append-only event buffer: a replica, a
// balancer, or a geo balancer. All methods are nil-receiver safe so
// emission sites stay a single guarded append.
type Stream struct {
	Region string // owning region ("" outside the geo tier)
	Track  string // replica name, "balancer", or "geo-balancer"
	order  int    // registration order; export tie-break
	events []Event
}

// Event appends one event. Nil-safe: a nil stream is the disabled
// path and returns before touching its arguments.
func (s *Stream) Event(at time.Duration, kind Kind, req int, detail string) {
	if s == nil {
		return
	}
	s.events = append(s.events, Event{At: at, Kind: kind, Req: req, Detail: detail})
}

// Events returns the stream's events in emission order.
func (s *Stream) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// ClassAttainment is one request class's SLO attainment within a
// sampling window: of the Requests that completed or were rejected in
// the window, TTFTMet had a TTFT deadline and met it.
type ClassAttainment struct {
	Class    string `json:"class"`
	Requests int    `json:"requests"`
	TTFTMet  int    `json:"ttftMet"`
}

// Sample is one controller-tick snapshot of a fleet (or of one region
// in the geo tier).
type Sample struct {
	At    time.Duration `json:"at"`
	Track string        `json:"track"` // fleet or region name

	// Fleet composition after the tick's scaling decision.
	Desired  int `json:"desired"`
	Active   int `json:"active"`
	Warming  int `json:"warming"`
	Draining int `json:"draining"`
	Down     int `json:"down"`    // crashed or ejected right now
	Ejected  int `json:"ejected"` // subset of Down ejected by health

	QueuedRequests  int `json:"queuedRequests"` // waiting + parked backlog
	RunningRequests int `json:"runningRequests"`

	// KVUtil is the live fleet's paged-KV occupancy in [0,1].
	KVUtil float64 `json:"kvUtil"`
	// CacheHitRate is the cumulative measured prefix-cache hit rate in
	// [0,1] (zero when no replica runs a measured cache).
	CacheHitRate float64 `json:"cacheHitRate"`

	// ShedRate is the fraction of the window's terminal outcomes that
	// admission control shed (zero without an admission policy).
	ShedRate float64 `json:"shedRate"`
	// BreakersOpen / BreakersHalfOpen count replica circuit breakers in
	// those states after the tick (zero without a breaker config).
	BreakersOpen     int `json:"breakersOpen"`
	BreakersHalfOpen int `json:"breakersHalfOpen"`

	// CloudRequests counts requests the elastic cloud backend served in
	// the window since the previous sample; CloudSpend is the cumulative
	// dollars bought so far. Both zero without a cloud tier.
	CloudRequests int     `json:"cloudRequests"`
	CloudSpend    float64 `json:"cloudSpend"`

	// Classes is the per-class rolling attainment since the previous
	// sample, sorted by class name.
	Classes []ClassAttainment `json:"classes,omitempty"`
}

// Observer collects one run's streams and samples. The zero value is
// not useful; call NewObserver. A nil *Observer is the disabled layer:
// Stream returns nil (so downstream emissions no-op) and Sample
// returns immediately.
type Observer struct {
	streams []*Stream
	samples []Sample
}

// NewObserver returns an empty collector for one run.
func NewObserver() *Observer { return &Observer{} }

// Stream registers a new track. Registration happens on the serial
// controller path (cluster setup, replica spawn), never concurrently,
// so registration order is deterministic. Nil-safe: a nil observer
// returns a nil stream.
func (o *Observer) Stream(region, track string) *Stream {
	if o == nil {
		return nil
	}
	s := &Stream{Region: region, Track: track, order: len(o.streams)}
	o.streams = append(o.streams, s)
	return s
}

// Sample appends one controller-tick snapshot. Called only from the
// serial controller loop. Nil-safe.
func (o *Observer) Sample(s Sample) {
	if o == nil {
		return
	}
	o.samples = append(o.samples, s)
}

// Streams returns every registered track in registration order.
func (o *Observer) Streams() []*Stream {
	if o == nil {
		return nil
	}
	return o.streams
}

// Samples returns every snapshot in controller-tick order.
func (o *Observer) Samples() []Sample {
	if o == nil {
		return nil
	}
	return o.samples
}

// EventCount totals events across all streams.
func (o *Observer) EventCount() int {
	n := 0
	for _, s := range o.Streams() {
		n += len(s.events)
	}
	return n
}

// Empty reports whether the run captured nothing (no events and no
// samples) — e.g. the scenario does not honor the observability hook.
func (o *Observer) Empty() bool {
	return o.EventCount() == 0 && len(o.Samples()) == 0
}

// StreamEvent is an Event joined with its track identity, as produced
// by Events.
type StreamEvent struct {
	Event
	Region string
	Track  string
}

// Events flattens every stream into one slice in the total order of
// merge: (At, stream registration order, intra-stream index), with no
// ties, so the result (and every export derived from it) is
// byte-identical across worker counts.
func (o *Observer) Events() []StreamEvent {
	out := make([]StreamEvent, 0, o.EventCount())
	o.merge(func(s *Stream, ev *Event) {
		out = append(out, StreamEvent{Event: *ev, Region: s.Region, Track: s.Track})
	})
	return out
}

// cursor walks one stream's events in time order.
type cursor struct {
	s    *Stream
	perm []int32 // event indices stably sorted by At; nil when the stream already is
	pos  int
	at   time.Duration // At of the current event
}

func (c *cursor) event() *Event {
	if c.perm != nil {
		return &c.s.events[c.perm[c.pos]]
	}
	return &c.s.events[c.pos]
}

// before orders cursors by their current event's time, then by stream
// registration order.
func (c *cursor) before(d *cursor) bool {
	return c.at < d.at || (c.at == d.at && c.s.order < d.s.order)
}

// merge visits every event in the total order (At, stream registration
// order, intra-stream index). Most streams are appended in time order;
// the rest (replica tracks, whose enqueue events are stamped at arrival
// but emitted once the engine steps past it) get a stable index sort of
// their own. A k-way merge over the per-stream cursors then interleaves
// them without sorting the whole event set.
func (o *Observer) merge(visit func(s *Stream, ev *Event)) {
	h := make([]cursor, 0, len(o.Streams()))
	for _, s := range o.Streams() {
		if len(s.events) == 0 {
			continue
		}
		c := cursor{s: s}
		if !slices.IsSortedFunc(s.events, func(a, b Event) int { return cmp.Compare(a.At, b.At) }) {
			c.perm = make([]int32, len(s.events))
			for i := range c.perm {
				c.perm[i] = int32(i)
			}
			slices.SortStableFunc(c.perm, func(a, b int32) int {
				return cmp.Compare(s.events[a].At, s.events[b].At)
			})
		}
		c.at = c.event().At
		h = append(h, c)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		c := &h[0]
		visit(c.s, c.event())
		if c.pos++; c.pos < len(c.s.events) {
			c.at = c.event().At
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []cursor, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].before(&h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(&h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
