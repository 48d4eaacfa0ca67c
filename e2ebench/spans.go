package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent indexes the
// enclosing span (-1 at the top); Req is the request ID of a
// per-request span and -1 otherwise.
type span struct {
	Name   string
	Parent int
	Req    int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer keeps spans in memory; they are written out once the
// benchmark ends. The harness opens and closes its own spans serially;
// add may be called from simulator goroutines. A nil tracer records
// nothing.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: t.top(), Req: -1, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.origin)
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// add records a finished span nested in the innermost open one.
func (t *tracer) add(name string, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Parent: t.top(), Req: req,
		Start: start.Sub(t.origin), End: end.Sub(t.origin),
	})
	t.mu.Unlock()
}

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// durations returns the duration of every span with the given name, in
// recording order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (complete events,
// microseconds), loadable in Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": i, "parent": s.Parent, "req": s.Req},
		}
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
