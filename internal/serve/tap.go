// Engine observation tap: the single nil-gated attachment point for
// everything optional an engine can record — the obs lifecycle stream
// and the deprecated per-iteration IterEvent buffer. An engine with a
// nil tap is the untraced fast path: every hook is one pointer compare
// on a nil receiver and allocates nothing (pinned by
// TestDisabledTraceHookAllocates0 and BenchmarkSimulator_DisabledTraceHook).
package serve

import (
	"time"

	"repro/internal/obs"
)

// engineTap carries an engine's observation sinks. It exists (is
// non-nil) only when at least one of them is enabled.
type engineTap struct {
	// stream receives the engine-side request lifecycle events
	// (enqueue, admit, prefill-done, preempt, finish, reject) plus the
	// controller-written fleet events for this replica (crash, eject,
	// restart, readmit, lost). nil when tracing is off.
	stream *obs.Stream

	// iters captures one IterEvent per engine iteration for
	// Cluster.RecordEvents (Result.Events): the per-iteration token
	// record Figure 7 and Table 5 read, which obs does not keep.
	iters       []IterEvent
	recordIters bool
}

// event forwards one lifecycle event. Nil-safe on both the tap and its
// stream so call sites stay a bare call with no guards; the arguments
// are plain values, so the disabled path allocates nothing.
func (t *engineTap) event(at time.Duration, kind obs.Kind, req int, detail string) {
	if t == nil {
		return
	}
	t.stream.Event(at, kind, req, detail)
}

// ensureTap returns the engine's tap, allocating it on first use.
// Callers enabling a sink go through this; the engine itself never
// creates a tap.
func (e *Engine) ensureTap() *engineTap {
	if e.tap == nil {
		e.tap = &engineTap{}
	}
	return e.tap
}

// attachStream points the engine's tap at an obs stream. A nil stream
// (observer disabled) leaves the engine untouched — in particular it
// does not allocate a tap.
func (e *Engine) attachStream(s *obs.Stream) {
	if s == nil {
		return
	}
	e.ensureTap().stream = s
}

// setRecordIters enables IterEvent capture.
func (e *Engine) setRecordIters(on bool) {
	if !on {
		return
	}
	e.ensureTap().recordIters = true
}

// iterEvents returns the captured IterEvents (nil when disabled).
func (e *Engine) iterEvents() []IterEvent {
	if e.tap == nil {
		return nil
	}
	return e.tap.iters
}
