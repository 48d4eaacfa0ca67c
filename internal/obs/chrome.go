// Chrome trace-event export: the Observer's streams rendered as the
// JSON object format chrome://tracing and Perfetto load. One process
// per region, one thread per track (replicas plus the balancer), each
// request's queue/prefill/decode phases as async b/e span pairs keyed
// by request ID on the track where the phase ran, and fleet lifecycle
// moments (crash, eject, readmit, scale, preempt, retry, ...) as
// thread-scoped instant events on the affected track.
//
// The writer streams: metadata records first, then one record per
// event in merge order, each appended into one reused byte buffer and
// written through a bufio.Writer. The bytes are exactly what
// encoding/json would produce for the same records (its float format,
// its HTML-safe string escaping, its sorted map keys, its trailing
// newline), without building the document in memory. obs_test.go keeps
// the encoding/json writer as the oracle FuzzChromeTraceBytes checks
// this one against.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"
)

// reqCat is the async category grouping one request's phase spans.
const reqCat = "request"

// Phases of the request span state machine; phaseNone means no span
// is open.
const (
	phaseNone uint8 = iota
	phaseQueue
	phasePrefill
	phaseDecode
)

var phaseNames = [...]string{phaseQueue: "queue", phasePrefill: "prefill", phaseDecode: "decode"}

// traceTail closes the traceEvents array and the document.
const traceTail = `],"displayTimeUnit":"ms"}` + "\n"

// WriteChromeTrace renders the collected run as Chrome trace-event
// JSON. Output is deterministic: tracks are numbered in registration
// order and events are emitted in the total order of Events.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	streams := o.Streams()
	if len(streams) == 0 {
		_, err := io.WriteString(w, `{"traceEvents":null,"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	cw := &chromeWriter{
		bw:   bufio.NewWriterSize(w, 64<<10),
		reqs: map[int]reqState{},
		pid:  make([]int, len(streams)),
		tid:  make([]int, len(streams)),
	}
	if _, err := cw.bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}

	// pid per region and tid per track, in stream registration order.
	// Streams sharing a (region, track) name draw on the last one's
	// thread.
	pidOf := map[string]int{}
	type trackKey struct{ region, track string }
	tidOf := map[trackKey]int{}
	for i, s := range streams {
		pid, ok := pidOf[s.Region]
		if !ok {
			pid = len(pidOf) + 1
			pidOf[s.Region] = pid
			name := s.Region
			if name == "" {
				name = "cluster"
			}
			cw.metaName("process_name", pid, 0, name)
		}
		tid := s.order + 1
		tidOf[trackKey{s.Region, s.Track}] = tid
		cw.metaName("thread_name", pid, tid, s.Track)
		cw.metaSortIndex(pid, tid, s.order)
		cw.pid[i] = pid
	}
	for i, s := range streams {
		cw.tid[i] = tidOf[trackKey{s.Region, s.Track}]
	}
	if cw.err != nil {
		return cw.err
	}

	// Request phase state machine over the merged event order: every
	// open phase is an async "b" and every transition closes it with a
	// matching "e" before opening the next, so per-(cat,id) depth never
	// exceeds one and always returns to zero. A phase opened after the
	// request's terminal event closes at once, so no span outlives its
	// terminal. That happens when a retried request is bought by the
	// cloud, whose track is registered before the replicas, at the
	// instant a replica enqueues it; and when an engine's iteration
	// overshoots a crash that drops its requests.
	var last time.Duration
	o.merge(func(s *Stream, ev *Event) {
		if cw.err != nil {
			return
		}
		last = ev.At
		pid, tid, ts := cw.pid[s.order], cw.tid[s.order], ev.At
		switch ev.Kind {
		case EvEnqueue:
			cw.openSpan(ev.Req, phaseQueue, ts, pid, tid)
		case EvAdmit:
			cw.openSpan(ev.Req, phasePrefill, ts, pid, tid)
		case EvPrefillDone:
			cw.openSpan(ev.Req, phaseDecode, ts, pid, tid)
		case EvPreempt:
			cw.instant(ev, ts, pid, tid)
			cw.openSpan(ev.Req, phaseQueue, ts, pid, tid)
		case EvFinish:
			cw.closeSpan(ev.Req, ts)
		case EvReject, EvDrop, EvLost, EvShed, EvCloudRoute:
			cw.closeSpan(ev.Req, ts)
			cw.instant(ev, ts, pid, tid)
		default:
			// Route, shared-hit, retry, and all fleet lifecycle kinds
			// render as instants on their track.
			cw.instant(ev, ts, pid, tid)
		}
		if ev.Kind.Terminal() {
			st := cw.reqs[ev.Req]
			st.done = true
			cw.reqs[ev.Req] = st
		}
	})
	// A request still open at end of trace (one that never reached a
	// terminal event) would leave an unmatched "b"; close it at the
	// trace's final timestamp, in request-ID order, to keep the file
	// well-formed and the bytes deterministic.
	var stragglers []int
	for req, st := range cw.reqs {
		if st.phase != phaseNone {
			stragglers = append(stragglers, req)
		}
	}
	sort.Ints(stragglers)
	for _, req := range stragglers {
		cw.closeSpan(req, last)
	}
	if cw.err != nil {
		return cw.err
	}
	if _, err := cw.bw.WriteString(traceTail); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// reqState is one request's span state: its open phase and where it
// runs, and whether the request has reached a terminal event.
type reqState struct {
	pid, tid int
	phase    uint8
	done     bool
}

// chromeWriter streams trace-event records. Each record is built in
// buf, which is reused, and written through bw; err is the first write
// error, after which nothing more is written.
type chromeWriter struct {
	bw       *bufio.Writer
	buf      []byte
	records  int
	err      error
	reqs     map[int]reqState
	pid, tid []int // per stream, indexed by registration order
}

// begin starts a record in buf: the separating comma, then the fields
// every record has, in the order name, cat (spans only), ph, ts, pid,
// tid. name, cat and ph are kind, phase and metadata names, which need
// no escaping.
func (cw *chromeWriter) begin(name, cat, ph string, at time.Duration, pid, tid int) {
	b := cw.buf[:0]
	if cw.records > 0 {
		b = append(b, ',')
	}
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	if cat != "" {
		b = append(b, `","cat":"`...)
		b = append(b, cat...)
	}
	b = append(b, `","ph":"`...)
	b = append(b, ph...)
	b = append(b, `","ts":`...)
	b = appendMicros(b, at)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	cw.buf = b
}

// end closes the record in buf and writes it.
func (cw *chromeWriter) end() {
	cw.buf = append(cw.buf, '}')
	cw.records++
	if cw.err == nil {
		_, cw.err = cw.bw.Write(cw.buf)
	}
}

// metaName writes a metadata record whose args hold a name.
func (cw *chromeWriter) metaName(name string, pid, tid int, arg string) {
	cw.begin(name, "", "M", 0, pid, tid)
	cw.buf = append(cw.buf, `,"args":{"name":`...)
	cw.buf = appendString(cw.buf, arg)
	cw.buf = append(cw.buf, '}')
	cw.end()
}

// metaSortIndex writes a thread_sort_index metadata record.
func (cw *chromeWriter) metaSortIndex(pid, tid, index int) {
	cw.begin("thread_sort_index", "", "M", 0, pid, tid)
	cw.buf = append(cw.buf, `,"args":{"sort_index":`...)
	cw.buf = strconv.AppendInt(cw.buf, int64(index), 10)
	cw.buf = append(cw.buf, '}')
	cw.end()
}

// span writes one async begin ("b") or end ("e") record of req's phase.
func (cw *chromeWriter) span(name, ph string, ts time.Duration, pid, tid, req int) {
	cw.begin(name, reqCat, ph, ts, pid, tid)
	cw.buf = append(cw.buf, `,"id":"`...)
	cw.buf = strconv.AppendInt(cw.buf, int64(req), 10)
	cw.buf = append(cw.buf, '"')
	cw.end()
}

// closeSpan ends req's open phase, if any, at ts.
func (cw *chromeWriter) closeSpan(req int, ts time.Duration) {
	st := cw.reqs[req]
	if st.phase == phaseNone {
		return
	}
	cw.span(phaseNames[st.phase], "e", ts, st.pid, st.tid, req)
	st.phase = phaseNone
	cw.reqs[req] = st
}

// openSpan ends req's open phase and begins the given one at ts. After
// req's terminal event the new phase ends at ts too.
func (cw *chromeWriter) openSpan(req int, phase uint8, ts time.Duration, pid, tid int) {
	cw.closeSpan(req, ts)
	cw.span(phaseNames[phase], "b", ts, pid, tid, req)
	if cw.reqs[req].done {
		cw.span(phaseNames[phase], "e", ts, pid, tid, req)
		return
	}
	cw.reqs[req] = reqState{pid: pid, tid: tid, phase: phase}
}

// instant writes a thread-scoped instant record for ev. Its args hold
// detail then req, encoding/json's sorted key order, and are omitted
// when the event has neither.
func (cw *chromeWriter) instant(ev *Event, ts time.Duration, pid, tid int) {
	cw.begin(ev.Kind.String(), "", "i", ts, pid, tid)
	cw.buf = append(cw.buf, `,"s":"t"`...)
	hasReq, hasDetail := ev.Req != NoRequest, ev.Detail != ""
	if hasReq || hasDetail {
		cw.buf = append(cw.buf, `,"args":{`...)
		if hasDetail {
			cw.buf = append(cw.buf, `"detail":`...)
			cw.buf = appendString(cw.buf, ev.Detail)
			if hasReq {
				cw.buf = append(cw.buf, ',')
			}
		}
		if hasReq {
			cw.buf = append(cw.buf, `"req":`...)
			cw.buf = strconv.AppendInt(cw.buf, int64(ev.Req), 10)
		}
		cw.buf = append(cw.buf, '}')
	}
	cw.end()
}

// appendMicros appends at in microseconds as encoding/json encodes the
// float64 at/1µs: its shortest round-tripping form, in 'f' notation
// (encoding/json switches to 'e' only outside [1e-6, 1e21), which a
// whole number of nanoseconds never reaches).
func appendMicros(b []byte, at time.Duration) []byte {
	return strconv.AppendFloat(b, float64(at)/float64(time.Microsecond), 'f', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it by default: control characters, the quote, the backslash
// and the HTML-significant <, > and &; U+2028 and U+2029; and each
// byte of invalid UTF-8 as U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ExportChromeTrace writes the Chrome trace to path.
func (o *Observer) ExportChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
