package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	s := o.Stream("r", "t")
	if s != nil {
		t.Fatal("nil observer returned a non-nil stream")
	}
	s.Event(time.Second, EvFinish, 1, "") // must not panic
	o.Sample(Sample{At: 1})
	if !o.Empty() || o.EventCount() != 0 || o.Streams() != nil || o.Samples() != nil || len(o.Events()) != 0 {
		t.Fatal("nil observer reports content")
	}
}

func TestEventsTotalOrder(t *testing.T) {
	o := NewObserver()
	a := o.Stream("", "a")
	b := o.Stream("", "b")
	// Same timestamp across streams breaks ties by registration order;
	// within a stream, by append order.
	b.Event(2*time.Second, EvFinish, 2, "")
	a.Event(2*time.Second, EvEnqueue, 3, "")
	a.Event(1*time.Second, EvEnqueue, 1, "")
	a.Event(1*time.Second, EvAdmit, 1, "")
	got := o.Events()
	want := []struct {
		track string
		kind  Kind
	}{
		{"a", EvEnqueue}, {"a", EvAdmit}, {"a", EvEnqueue}, {"b", EvFinish},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Track != w.track || got[i].Kind != w.kind {
			t.Fatalf("event %d is %s/%v, want %s/%v", i, got[i].Track, got[i].Kind, w.track, w.kind)
		}
	}
}

func TestTerminalKinds(t *testing.T) {
	for _, k := range []Kind{EvFinish, EvReject, EvDrop, EvSharedHit} {
		if !k.Terminal() {
			t.Errorf("%v is not terminal", k)
		}
	}
	for _, k := range []Kind{EvEnqueue, EvAdmit, EvPrefillDone, EvPreempt, EvRoute,
		EvRetry, EvLost, EvCrash, EvRestart, EvEject, EvReadmit, EvScaleUp, EvScaleDown} {
		if k.Terminal() {
			t.Errorf("%v is terminal", k)
		}
	}
}

// chromeDoc decodes a written trace for structural assertions.
type chromeDoc struct {
	TraceEvents []map[string]any `json:"traceEvents"`
	Unit        string           `json:"displayTimeUnit"`
}

func writeTrace(t *testing.T, o *Observer) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestChromeTraceClosesStragglers(t *testing.T) {
	o := NewObserver()
	s := o.Stream("", "r0")
	s.Event(0, EvEnqueue, 1, "")
	s.Event(time.Second, EvAdmit, 1, "")
	s.Event(2*time.Second, EvFinish, 2, "") // unrelated terminal sets the final ts
	doc := writeTrace(t, o)
	opens, closes := 0, 0
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "b":
			opens++
		case "e":
			closes++
		}
	}
	if opens != closes {
		t.Fatalf("%d async opens vs %d closes — request 1's open prefill span leaked", opens, closes)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", doc.Unit)
	}
}

// TestChromeTraceSpanAfterTerminal pins the retry-then-buy order: the
// cloud track, registered before the replica, records the request's
// terminal cloud-route at the instant the replica enqueues it, so the
// merge visits the terminal first. The late queue span must end at that
// instant, not at the end of the trace.
func TestChromeTraceSpanAfterTerminal(t *testing.T) {
	o := NewObserver()
	cloud := o.Stream("eu-west", "cloud")
	r := o.Stream("eu-west", "eu-west-replica0")
	cloud.Event(time.Second, EvCloudRoute, 7, "shed-or-buy")
	r.Event(time.Second, EvEnqueue, 7, "")
	r.Event(time.Hour, EvEnqueue, 8, "")
	r.Event(time.Hour, EvFinish, 8, "")
	doc := writeTrace(t, o)
	var spans []string
	for _, e := range doc.TraceEvents {
		if e["id"] == "7" {
			spans = append(spans, e["ph"].(string)+"@"+strconv.FormatFloat(e["ts"].(float64), 'f', -1, 64))
		}
	}
	if got, want := strings.Join(spans, " "), "b@1000000 e@1000000"; got != want {
		t.Fatalf("request 7's queue span is %q, want %q", got, want)
	}
	checkOracle(t, o)
}

func TestSeriesJSONEmptyIsList(t *testing.T) {
	var buf bytes.Buffer
	if err := NewObserver().WriteSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("empty series JSON = %q, want []", got)
	}
}

func TestExportSeriesDispatchesOnExtension(t *testing.T) {
	o := NewObserver()
	o.Sample(Sample{At: 5 * time.Second, Track: "f", Desired: 2, Active: 2})
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "s.JSON") // case-insensitive match
	csvPath := filepath.Join(dir, "s.csv")
	if err := o.ExportSeries(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := o.ExportSeries(csvPath); err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Sample
	if err := json.Unmarshal(jdata, &rows); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	cdata, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(cdata)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "t_ms,track,") {
		t.Fatalf("CSV export malformed: %q", string(cdata))
	}
}

// oracleEvents is the reference total order: every event of every
// stream, sorted by (At, stream registration order, intra-stream index).
func oracleEvents(o *Observer) []StreamEvent {
	type keyed struct {
		ev         StreamEvent
		order, idx int
	}
	var all []keyed
	for _, s := range o.Streams() {
		for i, ev := range s.events {
			all = append(all, keyed{StreamEvent{Event: ev, Region: s.Region, Track: s.Track}, s.order, i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.order != b.order {
			return a.order < b.order
		}
		return a.idx < b.idx
	})
	out := make([]StreamEvent, len(all))
	for i, k := range all {
		out[i] = k.ev
	}
	return out
}

// usec converts a sim time to trace microseconds.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// oracleEvent is one trace-event record as encoding/json renders it.
type oracleEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// oracleChromeTrace is the reference Chrome trace: the same records
// and span state machine as WriteChromeTrace, built in memory over
// oracleEvents and encoded by encoding/json.
func oracleChromeTrace(t testing.TB, o *Observer) []byte {
	t.Helper()
	evs := oracleEvents(o)
	pidOf := map[string]int{}
	type trackKey struct{ region, track string }
	tidOf := map[trackKey]int{}
	var out []oracleEvent
	for _, s := range o.Streams() {
		pid, ok := pidOf[s.Region]
		if !ok {
			pid = len(pidOf) + 1
			pidOf[s.Region] = pid
			name := s.Region
			if name == "" {
				name = "cluster"
			}
			out = append(out, oracleEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": name}})
		}
		tid := s.order + 1
		tidOf[trackKey{s.Region, s.Track}] = tid
		out = append(out, oracleEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": s.Track}})
		out = append(out, oracleEvent{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"sort_index": s.order}})
	}
	type openPhase struct {
		name     string
		pid, tid int
	}
	open, done := map[int]openPhase{}, map[int]bool{}
	closeSpan := func(req int, ts float64) {
		p, ok := open[req]
		if !ok {
			return
		}
		delete(open, req)
		out = append(out, oracleEvent{Name: p.name, Cat: reqCat, Ph: "e", Ts: ts,
			Pid: p.pid, Tid: p.tid, ID: strconv.Itoa(req)})
	}
	openSpan := func(req int, name string, ts float64, pid, tid int) {
		closeSpan(req, ts)
		open[req] = openPhase{name, pid, tid}
		out = append(out, oracleEvent{Name: name, Cat: reqCat, Ph: "b", Ts: ts,
			Pid: pid, Tid: tid, ID: strconv.Itoa(req)})
		if done[req] {
			closeSpan(req, ts)
		}
	}
	instant := func(ev StreamEvent, ts float64, pid, tid int) {
		args := map[string]any{}
		if ev.Req != NoRequest {
			args["req"] = ev.Req
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		if len(args) == 0 {
			args = nil
		}
		out = append(out, oracleEvent{Name: ev.Kind.String(), Ph: "i", Ts: ts,
			Pid: pid, Tid: tid, Scope: "t", Args: args})
	}
	for _, ev := range evs {
		pid, tid := pidOf[ev.Region], tidOf[trackKey{ev.Region, ev.Track}]
		ts := usec(ev.At)
		switch ev.Kind {
		case EvEnqueue:
			openSpan(ev.Req, "queue", ts, pid, tid)
		case EvAdmit:
			openSpan(ev.Req, "prefill", ts, pid, tid)
		case EvPrefillDone:
			openSpan(ev.Req, "decode", ts, pid, tid)
		case EvPreempt:
			instant(ev, ts, pid, tid)
			openSpan(ev.Req, "queue", ts, pid, tid)
		case EvFinish:
			closeSpan(ev.Req, ts)
		case EvReject, EvDrop, EvLost, EvShed, EvCloudRoute:
			closeSpan(ev.Req, ts)
			instant(ev, ts, pid, tid)
		default:
			instant(ev, ts, pid, tid)
		}
		if ev.Kind.Terminal() {
			done[ev.Req] = true
		}
	}
	if len(open) > 0 {
		endTs := usec(evs[len(evs)-1].At)
		stragglers := make([]int, 0, len(open))
		for req := range open {
			stragglers = append(stragglers, req)
		}
		sort.Ints(stragglers)
		for _, req := range stragglers {
			closeSpan(req, endTs)
		}
	}
	doc := struct {
		TraceEvents     []oracleEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{out, "ms"}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkOracle requires WriteChromeTrace and Events to agree with the
// encoding/json oracle byte for byte.
func checkOracle(t testing.TB, o *Observer) {
	t.Helper()
	var got bytes.Buffer
	if err := o.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if want := oracleChromeTrace(t, o); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed trace differs from the encoding/json oracle:\n got %s\nwant %s", got.Bytes(), want)
	}
	evs, want := o.Events(), oracleEvents(o)
	if len(evs) != len(want) {
		t.Fatalf("Events has %d events, oracle %d", len(evs), len(want))
	}
	for i := range evs {
		if evs[i] != want[i] {
			t.Fatalf("Events[%d] = %+v, oracle %+v", i, evs[i], want[i])
		}
	}
}

func TestChromeTraceNilAndEmpty(t *testing.T) {
	const null = `{"traceEvents":null,"displayTimeUnit":"ms"}` + "\n"
	for name, o := range map[string]*Observer{"nil": nil, "empty": NewObserver()} {
		var buf bytes.Buffer
		if err := o.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != null {
			t.Errorf("%s observer wrote %q, want %q", name, buf.String(), null)
		}
		checkOracle(t, o)
	}
	// Streams without events still export their metadata.
	o := NewObserver()
	o.Stream("", "idle")
	checkOracle(t, o)
}

func TestChromeTraceMatchesOracle(t *testing.T) {
	o := NewObserver()
	a := o.Stream("eu<west>", "r&0")
	b := o.Stream("eu<west>", "balancer")
	c := o.Stream("", "cloud\u2028\xff")
	// a is out of order: enqueue is stamped at arrival, after the
	// engine stepped past it.
	a.Event(2*time.Second, EvAdmit, 1, "")
	a.Event(time.Second, EvEnqueue, 1, "")
	a.Event(3*time.Second, EvPreempt, 1, "kv")
	a.Event(4*time.Second, EvFinish, 1, "")
	b.Event(time.Second, EvRoute, 1, "r&0")
	b.Event(-5, EvCrash, NoRequest, "") // -0.005 µs
	c.Event(time.Duration(1<<62), EvCloudRoute, 2, "over\"flow\n")
	c.Event(7, Kind(200), 3, "\x01\t")
	checkOracle(t, o)
}

func TestChromeTraceWriteError(t *testing.T) {
	o := NewObserver()
	s := o.Stream("", "r0")
	for i := 0; i < 5000; i++ {
		s.Event(time.Duration(i), EvRoute, i, "r0")
	}
	if err := o.WriteChromeTrace(failWriter{}); err == nil {
		t.Fatal("a failing writer reported no error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }

// fuzzStrings are the region, track and detail values the fuzzer
// draws: plain names, HTML-significant characters, U+2028, invalid
// UTF-8, control characters and the empty string.
var fuzzStrings = []string{
	"", "r0", "balancer", "eu<west>", "a&b>c", "line\u2028sep\u2029", "bad\xffutf8\xc3",
	"q\"\\\n\t\x01", "cloud",
}

// decodeObserver builds an Observer from fuzz bytes: a stream count,
// each stream's region and track, then events of six bytes each
// (stream, kind, request, time high and low byte, time scale and
// detail). Kinds run one past the last defined one, requests include
// NoRequest, and times are negative, tiny or near the Duration limit
// and land out of order within a stream.
func decodeObserver(data []byte) *Observer {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	pick := func() string { return fuzzStrings[int(next())%len(fuzzStrings)] }
	o := NewObserver()
	streams := make([]*Stream, next()%6)
	for i := range streams {
		streams[i] = o.Stream(pick(), pick())
	}
	for len(streams) > 0 && len(data) > 0 {
		s := streams[int(next())%len(streams)]
		kind := Kind(next() % byte(len(kindNames)+1))
		req := int(int8(next()))
		at := time.Duration(int16(uint16(next())<<8 | uint16(next())))
		scale := next()
		switch scale % 4 {
		case 1:
			at *= time.Millisecond
		case 2:
			at *= 1 << 47
		}
		s.Event(at, kind, req, fuzzStrings[int(scale/4)%len(fuzzStrings)])
	}
	return o
}

// FuzzChromeTraceBytes requires the streaming Chrome trace writer and
// the merged Events order to equal the encoding/json oracle on
// observers decoded from arbitrary bytes.
func FuzzChromeTraceBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 3, 2, 5, 4})
	// One event of every kind, plus the first out-of-range one, on
	// three streams, walking backwards in time.
	seed := []byte{3, 0, 1, 3, 2, 5, 6}
	for k := 0; k <= len(kindNames); k++ {
		seed = append(seed, byte(k%3), byte(k), byte(k%4)-1, 0, byte(200-k), byte(k))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOracle(t, decodeObserver(data))
	})
}
