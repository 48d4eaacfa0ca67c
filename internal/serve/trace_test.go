package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

// This file pins the observability layer's two core promises: span
// conservation (every request's span graph ends in exactly one terminal
// event that matches its Result disposition, even through crashes,
// retries, and cross-region refugee hops) and the disabled path's zero
// cost (a nil tap is one pointer compare, no allocations).

// wantTerminal maps a request's Result disposition to the terminal
// event kind its span graph must end in.
func wantTerminal(m RequestMetrics) obs.Kind {
	switch {
	case m.Replica == SharedCacheReplica:
		return obs.EvSharedHit
	case m.Replica == CloudReplica:
		return obs.EvCloudRoute
	case m.Rejected && m.RejectReason == RejectCrashDropped:
		return obs.EvDrop
	case m.Rejected && m.RejectReason == RejectShed:
		return obs.EvShed
	case m.Rejected:
		return obs.EvReject
	}
	return obs.EvFinish
}

// checkSpanConservation asserts the span-conservation property between one
// traced run's Observer and its Result: every request has exactly one
// terminal event, of the kind its disposition names, and in the
// exported Chrome trace none of its spans ends after that event.
func checkSpanConservation(t *testing.T, o *obs.Observer, res *Result) {
	t.Helper()
	terminals := map[int][]obs.StreamEvent{}
	for _, se := range o.Events() {
		if se.Req == obs.NoRequest || !se.Kind.Terminal() {
			continue
		}
		terminals[se.Req] = append(terminals[se.Req], se)
	}
	for _, m := range res.PerRequest {
		got := terminals[m.ID]
		if len(got) != 1 {
			t.Fatalf("request %d has %d terminal events %v, want exactly 1", m.ID, len(got), got)
		}
		if want := wantTerminal(m); got[0].Kind != want {
			t.Fatalf("request %d (replica %q rejected=%v reason %q): trace ends in %v, want %v",
				m.ID, m.Replica, m.Rejected, m.RejectReason, got[0].Kind, want)
		}
	}
	if len(terminals) != len(res.PerRequest) {
		t.Fatalf("trace has terminals for %d requests, Result has %d rows",
			len(terminals), len(res.PerRequest))
	}

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
			ID string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "e" {
			continue
		}
		req, err := strconv.Atoi(e.ID)
		if err != nil {
			t.Fatalf("span end with request id %q", e.ID)
		}
		term := terminals[req][0]
		if end := float64(term.At) / float64(time.Microsecond); e.Ts > end {
			t.Fatalf("request %d has a span ending at %.3f µs, after its %v at %.3f µs",
				req, e.Ts, term.Kind, end)
		}
	}
}

// enqueuedAfterBuy counts the requests the merged event order enqueues
// on a replica after, and at the instant of, their cloud-route.
func enqueuedAfterBuy(o *obs.Observer) int {
	bought, n := map[int]time.Duration{}, 0
	for _, se := range o.Events() {
		switch se.Kind {
		case obs.EvCloudRoute:
			bought[se.Req] = se.At
		case obs.EvEnqueue:
			if at, ok := bought[se.Req]; ok && at == se.At {
				n++
			}
		}
	}
	return n
}

// TestTraceConservationAutoscaledFaults checks conservation on the
// cluster tier's hardest path: autoscaling with a restarting and a dead
// crash, so dispositions include served-after-retry, retry-budget
// drops, and plain rejections alongside clean finishes.
func TestTraceConservationAutoscaledFaults(t *testing.T) {
	cm := llamaCM(t)
	tr := cachedDeterminismTrace(t, 29)
	o := obs.NewObserver()
	cl := DPCluster("conserve", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 2)
	cl.Lockstep = false
	cl.Router = NewLiveLeastLoadedRouter()
	cl.SharedCache = &SharedCacheConfig{Latency: 20 * time.Millisecond}
	cl.Autoscale = &AutoscaleConfig{
		Scaler:    NewQueueDepthAutoscaler(),
		Interval:  5 * time.Second,
		ColdStart: 5 * time.Second,
		Min:       2,
		Max:       6,
	}
	cl.Faults = &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
		{Replica: 1, At: 15 * time.Second, Restart: 25 * time.Second},
		{Replica: 0, At: 20 * time.Second},
	}}
	cl.Obs = o
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkSpanConservation(t, o, res)
}

// TestTraceConservationGeoOutage checks conservation through the geo
// tier's refugee path: a home-region outage forces cross-region
// re-submission hops, and every displaced request must still end in
// exactly one terminal event.
func TestTraceConservationGeoOutage(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 31)
	for i := range tr.Requests {
		if i%3 == 0 {
			tr.Requests[i].Origin = "east"
		} else {
			tr.Requests[i].Origin = "west"
		}
	}
	o := obs.NewObserver()
	regions := make([]Region, 2)
	for i := range regions {
		regions[i] = Region{Configs: []Config{
			{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
			{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
		}}
	}
	g := Geo{
		Name:     "conserve-geo",
		Topology: UniformTopology(120*time.Millisecond, "west", "east"),
		Regions:  regions,
		Router:   NewSpillOverRouter(),
		Faults: &workload.FaultPlan{Outages: []workload.RegionOutage{
			{Region: "west", Start: 15 * time.Second, End: 25 * time.Second},
		}},
	}
	g.Obs = o
	res, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkSpanConservation(t, o, res)
}

// TestTraceConservationGeoRetryBuy checks conservation where a
// crash-lost request is retried at once into the other region and
// bought by the budgeted cloud through shed-or-buy at the instant a
// replica there enqueues it. The cloud track is registered before the
// replica tracks, so the trace orders the terminal cloud-route before
// the enqueue; the queue span it opens must end at that instant, not at
// the end of the trace.
func TestTraceConservationGeoRetryBuy(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 5)
	for i := range tr.Requests {
		if i%3 == 0 {
			tr.Requests[i].Origin = "east"
		} else {
			tr.Requests[i].Origin = "west"
		}
	}
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16,
		Admission: &AdmissionConfig{Policy: AdmissionShedOrBuy}}
	cloud := cloudCfg()
	cloud.MaxSpend = 1
	o := obs.NewObserver()
	g := Geo{
		Name:     "conserve-retry-buy",
		Topology: UniformTopology(120*time.Millisecond, "west", "east"),
		Regions: []Region{
			{Configs: []Config{cfg, cfg}, Router: NewLiveLeastLoadedRouter()},
			{Configs: []Config{cfg, cfg}, Router: NewLiveLeastLoadedRouter()},
		},
		Router: NewSpillOverRouter(),
		Faults: &workload.FaultPlan{
			Crashes: []workload.ReplicaCrash{
				{Region: "west", Replica: 0, At: 15 * time.Second, Restart: 30 * time.Second},
			},
			Retry: &workload.RetryPolicy{BackoffBase: time.Millisecond, BackoffCap: time.Millisecond},
		},
		Breakers: &BreakerConfig{},
		Cloud:    cloud,
		Obs:      o,
	}
	res, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 || res.CloudRequests == 0 {
		t.Fatalf("retries %d, cloud requests %d: want both > 0", res.Retries, res.CloudRequests)
	}
	if n := enqueuedAfterBuy(o); n == 0 {
		t.Fatal("no request was enqueued at the instant the cloud bought it")
	}
	checkSpanConservation(t, o, res)
}

// TestDisabledTraceHookAllocates0 pins the disabled path's contract:
// with no observer attached the per-event hook — a nil-receiver method
// call — allocates nothing, so untraced runs pay one pointer compare
// per hook site and stay byte-identical to the pre-observability
// simulator.
func TestDisabledTraceHookAllocates0(t *testing.T) {
	e := mustEngine(t, Config{CM: llamaCM(t), Par: perf.Parallelism{SP: 1, TP: 1}})
	if e.tap != nil {
		t.Fatal("fresh engine has a tap attached")
	}
	if got := testing.AllocsPerRun(1000, func() {
		e.tap.event(time.Second, obs.EvFinish, 1, "detail")
	}); got != 0 {
		t.Fatalf("disabled tap hook allocates %v per op, want 0", got)
	}
	var s *obs.Stream
	if got := testing.AllocsPerRun(1000, func() {
		s.Event(time.Second, obs.EvRoute, 1, "r0")
	}); got != 0 {
		t.Fatalf("nil stream event allocates %v per op, want 0", got)
	}
	var o *obs.Observer
	if got := testing.AllocsPerRun(1000, func() {
		s = o.Stream("", "r0")
	}); got != 0 {
		t.Fatalf("nil observer Stream allocates %v per op, want 0", got)
	}
	if s != nil {
		t.Fatal("nil observer returned a non-nil stream")
	}
}

// BenchmarkSimulator_DisabledTraceHook is the perf-trajectory pin for
// the disabled hook: 0 allocs/op and a handful of nanoseconds.
func BenchmarkSimulator_DisabledTraceHook(b *testing.B) {
	var tap *engineTap
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tap.event(time.Duration(i), obs.EvFinish, i, "")
	}
}
