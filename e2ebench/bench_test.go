package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRouterDecoratorForwardsCloudAware(t *testing.T) {
	rt := &routeTimer{tr: newTracer()}
	cloudy := rt.wrap(serve.NewCloudOverflowRouter())
	ca, ok := cloudy.(serve.CloudAwareRouter)
	if !ok {
		t.Fatal("wrapped cloud-overflow router lost serve.CloudAwareRouter")
	}
	plain := rt.wrap(serve.NewCacheAwareRouter())
	if _, ok := plain.(serve.CloudAwareRouter); ok {
		t.Fatal("wrapped cache-aware router claims serve.CloudAwareRouter")
	}
	if cloudy.Name() != "cloud-overflow" || plain.Name() != "cache-aware" {
		t.Fatalf("names not forwarded: %q, %q", cloudy.Name(), plain.Name())
	}

	views := []serve.ReplicaView{
		{Index: 0, Name: "a", OutstandingTokens: 900, LiveTokens: 900, Live: true},
		{Index: 1, Name: "b", OutstandingTokens: 100, LiveTokens: 100, Live: true},
	}
	req := workload.Request{ID: 7, InputTokens: 10, OutputTokens: 10}
	want := serve.NewCloudOverflowRouter().Route(req, views)
	if got := cloudy.Route(req, views); got != want {
		t.Fatalf("Route = %d, inner router says %d", got, want)
	}
	cv := serve.CloudView{BaseLatency: time.Second}
	if got, want := ca.RouteCloud(req, views, cv), serve.NewCloudOverflowRouter().RouteCloud(req, views, cv); got != want {
		t.Fatalf("RouteCloud = %v, inner router says %v", got, want)
	}
	if rt.calls != 2 {
		t.Fatalf("decorator counted %d calls, want 2", rt.calls)
	}
	if n := len(rt.tr.durations("serve.route")) + len(rt.tr.durations("serve.route_cloud")); n != 2 {
		t.Fatalf("decorator recorded %d spans, want 2", n)
	}
}

// smallRun replays one period of fleet-agentic and returns the trace
// and the result.
func smallRun(t *testing.T) (*workload.Trace, *serve.Result) {
	t.Helper()
	cm, err := costModel()
	if err != nil {
		t.Fatal(err)
	}
	tr := tile("fleet-agentic", 1, 1, agenticPattern)
	dep, _ := buildAgentic(cm, 1)(nil)
	res, err := dep.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit(tr, res); err != nil {
		t.Fatalf("audit of an untouched run: %v", err)
	}
	return tr, res
}

func TestAuditRejectsDoctoredResults(t *testing.T) {
	tr, res := smallRun(t)
	cases := []struct {
		name   string
		doctor func(r *serve.Result)
		want   string
	}{
		{"duplicated row", func(r *serve.Result) {
			r.PerRequest = append(r.PerRequest, r.PerRequest[3])
		}, "has 2 rows"},
		{"missing row", func(r *serve.Result) {
			r.PerRequest = r.PerRequest[1:]
		}, "has 0 rows"},
		{"unknown request", func(r *serve.Result) {
			r.PerRequest[0].ID = len(tr.Requests) + 5
		}, "not in the trace"},
		{"unbalanced rejects", func(r *serve.Result) {
			r.Rejected++
		}, "named reject columns"},
		{"unbalanced ledger", func(r *serve.Result) {
			r.OwnedSpend += 0.01
		}, "TotalSpend"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doctored := *res
			doctored.PerRequest = append([]serve.RequestMetrics(nil), res.PerRequest...)
			c.doctor(&doctored)
			err := audit(tr, &doctored)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("audit = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestDigestSeesEveryRowAndCounter(t *testing.T) {
	_, res := smallRun(t)
	base, err := digest(res)
	if err != nil {
		t.Fatal(err)
	}
	row := *res
	row.PerRequest = append([]serve.RequestMetrics(nil), res.PerRequest...)
	row.PerRequest[len(row.PerRequest)-1].TTFT++
	counter := *res
	counter.Iters++
	for name, r := range map[string]*serve.Result{"row": &row, "counter": &counter} {
		d, err := digest(r)
		if err != nil {
			t.Fatal(err)
		}
		if d == base {
			t.Errorf("changing a %s left the digest unchanged", name)
		}
	}
}

func TestOneTiledPeriodMatchesUntiledTrace(t *testing.T) {
	const seed = 42
	ps := periodSeed(seed, 0)
	untiled := map[string]int{
		"shift-bursty":  len(trace.Bursty(ps, 10*time.Minute).Requests),
		"fleet-agentic": len(trace.ProductionMixOpen(ps, 1.5, 10*time.Minute).Requests),
		"geo-chaos":     len(geoPattern(ps).Requests),
	}
	for _, sp := range specs {
		one := tile(sp.name, seed, 1, sp.pattern)
		if got, want := len(one.Requests), untiled[sp.name]; got != want {
			t.Errorf("%s: one tiled period has %d requests, the untiled 10-minute trace %d", sp.name, got, want)
		}
		// Periods stay inside their own window, and IDs number the
		// tiled trace in arrival order.
		three := tile(sp.name, seed, 3, sp.pattern)
		want := 0
		for i := 0; i < 3; i++ {
			want += len(sp.pattern(periodSeed(seed, i)).Requests)
		}
		if len(three.Requests) != want {
			t.Errorf("%s: three periods have %d requests, want %d", sp.name, len(three.Requests), want)
		}
		if err := three.Validate(); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
		for i, r := range three.Requests {
			if r.ID != i || r.Arrival >= 3*period {
				t.Fatalf("%s: request %d has ID %d, arrival %v", sp.name, i, r.ID, r.Arrival)
			}
		}
	}
}

func TestSeedsGiveDistinctPeriods(t *testing.T) {
	a := tile("shift-bursty", 1, 2, burstyPattern)
	b := tile("shift-bursty", 1, 2, burstyPattern)
	c := tile("shift-bursty", 2, 2, burstyPattern)
	if len(a.Requests) != len(b.Requests) || a.Requests[5] != b.Requests[5] {
		t.Fatal("the same seed gave different traces")
	}
	if len(a.Requests) == len(c.Requests) && a.Requests[5] == c.Requests[5] {
		t.Fatal("different seeds gave the same trace")
	}
	if periodSeed(1, 0) == periodSeed(1, 1) {
		t.Fatal("two periods share a seed")
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/serve.(*Engine).schedule":                "serve.schedule",
		"repro/internal/serve.(*Engine).schedule.func1":          "serve.schedule",
		"repro/internal/serve.(*Engine).shedPass":                "serve.schedule",
		"repro/internal/serve.(*Engine).apply":                   "serve.apply",
		"repro/internal/serve.(*Engine).price":                   "perf",
		"repro/internal/serve.(*Engine).stepUntil":               "serve.engine",
		"repro/internal/serve.(*waitQueue).pushFront":            "",
		"repro/internal/serve.(*cacheAware).Route":               "serve.route",
		"repro/internal/serve.(*fleetState).route":               "serve.route",
		"repro/internal/serve.(*fleetState).evaluate":            "serve.controller",
		"repro/internal/serve.Geo.Run.func3":                     "serve.controller",
		"repro/internal/serve.(*lruCache).access":                "serve.prefixcache",
		"repro/internal/serve.(*engineTap).event":                "obs",
		"repro/internal/serve.buildResult":                       "serve.result",
		"repro/internal/kvcache.(*Allocator).Ensure":             "kvcache",
		"repro/internal/perf.(*CostModel).IterEP":                "perf",
		"repro/internal/obs.(*Observer).WriteChromeTrace":        "obs",
		"repro/internal/conc.For.func1":                          "conc",
		"runtime.mallocgc":                                       "",
		"repro/internal/workload.Request.TotalTokens":            "",
		"main.timedRouter.Route":                                 "",
		"repro/internal/serve.(*Engine).preemptForUrgentExtra":   "serve.engine",
		"repro/internal/serve.(*SpillOverRouter).RouteCloud":     "serve.route",
		"repro/internal/serve.(*CloudOverflowRouter).RouteCloud": "serve.route",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for i, stack := range p.stacks {
		total += p.counts[i]
		for _, fn := range stack {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if total == 0 || !found {
		t.Fatalf("profile has %d samples, spin on a stack: %v", total, found)
	}
	layers := map[string]int64{}
	p.layerSamples(layers)
	if layers[""] != total {
		t.Fatalf("harness-only samples attributed to layers: %v", layers)
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	type entry struct{ kind, unit, better string }
	want := map[string]entry{}
	for _, m := range bm.EndToEnd {
		want[m.Name] = entry{"end_to_end", m.Unit, m.Better}
	}
	for _, m := range bm.PerLayer {
		want[m.Name] = entry{"per_layer", m.Unit, m.Better}
	}
	if len(cat.Metrics) != len(want) {
		t.Errorf("metrics.json has %d metrics, BENCHMARK.json %d", len(cat.Metrics), len(want))
	}
	for _, m := range cat.Metrics {
		if got := (entry{m.Kind, m.Unit, m.Better}); got != want[m.Name] {
			t.Errorf("%s: metrics.json says %v, BENCHMARK.json %v", m.Name, got, want[m.Name])
		}
		if m.TimeBase != "host" && m.TimeBase != "sim" {
			t.Errorf("%s: time base %q", m.Name, m.TimeBase)
		}
	}
	if len(bm.Workloads) != len(specs) || len(cat.Workloads) != len(specs) {
		t.Fatalf("workloads: BENCHMARK.json %d, metrics.json %d, harness %d", len(bm.Workloads), len(cat.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bm.Workloads[i].Name != sp.name || cat.Workloads[i].Name != sp.name {
			t.Errorf("workload %d: harness %s, BENCHMARK.json %s, metrics.json %s", i, sp.name, bm.Workloads[i].Name, cat.Workloads[i].Name)
		}
	}
}

// TestShortRunsReportEveryMetric runs both modes on one period of each
// workload and checks the result line.
func TestShortRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every workload")
	}
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		sp.periods = 1
		for _, traced := range []bool{false, true} {
			o := options{workload: sp.name, seed: 3, seconds: 0.001, spans: t.TempDir() + "/spans.json"}
			var rep *report
			kind := "end_to_end"
			if traced {
				kind = "per_layer"
				rep, err = measureTraced(sp, o)
			} else {
				rep, err = measure(sp, o)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			var out bytes.Buffer
			if err := rep.write(&out, cat, kind); err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minReps {
				t.Fatalf("%s traced=%v: %+v\n%s", sp.name, traced, res, out.String())
			}
			for _, m := range cat.Metrics {
				if _, ok := res.Metrics[m.Name]; ok != (m.Kind == kind) {
					t.Errorf("%s traced=%v: metric %s present=%v", sp.name, traced, m.Name, ok)
				}
			}
		}
	}
}
