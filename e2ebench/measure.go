package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// inputs is one set-up: the tiled trace and the fleet that replays it.
type inputs struct {
	trace *workload.Trace
	fleet fleet
}

// setUp builds the cost model, the tiled trace and the fleet, recording
// a span around each public call.
func setUp(sp spec, seed uint64, tr *tracer) (*inputs, error) {
	defer tr.end(tr.begin("setup"))
	s := tr.begin("perf.New")
	cm, err := costModel()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("trace.gen")
	t := tile(sp.name, seed, sp.periods, sp.pattern)
	tr.end(s)
	s = tr.begin("serve.fleet")
	f := sp.build(cm, sp.periods)
	f(nil)
	tr.end(s)
	return &inputs{trace: t, fleet: f}, nil
}

// timedSetUp sets up once more, as the run did at its start, and
// returns the CPU time it took. The inputs are discarded: replays keep
// using the first set-up's, which are identical.
func timedSetUp(sp spec, seed uint64, tr *tracer) (time.Duration, error) {
	runtime.GC()
	cpu0 := processCPU()
	_, err := setUp(sp, seed, tr)
	return processCPU() - cpu0, err
}

// replayOut is one replay's outcome.
type replayOut struct {
	res         *serve.Result
	wall        time.Duration // Run plus obs export
	cpu         time.Duration
	allocBytes  uint64
	obsEvents   int
	exportWall  time.Duration
	exportBytes int64
}

// replay runs the trace once on a freshly built fleet and exports its
// obs recording. Only Run and the export are timed.
func replay(in *inputs, wrap func(serve.Router) serve.Router, tr *tracer) (replayOut, error) {
	dep, o := in.fleet(wrap)
	runtime.GC()
	alloc0 := heapAllocBytes()
	cpu0 := processCPU()
	start := time.Now()
	s := tr.begin("serve.Run")
	res, err := dep.Run(in.trace)
	tr.end(s)
	if err != nil {
		return replayOut{}, fmt.Errorf("run: %w", err)
	}
	// Workloads without a recording export an empty one, so every
	// workload runs the same timed steps.
	s = tr.begin("obs.export")
	exportStart := time.Now()
	n, err := export(o)
	exportWall := time.Since(exportStart)
	tr.end(s)
	if err != nil {
		return replayOut{}, err
	}
	out := replayOut{res: res, exportWall: exportWall, exportBytes: n, obsEvents: o.EventCount()}
	out.wall = time.Since(start)
	out.cpu = processCPU() - cpu0
	out.allocBytes = heapAllocBytes() - alloc0
	return out, nil
}

// export writes the Chrome trace and the series CSV to a discarding
// counter and returns the bytes written.
func export(o *obs.Observer) (int64, error) {
	var w countingWriter
	if err := o.WriteChromeTrace(&w); err != nil {
		return 0, fmt.Errorf("export chrome trace: %w", err)
	}
	if err := o.WriteSeriesCSV(&w); err != nil {
		return 0, fmt.Errorf("export series: %w", err)
	}
	return w.n, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// checker audits replays and requires every replay of one run to
// simulate the same thing.
type checker struct {
	trace  *workload.Trace
	rep    *report
	digest string
}

// check audits one replay and compares its digest with the first
// one; a failure is counted and noted.
func (c *checker) check(out replayOut, label string) {
	c.rep.attempted++
	if err := audit(c.trace, out.res); err != nil {
		c.rep.fail(fmt.Errorf("%s replay: %w", label, err))
		return
	}
	d, err := digest(out.res)
	if err != nil {
		c.rep.fail(fmt.Errorf("%s replay: %w", label, err))
		return
	}
	if c.digest == "" {
		c.digest = d
		c.rep.note("digest %s", d)
	} else if d != c.digest {
		c.rep.fail(fmt.Errorf("%s replay digest %s differs from %s", label, d, c.digest))
	}
}

// warmUp makes one audited, untimed replay, so the heap has grown and
// lazy set-up has finished before the timed replays start.
func warmUp(in *inputs, chk *checker) (*serve.Result, error) {
	out, err := replay(in, nil, nil)
	if err != nil {
		return nil, err
	}
	chk.check(out, "warm-up")
	return out.res, nil
}

// measure is the untraced run: after the first set-up and a warm-up
// replay it alternates a timed set-up with a timed replay until the time
// is up, and reports the end-to-end metrics. Spreading the set-ups over
// the run samples the machine as the replays do.
//
// Set-ups and replays are timed in process CPU time, not wall time. On a
// virtual machine whose host takes the CPU away from it for seconds at a
// time, the wall time of the same replay swings by more than half between
// runs, while CPU time, which leaves out the time the guest was not
// running, moves far less. The replays' wall time is reported by the
// traced run (run_wall_s) alongside cpu_per_wall.
func measure(sp spec, o options) (*report, error) {
	rep := &report{workload: sp.name, values: map[string]float64{}}
	in, err := setUp(sp, o.seed, nil)
	if err != nil {
		return nil, err
	}
	chk := &checker{trace: in.trace, rep: rep}
	first, err := warmUp(in, chk)
	if err != nil {
		return nil, err
	}
	var setups, walls, cpus []time.Duration
	var allocs []float64
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for len(walls) < minReps || time.Since(start) < budget {
		d, err := timedSetUp(sp, o.seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		out, err := replay(in, nil, nil)
		if err != nil {
			return nil, err
		}
		chk.check(out, "untraced")
		walls = append(walls, out.wall)
		cpus = append(cpus, out.cpu)
		allocs = append(allocs, float64(out.allocBytes)/1024/float64(len(in.trace.Requests)))
	}
	rep.note("requests %d over %d periods of %v; %d timed set-ups and replays after one warm-up replay",
		len(in.trace.Requests), sp.periods, period, len(walls))
	rep.note("replay wall min %v median %v max %v", slices.Min(walls), medianDuration(walls), slices.Max(walls))
	rep.note("replay cpu  min %v median %v max %v", slices.Min(cpus), medianDuration(cpus), slices.Max(cpus))
	cpu := medianDuration(cpus).Seconds()
	rep.values["setup_s"] = medianDuration(setups).Seconds()
	rep.values["run_cpu_s"] = cpu
	rep.values["sim_s_per_cpu_s"] = ratio(first.Makespan.Seconds(), cpu)
	rep.values["peak_rss_mb"] = peakRSSMB()
	rep.values["alloc_kb_per_req"] = median(allocs)
	simMetrics(rep, first, len(in.trace.Requests))
	return rep, nil
}

// simMetrics adds the simulated (modelled fleet) end-to-end metrics.
func simMetrics(rep *report, res *serve.Result, attempted int) {
	outTok, met, failed := 0, 0, 0
	for _, m := range res.PerRequest {
		if m.Rejected {
			failed++
		} else {
			outTok += m.OutputTokens
		}
		if m.TTFTMet() && m.TPOTMet() {
			met++
		}
	}
	rep.note("sim samples: ttft n=%d, tpot n=%d, attempted %d, failed %d (rejected %d: kv %d, unservable %d, crash-dropped %d, shed %d)",
		res.TTFT.N(), res.TPOT.N(), attempted, failed, res.Rejected,
		res.RejectedKVExhausted, res.RejectedUnservable, res.RejectedCrashDropped, res.Shed)
	rep.values["sim_ttft_p50_ms"] = res.TTFT.Median()
	rep.values["sim_ttft_p99_ms"] = res.TTFT.P99()
	rep.values["sim_tpot_p50_ms"] = res.TPOT.Median()
	rep.values["sim_tpot_p99_ms"] = res.TPOT.P99()
	rep.values["sim_output_tok_s"] = ratio(float64(outTok), res.Makespan.Seconds())
	rep.values["sim_slo_attainment"] = ratio(float64(met), float64(attempted))
	rep.values["sim_served_ratio"] = ratio(float64(attempted-failed), float64(attempted))
	rep.values["sim_usd_per_mtok"] = res.CostPerMToken(dollarsPerReplicaHour)
}

// measureTraced is the traced run: set-ups and replays carry spans, the
// replica routers are wrapped by the timing decorator, and each traced
// replay runs under the CPU profiler. Untraced replays alternate with
// the traced ones so the tracing overhead is measured on the same
// inputs, and every replay must produce the same digest.
func measureTraced(sp spec, o options) (*report, error) {
	rep := &report{workload: sp.name, values: map[string]float64{}}
	tr := newTracer()
	in, err := setUp(sp, o.seed, tr)
	if err != nil {
		return nil, err
	}
	chk := &checker{trace: in.trace, rep: rep}
	if _, err := warmUp(in, chk); err != nil {
		return nil, err
	}
	rt := &routeTimer{tr: tr}
	layers := map[string]int64{}
	var plain, traced []time.Duration
	var cpu, wall time.Duration
	var gc gcCPU
	var last replayOut
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for len(traced) < minReps || time.Since(start) < budget {
		if _, err := timedSetUp(sp, o.seed, tr); err != nil {
			return nil, err
		}
		out, err := replay(in, nil, nil)
		if err != nil {
			return nil, err
		}
		chk.check(out, "untraced")
		plain = append(plain, out.wall)

		var prof bytes.Buffer
		cpu0, g0 := processCPU(), readGCCPU()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		out, err = replay(in, rt.wrap, tr)
		pprof.StopCPUProfile()
		cpu += processCPU() - cpu0
		gc.add(g0, readGCCPU())
		if err != nil {
			return nil, err
		}
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		p.layerSamples(layers)
		chk.check(out, "traced")
		traced = append(traced, out.wall)
		wall += out.wall
		last = out
	}
	res := last.res
	if err := writeSpans(tr, o.spans); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", o.spans)
	reps := float64(len(traced))

	var total int64
	for _, n := range layers {
		total += n
	}
	share := func(layer string) float64 { return ratio(float64(layers[layer]), float64(total)) }
	for _, l := range layerNames {
		rep.values[l+".cpu_share"] = share(l)
	}
	rep.values["bench.unattributed_cpu_share"] = share("")
	rep.note("cpu profile: %d samples over %d traced replays", total, len(traced))

	rep.values["trace.gen_ms"] = medianDuration(tr.durations("trace.gen")).Seconds() * 1000
	rt.mu.Lock()
	calls, busy := rt.calls, rt.busy
	rt.mu.Unlock()
	rep.values["serve.route.calls"] = float64(calls) / reps
	rep.values["serve.route.ns_per_call"] = ratio(float64(busy.Nanoseconds()), float64(calls))
	rep.values["serve.route.prefix_hit_ratio"] = res.MeasuredHitRate()

	rep.values["serve.engine.iters"] = float64(res.Iters)
	rep.values["serve.engine.shift_iter_ratio"] = ratio(float64(res.ShiftIters), float64(res.Iters))
	rep.values["serve.engine.tokens_per_iter"] = ratio(float64(res.TotalTokens), float64(res.Iters))
	rep.values["serve.engine.preemptions"] = float64(res.Preemptions)
	rep.values["perf.ns_per_iter"] = ratio(share("perf")*float64(cpu.Nanoseconds()), reps*float64(res.Iters))

	rep.values["serve.controller.ticks"] = float64(len(res.FleetSamples))
	rep.values["serve.controller.scale_events"] = float64(res.ScaleUps + res.ScaleDowns)
	rep.values["serve.controller.retries"] = float64(res.Retries)
	rep.values["serve.controller.crashes"] = float64(res.ReplicaCrashes)
	rep.values["serve.controller.ejections"] = float64(res.Ejections)
	rep.values["serve.controller.breaker_opens"] = float64(res.BreakerOpens)
	rep.values["serve.controller.shed"] = float64(res.Shed)
	rep.values["serve.controller.cloud_requests"] = float64(res.CloudRequests)
	rep.values["serve.controller.spilled"] = float64(res.Spilled())
	rep.values["serve.controller.work_lost_tokens"] = float64(res.WorkLostTokens)
	rep.values["sim_failed_ratio"] = ratio(float64(res.Rejected), float64(len(in.trace.Requests)))

	rep.values["obs.events"] = float64(last.obsEvents)
	rep.values["obs.export_ms"] = last.exportWall.Seconds() * 1000
	rep.values["obs.export_mb"] = float64(last.exportBytes) / (1 << 20)

	rep.values["run_wall_s"] = medianDuration(plain).Seconds()
	rep.values["cpu_per_wall"] = ratio(cpu.Seconds(), wall.Seconds())
	rep.values["runtime.gc_cpu_share"] = gc.share()
	rep.values["bench.trace_overhead_ratio"] = ratio(medianDuration(traced).Seconds(), medianDuration(plain).Seconds())
	return rep, nil
}

// writeSpans writes the tracer's spans as a Chrome trace.
func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// heapAllocBytes is the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPU accumulates the garbage collector's CPU time and the CPU time
// the process used, as the runtime estimates them.
type gcCPU struct{ gc, used float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), used: s[1].Value.Float64() - s[2].Value.Float64()}
}

// add accumulates the difference between two readings.
func (g *gcCPU) add(before, after gcCPU) {
	g.gc += after.gc - before.gc
	g.used += after.used - before.used
}

func (g gcCPU) share() float64 { return ratio(g.gc, g.used) }

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
