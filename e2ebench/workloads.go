package main

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// period is the length of one arrival pattern. Every workload draws a
// fresh 10-minute pattern per period from its own derived seed and
// tiles the periods back to back, so the offered load stays at the
// calibrated level however many periods a run replays.
const period = 10 * time.Minute

// dollarsPerReplicaHour prices the owned fleet for sim_usd_per_mtok.
const dollarsPerReplicaHour = 3.0

// The SLOs every workload stamps: interactive traffic wants its first
// token within 1.5 s and 80 ms between tokens, batch traffic only a
// first token within 30 s.
var (
	interactiveSLO = workload.Deadline(1500*time.Millisecond, 80*time.Millisecond)
	batchSLO       = workload.Deadline(30*time.Second, workload.NoDeadline)
)

// deployment is a serving system ready to replay a trace: serve.Cluster
// or serve.Geo.
type deployment interface {
	Run(t *workload.Trace) (*serve.Result, error)
}

// fleet builds a fresh deployment for one replay, with a fresh router
// per region wrapped by wrap when wrap is set (the traced run passes the
// timing decorator). The observer, nil on workloads that record
// nothing, is exported after the replay.
type fleet func(wrap func(serve.Router) serve.Router) (deployment, *obs.Observer)

// spec describes one benchmark workload.
type spec struct {
	name string
	// periods is how many 10-minute patterns one run replays.
	periods int
	// pattern draws one period's arrivals from its seed.
	pattern func(seed uint64) *workload.Trace
	// build constructs the deployment for a trace of the given length.
	build func(cm *perf.CostModel, periods int) fleet
}

var specs = []spec{
	{name: "shift-bursty", periods: 48, pattern: burstyPattern, build: buildShift},
	{name: "fleet-agentic", periods: 48, pattern: agenticPattern, build: buildAgentic},
	{name: "geo-chaos", periods: 24, pattern: geoPattern, build: buildGeo},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// costModel prices Llama-70B on one 8-GPU p5en node.
func costModel() (*perf.CostModel, error) {
	return perf.New(hw.P5enNode(), model.Llama70B(), perf.DefaultParams())
}

// splitmix64 is the finalizer used to derive independent per-period
// seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newRNG returns a generator for one stream of a period's arrivals.
func newRNG(seed, stream uint64) *tensor.RNG {
	return tensor.NewRNG(splitmix64(seed ^ splitmix64(stream)))
}

// periodSeed derives period i's seed from the workload seed.
func periodSeed(seed uint64, i int) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(i)+1))
}

// tile builds n back-to-back periods, period i drawn from
// periodSeed(seed, i) and shifted by i periods, numbered in arrival
// order.
func tile(name string, seed uint64, n int, pattern func(uint64) *workload.Trace) *workload.Trace {
	parts := make([]*workload.Trace, n)
	for i := range parts {
		p := pattern(periodSeed(seed, i))
		off := time.Duration(i) * period
		for j := range p.Requests {
			p.Requests[j].Arrival += off
		}
		parts[i] = p
	}
	return workload.Merge(name, parts...)
}

// --- shift-bursty ---

// burstyPattern is the paper's Figure 7 shape: 1 req/s interactive
// traffic plus four 25 s batch bursts.
func burstyPattern(seed uint64) *workload.Trace {
	tr := trace.Bursty(seed, period)
	tr.Stamp("interactive", 1, interactiveSLO)
	tr.Stamp("batch", 0, batchSLO)
	return tr
}

// buildShift is one 8-GPU Shift engine: SP=8 base, full-TP shift
// model, default threshold. Its router is the cluster default, set
// explicitly so the traced run can time it.
func buildShift(cm *perf.CostModel, _ int) fleet {
	cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: serve.StrategyShift}
	return func(wrap func(serve.Router) serve.Router) (deployment, *obs.Observer) {
		cl := serve.SingleEngine("shift", cfg)
		cl.Router = wrapRouter(serve.NewLeastOutstandingRouter(), wrap)
		return cl, nil
	}
}

// --- fleet-agentic ---

// agenticPromptLimit splits the production mix into interactive
// prompts and long agentic (repository-context) prompts, which get the
// batch SLO.
const agenticPromptLimit = 4096

// agenticPattern is the production mix at 1.5 req/s with 60% of the
// requests repeating one of 48 hot prompts.
func agenticPattern(seed uint64) *workload.Trace {
	tr := trace.ProductionMixOpen(seed, 1.5, period)
	tr.StampPromptKeys(seed, 0.6, 48)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.InputTokens > agenticPromptLimit {
			r.Class, r.Priority, r.SLO = "batch", 0, batchSLO
		} else {
			r.Class, r.Priority, r.SLO = "interactive", 1, interactiveSLO
		}
	}
	return tr
}

// buildAgentic is four independent 1-GPU replicas behind the
// cache-aware router, each with a measured prefix cache, on the plain
// route-then-replay path.
func buildAgentic(cm *perf.CostModel, _ int) fleet {
	cfg := serve.Config{
		CM: cm, Par: perf.Parallelism{SP: 1, TP: 1},
		PrefixCache: &serve.PrefixCacheConfig{ShareFraction: 0.6},
	}
	return func(wrap func(serve.Router) serve.Router) (deployment, *obs.Observer) {
		cl := serve.DPCluster("agentic", cfg, 4)
		cl.Lockstep = false
		cl.Router = wrapRouter(serve.NewCacheAwareRouter(), wrap)
		return cl, nil
	}
}

// --- geo-chaos ---

const (
	geoHome   = "us-east"
	geoRemote = "eu-west"
)

var geoSizes = workload.LognormalSize{
	MedianIn: 1200, SigmaIn: 0.7, MaxIn: 8000, MinIn: 64,
	MedianOut: 220, SigmaOut: 0.5, MaxOut: 800, MinOut: 16,
}

var geoBurstSizes = workload.LognormalSize{
	MedianIn: 4000, SigmaIn: 0.5, MaxIn: 16000, MinIn: 512,
	MedianOut: 250, SigmaOut: 0.4, MaxOut: 600, MinOut: 32,
}

// geoPattern is steady interactive traffic in both regions (1 req/s at
// home, 0.4 req/s remote) plus three 120-request home bursts.
func geoPattern(seed uint64) *workload.Trace {
	parts := []*workload.Trace{
		workload.Poisson("home-steady", newRNG(seed, 1), 1.0, period, geoSizes, "interactive").StampOrigin("", geoHome),
		workload.Poisson("remote-steady", newRNG(seed, 2), 0.4, period, geoSizes, "interactive").StampOrigin("", geoRemote),
	}
	for i, frac := range []float64{0.2, 0.5, 0.8} {
		start := time.Duration(frac * float64(period))
		parts = append(parts, workload.Burst("home-burst", newRNG(seed, 3+uint64(i)),
			120, start, 25*time.Second, geoBurstSizes, "interactive").StampOrigin("", geoHome))
	}
	tr := workload.Merge("geo-chaos", parts...)
	tr.Stamp("", 1, interactiveSLO)
	return tr
}

// geoCrashAt places each period's home-region crash 35% into the
// period, between the first and second bursts.
const geoCrashAt = 35 * period / 100

// geoMaxSeqs bounds each replica's running batch, so bursts queue and
// the queue-depth autoscaler and the shed pass have work to do.
const geoMaxSeqs = 16

// geoCloudBudget is the cloud spend allowed per period, in dollars. It
// buys about a quarter of what the spill-over router would send to the
// cloud, so every run spends its budget in its first periods and
// replays the rest on the owned fleet alone, scaling and shedding.
const geoCloudBudget = 0.5

// buildGeo is two regions 120 ms apart, each a queue-depth-autoscaled
// fleet of 2-8 one-GPU replicas behind live-least-loaded routing with
// shed-or-buy admission, under the spill-over geo router with breakers,
// a budgeted cloud tier, one crash-restart per period with a jittered,
// budgeted retry policy, and obs recording exported at the end.
func buildGeo(cm *perf.CostModel, periods int) fleet {
	cfg := serve.Config{
		CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: geoMaxSeqs,
		Admission: &serve.AdmissionConfig{Policy: serve.AdmissionShedOrBuy},
	}
	plan := &workload.FaultPlan{Retry: &workload.RetryPolicy{Jitter: 0.5, Seed: 7, BudgetRatio: 0.2}}
	for i := 0; i < periods; i++ {
		at := time.Duration(i)*period + geoCrashAt
		plan.Crashes = append(plan.Crashes, workload.ReplicaCrash{
			Region: geoHome, Replica: i % 2, At: at, Restart: at + time.Minute,
		})
	}
	topo := serve.UniformTopology(120*time.Millisecond, geoHome, geoRemote)
	return func(wrap func(serve.Router) serve.Router) (deployment, *obs.Observer) {
		regions := make([]serve.Region, len(topo.Regions))
		for i := range regions {
			regions[i] = serve.Region{
				Configs: []serve.Config{cfg, cfg},
				Router:  wrapRouter(serve.NewLiveLeastLoadedRouter(), wrap),
				Autoscale: &serve.AutoscaleConfig{
					Scaler:    serve.NewQueueDepthAutoscaler(),
					Interval:  5 * time.Second,
					ColdStart: 15 * time.Second,
					Min:       2,
					Max:       8,
				},
			}
		}
		o := obs.NewObserver()
		return serve.Geo{
			Name:     "geo-chaos",
			Topology: topo,
			Regions:  regions,
			Router:   serve.NewSpillOverRouter(),
			Faults:   plan,
			Breakers: &serve.BreakerConfig{},
			Cloud: &serve.CloudConfig{
				BaseLatency:           time.Second,
				PerToken:              15 * time.Millisecond,
				PricePerMToken:        1,
				RateLimit:             25000,
				MaxSpend:              geoCloudBudget * float64(periods),
				DollarsPerReplicaHour: dollarsPerReplicaHour,
			},
			Obs: o,
		}, o
	}
}
