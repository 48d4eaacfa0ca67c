package serve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/conc"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the multi-region geo serving tier: a second routing layer
// over per-region autoscaled fleets. A Geo deployment owns a Topology
// (validated inter-region RTT matrix) and one Region per topology entry;
// each arriving request is first placed on a region by a GeoRouter, then
// on a replica by that region's local Router, and finally pays the
// origin→region round trip on top of its TTFT and completion when it was
// served remotely. A one-region topology has no geo tier at all — no geo
// balancer, geo router, or region breaker — which is exactly the
// controlled Cluster: Cluster.Run serves autoscaled, faulted, and
// breaker-guarded fleets as one-region Geos.

// Topology is the named-region set and its inter-region RTT matrix.
// RTT[i][j] is the full round trip a request arriving in region i pays
// when served by region j; the matrix must be square, symmetric, zero on
// the diagonal, and non-negative.
type Topology struct {
	Regions []string
	RTT     [][]time.Duration
}

// SingleRegion returns the one-region topology (no remote option): the
// geo tier degenerates to the controlled-cluster path.
func SingleRegion(name string) Topology {
	return Topology{Regions: []string{name}, RTT: [][]time.Duration{{0}}}
}

// UniformTopology returns a topology where every distinct pair of
// regions is rtt apart — the symmetric two- or three-datacenter case.
func UniformTopology(rtt time.Duration, names ...string) Topology {
	m := make([][]time.Duration, len(names))
	for i := range m {
		m[i] = make([]time.Duration, len(names))
		for j := range m[i] {
			if i != j {
				m[i][j] = rtt
			}
		}
	}
	return Topology{Regions: names, RTT: m}
}

// Validate checks the matrix invariants.
func (t Topology) Validate() error {
	if len(t.Regions) == 0 {
		return fmt.Errorf("serve: topology has no regions")
	}
	seen := map[string]bool{}
	for _, name := range t.Regions {
		if name == "" {
			return fmt.Errorf("serve: topology has an unnamed region")
		}
		if seen[name] {
			return fmt.Errorf("serve: duplicate region %q", name)
		}
		seen[name] = true
	}
	if len(t.RTT) != len(t.Regions) {
		return fmt.Errorf("serve: RTT matrix has %d rows for %d regions", len(t.RTT), len(t.Regions))
	}
	for i, row := range t.RTT {
		if len(row) != len(t.Regions) {
			return fmt.Errorf("serve: RTT row %d has %d entries for %d regions", i, len(row), len(t.Regions))
		}
		for j, d := range row {
			switch {
			case d < 0:
				return fmt.Errorf("serve: negative RTT %v between %s and %s", d, t.Regions[i], t.Regions[j])
			case i == j && d != 0:
				return fmt.Errorf("serve: region %s has non-zero self-RTT %v", t.Regions[i], d)
			case d != t.RTT[j][i]:
				return fmt.Errorf("serve: asymmetric RTT between %s and %s (%v vs %v)",
					t.Regions[i], t.Regions[j], d, t.RTT[j][i])
			}
		}
	}
	return nil
}

// Index returns the position of a region name, -1 if absent.
func (t Topology) Index(name string) int {
	for i, n := range t.Regions {
		if n == name {
			return i
		}
	}
	return -1
}

// Region is one geographic serving site: a named fleet with its own
// local replica router and (optionally) its own autoscaler and capacity
// bounds. A nil Autoscale pins the fleet at its initial size (the static
// policy), so fixed-capacity regions and autoscaled ones mix freely in
// one topology.
type Region struct {
	// Name must match the topology entry at the same index (or be empty
	// to adopt it).
	Name string
	// Configs is the initial fleet; replicas run independently (the geo
	// tier has no lockstep mode).
	Configs []Config
	// Router places requests on replicas inside the region; nil uses
	// least-outstanding-tokens, the cluster default.
	Router Router
	// Autoscale optionally lets the region's fleet grow and shrink on
	// local signals; nil means a fixed fleet. Regions must not share one
	// stateful Autoscaler or Router instance.
	Autoscale *AutoscaleConfig
}

// RegionView is what a GeoRouter sees about one region when placing a
// request: live fleet composition and backlog (unlike ReplicaView's
// cumulative assigned-work counters — regions run a controller, so live
// queue state is observable the way it is at a real global load
// balancer), plus the round trip from the request's origin.
type RegionView struct {
	Index int
	Name  string
	// RTT is the round trip from the request's origin region to this
	// one; zero for the origin itself.
	RTT time.Duration
	// Fleet composition at the routing instant.
	Active   int
	Warming  int
	Draining int
	// QueuedRequests/QueuedTokens count routed-but-not-running work
	// across the region's live replicas; RunningTokens the in-flight
	// work. Both include draining replicas' backlogs (real work the
	// region must still finish).
	QueuedRequests int
	QueuedTokens   int
	RunningTokens  int
	// NextReadyIn is the time until the next warming replica activates;
	// negative when none is warming.
	NextReadyIn time.Duration
	// ColdStart is the region's configured spawn-to-ready penalty — what
	// waiting for local scale-up costs.
	ColdStart time.Duration
	// MeasuredRate is the region's observed serving throughput in tokens
	// per second per active replica, measured over the run so far (zero
	// until the first completions land).
	MeasuredRate float64
	// Down marks a region with zero routable replicas (an outage the
	// health tier has fully ejected, before any recovery): geo routers
	// must not place work on it. Always false without fault injection.
	Down bool
	// BreakerOpen marks a region whose circuit breaker is open: alive
	// but shedding or crashing. Breaker-aware geo routers (spill-over)
	// prefer other regions and fall back to open ones only when every
	// candidate is open. Always false when breakers are disabled.
	BreakerOpen bool
}

// GeoRouter places each arriving request on a region. Route is called in
// arrival order and must be deterministic (ties break toward the
// request's origin, then the lowest region index), mirroring the Router
// contract one tier down.
type GeoRouter interface {
	Name() string
	// Route returns the index of the serving region. origin is the index
	// of the request's origin region (regions[origin].RTT == 0).
	// Returning an out-of-range index is a run error.
	Route(r workload.Request, origin int, regions []RegionView) int
}

// --- Nearest region ---

type nearestRegion struct{}

// NewNearestRegionRouter always serves in the lowest-RTT region — the
// origin itself whenever it appears in the topology. This is the
// locality baseline: zero WAN tax, but bursts and cold starts must be
// absorbed entirely by the local fleet.
func NewNearestRegionRouter() GeoRouter { return nearestRegion{} }

func (nearestRegion) Name() string { return "nearest" }

func (nearestRegion) Route(_ workload.Request, origin int, regions []RegionView) int {
	best := -1
	if !regions[origin].Down {
		best = origin
	}
	for i := range regions {
		if regions[i].Down || i == best {
			continue
		}
		if best < 0 || regions[i].RTT < regions[best].RTT {
			best = i
		}
	}
	if best < 0 {
		return origin // everything dark: the caller parks the request
	}
	return best
}

// --- Least loaded global ---

type leastLoadedGlobal struct{}

// NewLeastLoadedGlobalRouter picks the region with the least live work
// (queued + running tokens) per active replica, ignoring RTT entirely —
// the global-balancer baseline. Ties break toward the origin, then the
// lowest index. It wastes round trips when every region is quiet and
// pays them back only under load imbalance.
func NewLeastLoadedGlobalRouter() GeoRouter { return leastLoadedGlobal{} }

func (leastLoadedGlobal) Name() string { return "least-loaded-global" }

func (leastLoadedGlobal) Route(_ workload.Request, origin int, regions []RegionView) int {
	score := func(v RegionView) float64 {
		active := v.Active
		if active < 1 {
			active = 1
		}
		return float64(v.QueuedTokens+v.RunningTokens) / float64(active)
	}
	// Ascending scan with a strict improvement test: ties stay with the
	// origin, then with the lowest already-chosen index. Dark regions
	// never win.
	best := -1
	if !regions[origin].Down {
		best = origin
	}
	for i := range regions {
		if regions[i].Down || i == origin {
			continue
		}
		if best < 0 || score(regions[i]) < score(regions[best]) {
			best = i
		}
	}
	if best < 0 {
		return origin
	}
	return best
}

// --- SLO-aware spill-over ---

// SpillOverRouter serves locally unless the projected local wait — queue
// drain time plus, when the local queue has crossed the scale-up
// threshold, the cold start any local relief must pay — exceeds the
// round trip plus projected wait of a remote region. This is the
// RTT-vs-cold-start break-even the ROADMAP calls out: during a burst a
// warm remote fleet an RTT away beats local capacity that is still 60
// seconds from its first token. Local relief is assumed to need a cold
// start once the local queue reaches the queue-depth autoscaler's
// scale-up threshold (queueHigh queued requests per active replica).
type SpillOverRouter struct{}

// priorRate floors the per-replica service-rate estimate (tokens/sec per
// active replica) of the spill-over and cloud-overflow projections: a
// single-GPU Llama-70B replica's measured peak on ~1k-token interactive
// requests. The measured rate integrates idle time and so only ever
// underestimates capacity; the projection uses max(measured, prior).
const priorRate = 5000

// NewSpillOverRouter returns the spill-over policy.
func NewSpillOverRouter() GeoRouter { return &SpillOverRouter{} }

// Name implements GeoRouter.
func (*SpillOverRouter) Name() string { return "spill-over" }

// wait projects how long a new arrival waits in the region: backlog
// tokens — queued plus in-flight, since continuous batching admits a
// burst into running long before queues form — over the service-rate
// estimate times the active fleet.
func (s *SpillOverRouter) wait(v RegionView) float64 {
	rate := max(v.MeasuredRate, priorRate)
	active := v.Active
	if active < 1 {
		active = 1
	}
	return float64(v.QueuedTokens+v.RunningTokens) / (rate * float64(active))
}

// Route implements GeoRouter. The first pass skips regions whose
// breaker is open (a drowning region should not receive spill); when
// every candidate is open the request has to land somewhere, so a
// second pass ignores breakers (still never Down regions). With
// breakers disabled every view has BreakerOpen false and the first
// pass is the legacy scan exactly.
func (s *SpillOverRouter) Route(_ workload.Request, origin int, regions []RegionView) int {
	if i, _ := s.pick(origin, regions, false); i >= 0 {
		return i
	}
	if i, _ := s.pick(origin, regions, true); i >= 0 {
		return i
	}
	return origin
}

// RouteCloud implements CloudAwareGeoRouter, extending the spill-over
// break-even with the third option: when even the best region's
// projected cost (local wait plus cold-start penalty, or RTT plus
// remote wait) exceeds the cloud's projected first-token latency — and
// budget remains — the request is bought instead of spilled.
func (s *SpillOverRouter) RouteCloud(_ workload.Request, origin int, regions []RegionView, cloud CloudView) bool {
	if cloud.BudgetExhausted {
		return false
	}
	best, cost := s.pick(origin, regions, false)
	if best < 0 {
		best, cost = s.pick(origin, regions, true)
	}
	if best < 0 {
		// Every region dark or open: the cloud is the escape hatch.
		return true
	}
	return cost > cloud.Latency().Seconds()
}

// pick returns the cheapest candidate region and its projected cost in
// seconds (-1 when no candidate is routable).
func (s *SpillOverRouter) pick(origin int, regions []RegionView, ignoreBreakers bool) (int, float64) {
	local := regions[origin]
	localCost := s.wait(local)
	active := local.Active
	if active < 1 {
		active = 1
	}
	if float64(local.QueuedRequests)/float64(active) >= queueHigh {
		// The local queue is in scale-up territory: relief costs a cold
		// start — or the remainder of one already under way.
		pen := local.ColdStart
		if local.NextReadyIn >= 0 && local.NextReadyIn < pen {
			pen = local.NextReadyIn
		}
		localCost += pen.Seconds()
	}
	best, bestCost := -1, 0.0
	if !local.Down && (ignoreBreakers || !local.BreakerOpen) {
		best, bestCost = origin, localCost
	}
	for i := range regions {
		if i == origin || regions[i].Down || (!ignoreBreakers && regions[i].BreakerOpen) {
			continue
		}
		if c := regions[i].RTT.Seconds() + s.wait(regions[i]); best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best, bestCost
}

// builtinGeoRouters is the single registry GeoRouterNames and
// NewGeoRouter both derive from; new policies are added here once.
var builtinGeoRouters = []struct {
	name string
	make func() GeoRouter
}{
	{"nearest", NewNearestRegionRouter},
	{"least-loaded-global", NewLeastLoadedGlobalRouter},
	{"spill-over", NewSpillOverRouter},
}

// GeoRouterNames lists the built-in geo policies in presentation order.
var GeoRouterNames = func() []string {
	names := make([]string, len(builtinGeoRouters))
	for i, r := range builtinGeoRouters {
		names[i] = r.name
	}
	return names
}()

// NewGeoRouter returns a fresh instance of a built-in geo policy by name.
func NewGeoRouter(name string) (GeoRouter, error) {
	for _, r := range builtinGeoRouters {
		if r.name == name {
			return r.make(), nil
		}
	}
	return nil, fmt.Errorf("serve: unknown geo router %q (have %v)", name, GeoRouterNames)
}

// Geo composes per-region fleets under a topology and a geo routing
// policy — the multi-region serving tier.
type Geo struct {
	Name     string
	Topology Topology
	// Regions must align with Topology.Regions (same order, same names;
	// empty Region.Name adopts the topology's).
	Regions []Region
	// Router picks the serving region per request; nil uses nearest.
	Router GeoRouter
	// Faults, when set, injects the plan's crashes, outages, and degrade
	// windows into the run. Plan entries name their target region; an
	// empty region scopes to the first (home) region of the topology.
	// Crash-lost work re-enqueues at the geo router with a retry count
	// and may land in another region (paying that RTT); during a full
	// multi-region outage requests park at the geo balancer until any
	// region recovers.
	Faults *workload.FaultPlan
	// Breakers, when set, wraps every replica AND every region in a
	// circuit breaker: replica breakers steer each region's local
	// router, region breakers steer breaker-aware geo routers
	// (spill-over) around a shedding or crashing region. Composes with
	// the health tier; nil keeps the legacy routing path byte-for-byte.
	Breakers *BreakerConfig
	// SharedCache, when set, answers repeated prompts (requests sharing
	// a PromptKey) at the geo balancer after the configured latency,
	// before region placement; hits are billed to the request's origin
	// region with no RTT. See SharedCacheConfig.
	SharedCache *SharedCacheConfig
	// Cloud, when set, attaches one elastic pay-per-token backend shared
	// by every region (see CloudConfig): cloud-aware geo routers
	// (spill-over) can buy overflow instead of spilling, cloud-aware
	// region routers can overflow to it, the shed-or-buy admission
	// policy offers doomed waiters to it, and cloud-served requests bill
	// to their origin region with no RTT. nil keeps every legacy path
	// byte-identical.
	Cloud *CloudConfig
	// Obs, when set, collects request lifecycle spans and per-region
	// controller time series for the run (see internal/obs). Tracks:
	// one process per region (replicas plus the regional balancer) and
	// a "geo" process holding the geo balancer's routing, refugee-hop,
	// and drop events. A one-region run has no geo tier: its balancer
	// and replicas share the unnamed process, as a Cluster's do. nil
	// keeps the run on the untraced fast path.
	Obs *obs.Observer
	// Parallelism bounds the worker pools that advance regions (and,
	// within each region, replicas) concurrently between controller
	// events: 0 uses GOMAXPROCS, 1 forces the serial path. Regions share
	// nothing between events and routing/evaluation stays serial and
	// ordered, so every setting produces byte-identical Results (pinned
	// by the determinism tests under -race).
	Parallelism int
}

// regionRun is the geo controller's per-region state: the fleet, its
// local router, its evaluation cursor, and the active-time integral of
// the measured-throughput estimate feeding RegionView.
type regionRun struct {
	name     string
	fleet    *fleetState
	router   Router
	ac       AutoscaleConfig
	nextEval time.Duration
	// activeSeconds integrates active-replica time between controller
	// events, the denominator of the measured per-replica rate.
	activeSeconds float64
	lastAccrual   time.Duration

	// Region-level circuit breaker (nil unless Geo.Breakers is set), fed
	// every replica's terminal outcomes; any replica crash trips it at
	// the next sync (crashSeen is the fleet crash-count cursor).
	breaker   *breaker
	crashSeen int
}

// syncBreaker feeds the region's terminal outcomes and crashes since
// the last sync into the region breaker. Serial controller path only.
func (rr *regionRun) syncBreaker(now time.Duration) {
	b := rr.breaker
	if b == nil {
		return
	}
	for i, rep := range rr.fleet.replicas {
		b.feed(now, i, rep.engine)
	}
	for ; rr.crashSeen < rr.fleet.crashCount; rr.crashSeen++ {
		b.crash(now)
	}
}

// accrue extends the active-replica-seconds integral to now, using the
// composition at the start of the window (promotions and retirements
// land on controller events, so the approximation error is at most one
// event interval per transition).
func (rr *regionRun) accrue(now time.Duration) {
	if now <= rr.lastAccrual {
		return
	}
	active := 0
	for _, rep := range rr.fleet.replicas {
		if rep.state == replicaActive {
			active++
		}
	}
	rr.activeSeconds += float64(active) * (now - rr.lastAccrual).Seconds()
	rr.lastAccrual = now
}

// view snapshots the region for the geo router at the routing instant.
// Health-ejected replicas are out of the routing set and drained (their
// backlog is empty): the geo balancer knows, so they are not capacity.
// A down-but-not-ejected replica still counts: the detection delay
// means the balancer can't tell yet.
func (rr *regionRun) view(now time.Duration) RegionView {
	rr.fleet.promote(now)
	c := rr.fleet.census()
	v := RegionView{
		Name: rr.name, ColdStart: rr.ac.ColdStart, NextReadyIn: -1,
		Active: c.active - c.ejected, Warming: c.warming, Draining: c.draining,
		QueuedRequests: c.queuedReqs, QueuedTokens: c.queuedTokens, RunningTokens: c.runningTokens,
	}
	if c.nextReady >= 0 {
		v.NextReadyIn = c.nextReady - now
	}
	if rr.activeSeconds > 0 {
		v.MeasuredRate = float64(c.doneTokens) / rr.activeSeconds
	}
	if rr.fleet.faultsOn {
		v.Down = rr.fleet.routableCount() == 0
	}
	return v
}

// geoCrashEvent is one scheduled fault bound to its target region.
type geoCrashEvent struct {
	ev     crashEvent
	region int
}

// geoFaults is the geo-path fault controller: the cross-region crash
// schedule, the shared probe clock, the retry budget, the geo-balancer
// pending queue (work arriving while every region is dark), and the
// drop records.
type geoFaults struct {
	retry     *retrier // nil: legacy immediate retries
	crashes   []geoCrashEvent
	nextCrash int
	nextProbe time.Duration
	pending   []workload.Request
	dropped   []RequestMetrics
	// bal is the geo balancer's obs track (nil when tracing is off).
	bal *obs.Stream
}

// next returns the controller's earliest upcoming fault event; crashes
// outrank probes, which outrank backoff releases, at equal times.
func (gf *geoFaults) next() (time.Duration, int, bool) {
	at, kind, ok := time.Duration(0), 0, false
	if gf.nextCrash < len(gf.crashes) {
		at, kind, ok = gf.crashes[gf.nextCrash].ev.at, evCrash, true
	}
	if p := gf.nextProbe; !ok || p < at {
		at, kind, ok = p, evProbe, true
	}
	if r, rok := gf.retry.nextRelease(); rok && (!ok || r < at) {
		at, kind, ok = r, evRelease, true
	}
	return at, kind, ok
}

// reap drops the geo pending queue when no region can ever serve it:
// zero routable replicas everywhere, no recovery in sight, and — since
// it runs right after an autoscaler evaluation — the policy just
// declined to spawn. Without it a dead deployment would spin the drain
// loop forever; with it every request still reaches a terminal,
// conservation-checked outcome.
func (gf *geoFaults) reap(runs []*regionRun, now time.Duration) {
	if len(gf.pending) == 0 {
		return
	}
	for _, rr := range runs {
		if rr.fleet.routableCount() > 0 || rr.fleet.canRecover() {
			return
		}
	}
	for _, r := range gf.pending {
		gf.dropped = append(gf.dropped, crashDroppedMetrics(r, ""))
		gf.bal.Event(now, obs.EvDrop, r.ID, "stranded")
	}
	gf.pending = nil
}

// Run replays the trace through the geo tier. Each request is placed on
// a region by the geo router (seeing live per-region fleet and backlog
// state plus the origin's RTT row), then on a replica by that region's
// local router — per-region fleets grow and shrink on their own local
// signals and evaluation clocks. Remotely served requests pay the full
// origin→region RTT on top of their TTFT and completion (inter-token
// streaming pipelines over the WAN, so TPOT is untouched); attainment
// and the Result samples are computed from the inflated values. A
// one-region Geo has no geo tier: requests go straight to the region's
// local router and keep their Origin as stamped.
func (g Geo) Run(t *workload.Trace) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := g.Topology.Validate(); err != nil {
		return nil, err
	}
	if len(g.Regions) != len(g.Topology.Regions) {
		return nil, fmt.Errorf("serve: %d regions for a %d-region topology",
			len(g.Regions), len(g.Topology.Regions))
	}
	router := g.Router
	if router == nil {
		router = NewNearestRegionRouter()
	}
	if r, ok := router.(resettable); ok {
		r.reset()
	}
	if err := g.SharedCache.validate(); err != nil {
		return nil, err
	}
	if err := g.Cloud.validate(); err != nil {
		return nil, err
	}
	single := len(g.Regions) == 1
	shared := newSharedTier(g.SharedCache)
	// Track registration order: the geo balancer first, then the cloud
	// tier (if attached), then each region's balancer and replicas in
	// topology order (all serial, so exports are worker-count
	// independent). With one region the geo balancer is the region's
	// balancer.
	proc, track := "geo", "geo-balancer"
	if single {
		proc, track = "", "balancer"
	}
	geoBal := g.Obs.Stream(proc, track)
	cloud := newCloudTier(g.Cloud)
	cloud.observe(g.Obs, proc)

	// Fault wiring: resolve the plan's region scopes (empty names the
	// home region, topology index 0) and build the cross-region crash
	// schedule and shared probe clock before any fleet spawns, so
	// degrade windows and outage darkness apply to the initial fleets.
	faultsOn := g.Faults != nil
	var gf *geoFaults
	resolve := func(region string) (int, error) {
		if region == "" {
			return 0, nil
		}
		if i := g.Topology.Index(region); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("serve: fault plan names region %q not in topology %v", region, g.Topology.Regions)
	}
	if faultsOn {
		if err := g.Faults.Validate(); err != nil {
			return nil, err
		}
		gf = &geoFaults{nextProbe: probeInterval, bal: geoBal, retry: newRetrier(g.Faults.Retry)}
		for _, c := range g.Faults.Crashes {
			ri, err := resolve(c.Region)
			if err != nil {
				return nil, err
			}
			gf.crashes = append(gf.crashes, geoCrashEvent{
				ev: crashEvent{at: c.At, restart: c.Restart, replica: c.Replica}, region: ri,
			})
		}
		for _, o := range g.Faults.Outages {
			ri, err := resolve(o.Region)
			if err != nil {
				return nil, err
			}
			gf.crashes = append(gf.crashes, geoCrashEvent{
				ev: crashEvent{at: o.Start, restart: o.End, outage: true}, region: ri,
			})
		}
		sort.SliceStable(gf.crashes, func(i, j int) bool {
			if gf.crashes[i].ev.at != gf.crashes[j].ev.at {
				return gf.crashes[i].ev.at < gf.crashes[j].ev.at
			}
			return gf.crashes[i].region < gf.crashes[j].region
		})
	}

	runs := make([]*regionRun, len(g.Regions))
	for i, reg := range g.Regions {
		name := g.Topology.Regions[i]
		if reg.Name != "" && reg.Name != name {
			return nil, fmt.Errorf("serve: region %d named %q, topology says %q", i, reg.Name, name)
		}
		if len(reg.Configs) == 0 {
			return nil, fmt.Errorf("serve: region %s has no replicas", name)
		}
		var ac AutoscaleConfig
		if reg.Autoscale != nil {
			ac = *reg.Autoscale
		}
		ac = ac.withDefaults(len(reg.Configs))
		if err := ac.validate(len(reg.Configs)); err != nil {
			return nil, fmt.Errorf("serve: region %s: %w", name, err)
		}
		local := reg.Router
		if local == nil {
			local = NewLeastOutstandingRouter()
		}
		if r, ok := local.(resettable); ok {
			r.reset()
		}
		if r, ok := ac.Scaler.(resettable); ok {
			r.reset()
		}
		fleet := &fleetState{
			ac: ac, name: name,
			workers: conc.Workers(g.Parallelism), breakers: g.Breakers,
			cloud: cloud,
		}
		if single {
			fleet.observe(g.Obs, proc, geoBal)
		} else {
			fleet.observe(g.Obs, name, g.Obs.Stream(name, "balancer"))
		}
		if faultsOn {
			fleet.faultsOn = true
			for _, d := range g.Faults.Degrades {
				ri, err := resolve(d.Region)
				if err != nil {
					return nil, err
				}
				if ri == i {
					fleet.degrades = append(fleet.degrades, d)
				}
			}
		}
		for _, cfg := range reg.Configs {
			// Initial fleets are pre-provisioned: ready at time zero.
			if err := fleet.spawn(cfg, 0, 0); err != nil {
				return nil, err
			}
		}
		runs[i] = &regionRun{name: name, fleet: fleet, router: local, ac: ac, nextEval: ac.Interval}
		if g.Breakers != nil && !single {
			runs[i].breaker = &breaker{track: fleet.bal, label: name}
		}
	}

	workers := conc.Workers(g.Parallelism)

	// drainBuys offers every region's staged shed-or-buy waiters to the
	// shared cloud tier. Must run at serial points right after each
	// advance barrier — before any crash handling or routing, so staged
	// waiters never sit outside every engine list — and once more before
	// result assembly.
	drainBuys := func() { drainCloudShed(runs, cloud) }

	// place routes one request through the geo tier at now: regional
	// views (with the origin's RTT row), the geo router, then the chosen
	// region's local router. During a full outage the request parks at
	// the geo balancer instead. Without a geo tier the request goes
	// straight to the one region.
	place := func(r workload.Request, now time.Duration) error {
		if single {
			f := runs[0].fleet
			f.promote(now)
			if gf != nil && f.routableCount() == 0 {
				gf.pending = append(gf.pending, r)
				return nil
			}
			return f.route(runs[0].router, r, now)
		}
		origin, err := originOfName(g.Topology, r.Origin)
		if err != nil {
			return err
		}
		views := make([]RegionView, len(runs))
		anyUp := false
		for i, rr := range runs {
			rr.syncBreaker(now)
			views[i] = rr.view(now)
			views[i].Index = i
			views[i].RTT = g.Topology.RTT[origin][i]
			views[i].BreakerOpen = !rr.breaker.admit(now)
			if !views[i].Down {
				anyUp = true
			}
		}
		if gf != nil && !anyUp {
			gf.pending = append(gf.pending, r)
			return nil
		}
		if cloud != nil {
			if ca, ok := router.(CloudAwareGeoRouter); ok && ca.RouteCloud(r, origin, views, cloud.view(now)) {
				if cloud.offer(r, now, "geo-overflow") {
					return nil
				}
				// Refused: fall through to regional placement.
			}
		}
		gi := router.Route(r, origin, views)
		if gi < 0 || gi >= len(runs) {
			return fmt.Errorf("serve: geo router %s returned region %d of %d", router.Name(), gi, len(runs))
		}
		if gf != nil && runs[gi].fleet.routableCount() == 0 {
			return fmt.Errorf("serve: geo router %s placed a request on dark region %s", router.Name(), runs[gi].name)
		}
		geoBal.Event(now, obs.EvRoute, r.ID, runs[gi].name)
		return runs[gi].fleet.route(runs[gi].router, r, now)
	}

	// flush re-routes the geo pending queue in arrival order once any
	// region is routable again.
	flush := func(now time.Duration) error {
		if gf == nil || len(gf.pending) == 0 {
			return nil
		}
		any := false
		for _, rr := range runs {
			rr.fleet.promote(now)
			if rr.fleet.routableCount() > 0 {
				any = true
				break
			}
		}
		if !any {
			return nil
		}
		pend := gf.pending
		gf.pending = nil
		for _, r := range pend {
			if err := place(r, now); err != nil {
				return err
			}
		}
		return nil
	}

	// parked reports work held at the geo balancer: requests with
	// nowhere routable to land, or backed-off retries not yet released.
	// A region is idle once its engines are done and nothing is parked
	// that it might still have to take; the run is finished when every
	// region is idle.
	parked := func() bool {
		return gf != nil && (len(gf.pending) > 0 || gf.retry.pending() > 0)
	}
	idle := func(rr *regionRun) bool { return rr.fleet.allDone() && !parked() }
	finished := func() bool {
		for _, rr := range runs {
			if !idle(rr) {
				return false
			}
		}
		return true
	}

	// fireFault applies the next crash or one probe sweep at now: every
	// region first advances to the event time (crash semantics act on
	// current state, and dislodged work may re-route anywhere), then the
	// lost work re-submits through the geo router within its retry
	// budget. A drain-phase event that finds the run finished has
	// nothing left to act on.
	fireFault := func(now time.Duration, kind int, final bool) error {
		conc.For(len(runs), workers, func(i int) {
			runs[i].accrue(now)
			runs[i].fleet.advance(now, final)
		})
		drainBuys()
		if final && finished() {
			return nil
		}
		var lost []workload.Request
		switch kind {
		case evCrash:
			gce := gf.crashes[gf.nextCrash]
			gf.nextCrash++
			lost = runs[gce.region].fleet.applyCrashEvent(gce.ev, now)
		case evProbe:
			gf.nextProbe += probeInterval
			for _, rr := range runs {
				lost = append(lost, rr.fleet.probeAll(now)...)
			}
		case evRelease:
			// Backed-off retries whose delay elapsed re-enter geo routing.
			for _, r := range gf.retry.takeDue(now) {
				geoBal.Event(now, obs.EvRetry, r.ID, "")
				if err := place(r, now); err != nil {
					return err
				}
			}
			return flush(now)
		}
		for _, r := range lost {
			sub := r.SubmittedAt()
			if r.Retries >= maxRetries {
				gf.dropped = append(gf.dropped, crashDroppedMetrics(r, ""))
				geoBal.Event(now, obs.EvDrop, r.ID, "retry-budget")
				continue
			}
			if !gf.retry.take() {
				gf.dropped = append(gf.dropped, crashDroppedMetrics(r, ""))
				geoBal.Event(now, obs.EvDrop, r.ID, "retry-budget-exhausted")
				continue
			}
			r.Retries++
			r.Submitted = sub
			if d := gf.retry.delay(r.Retries); d > 0 {
				r.Arrival = now + d
				gf.retry.waited += d
				gf.retry.park(r, now+d)
				continue
			}
			r.Arrival = now
			// A refugee hop: the re-placement below may land in another
			// region (place emits the route event with the new region).
			geoBal.Event(now, obs.EvRetry, r.ID, "")
			if err := place(r, now); err != nil {
				return err
			}
		}
		return flush(now)
	}

	// tick runs the earliest pending controller event at or before the
	// horizon. Per-region evaluations break time ties by region index;
	// fault events (crash, then probe) outrank evaluations at equal
	// times — failure, then detection, then reaction — so runs are
	// reproducible. Each evaluation sees the parked work as backlog and
	// is followed by the stranded-work reap.
	tick := func(horizon time.Duration, final bool) (bool, error) {
		ri := -1
		for i, rr := range runs {
			if final && idle(rr) {
				continue
			}
			if rr.nextEval <= horizon && (ri < 0 || rr.nextEval < runs[ri].nextEval) {
				ri = i
			}
		}
		if gf != nil {
			if fat, fkind, ok := gf.next(); ok && fat <= horizon && (ri < 0 || fat <= runs[ri].nextEval) {
				if err := fireFault(fat, fkind, final); err != nil {
					return false, err
				}
				return true, nil
			}
		}
		if ri < 0 {
			return false, nil
		}
		rr := runs[ri]
		at := rr.nextEval
		rr.accrue(at)
		rr.fleet.advance(at, final)
		drainBuys()
		if !final || !idle(rr) {
			var backlog []workload.Request
			if gf != nil {
				backlog = gf.pending
			}
			if err := rr.fleet.evaluate(at, backlog); err != nil {
				return false, err
			}
			if gf != nil {
				gf.reap(runs, at)
			}
		}
		rr.nextEval += rr.ac.Interval
		if err := flush(at); err != nil {
			return false, err
		}
		return true, nil
	}
	for _, r := range t.Requests {
		for {
			more, err := tick(r.Arrival, false)
			if err != nil {
				return nil, err
			}
			if !more {
				break
			}
		}
		// Regions share nothing between controller events: advance them
		// to the arrival concurrently. Views, geo routing, and evaluation
		// ticks stay serial and index-ordered below.
		conc.For(len(runs), workers, func(i int) {
			runs[i].accrue(r.Arrival)
			runs[i].fleet.advance(r.Arrival, false)
		})
		drainBuys()
		if err := flush(r.Arrival); err != nil {
			return nil, err
		}
		// The shared tier answers fresh arrivals only; crash retries and
		// outage refugees re-route through place without consulting it.
		if shared.intercept(r) {
			geoBal.Event(r.Arrival, obs.EvSharedHit, r.ID, "")
			continue
		}
		if gf != nil {
			// Each fresh admission replenishes the retry budget (nil-safe
			// no-op when no budget is configured).
			gf.retry.noteAdmission()
		}
		if err := place(r, r.Arrival); err != nil {
			return nil, err
		}
	}

	// Drain: no further arrivals anywhere; regions keep evaluating on
	// their own clocks so policies can shed idle replicas, and all of
	// them keep evaluating while work is parked so a policy can spawn the
	// capacity that saves it. Scale-ups are otherwise suppressed in this
	// phase (see fleetState.draining).
	for _, rr := range runs {
		rr.fleet.draining = true
	}
	for !finished() {
		if _, err := tick(noHorizon, true); err != nil {
			return nil, err
		}
	}
	// Waiters staged by the regions' final steps get their cloud offer
	// before metrics collection.
	drainBuys()

	return g.buildGeoResult(runs, gf, shared, cloud)
}

// noHorizon is an unreachable event horizon: drain-phase ticks always
// have a pending evaluation before it.
const noHorizon = time.Duration(1<<63 - 1)

// buildGeoResult collects per-engine metrics region by region, charges
// the inter-region RTT to remotely served requests, and assembles the
// global plus per-region accounting — including, under fault
// injection, the crash-dropped records and recovery counters.
func (g Geo) buildGeoResult(runs []*regionRun, gf *geoFaults, shared *sharedTier, cloud *cloudTier) (*Result, error) {
	var metrics []RequestMetrics
	var engines []*Engine
	for gi, rr := range runs {
		for _, rep := range rr.fleet.replicas {
			ms := rep.engine.metrics(nil)
			for k := range ms {
				if err := g.annotate(&ms[k], gi); err != nil {
					return nil, err
				}
			}
			metrics = append(metrics, ms...)
			engines = append(engines, rep.engine)
		}
	}
	// Crash-dropped requests never landed anywhere, and shared-tier hits
	// and cloud-served requests left the geo tier at the origin region's
	// balancer: no engine and no RTT, billed to their origin.
	var atOrigin []RequestMetrics
	if gf != nil {
		atOrigin = append(atOrigin, gf.dropped...)
	}
	atOrigin = append(atOrigin, shared.metricsList()...)
	atOrigin = append(atOrigin, cloud.metricsList()...)
	for _, m := range atOrigin {
		if err := g.annotate(&m, -1); err != nil {
			return nil, err
		}
		metrics = append(metrics, m)
	}
	res := buildResult(g.Name, metrics, engines)
	shared.fill(res)
	for _, rr := range runs {
		res.ReplicaCrashes += rr.fleet.crashCount
		res.Ejections += rr.fleet.ejections
		res.Readmissions += rr.fleet.readmissions
		res.WorkLostTokens += rr.fleet.workLost
		res.BreakerOpens += rr.fleet.breakerOpens()
		if rr.breaker != nil {
			res.BreakerOpens += rr.breaker.opens
		}
	}
	if gf != nil {
		res.RetryBackoffWait = gf.retry.backoffWait()
	}

	// Replace the fixed-fleet accounting with per-region lifetimes, all
	// billed against the shared global makespan.
	res.ReplicaSeconds, res.Replicas, res.FleetSamples = 0, nil, nil
	res.RegionStats = make([]RegionStats, len(runs))
	for gi, rr := range runs {
		scratch := &Result{Makespan: res.Makespan}
		rr.fleet.finish(scratch)
		res.Replicas = append(res.Replicas, scratch.Replicas...)
		res.FleetSamples = append(res.FleetSamples, scratch.FleetSamples...)
		res.ReplicaSeconds += scratch.ReplicaSeconds
		res.ScaleUps += scratch.ScaleUps
		res.ScaleDowns += scratch.ScaleDowns
		res.RegionStats[gi] = RegionStats{
			Name:           rr.name,
			ReplicaSeconds: scratch.ReplicaSeconds,
			ScaleUps:       scratch.ScaleUps,
			ScaleDowns:     scratch.ScaleDowns,
			FleetSamples:   scratch.FleetSamples,
		}
	}
	for _, m := range res.PerRequest {
		o, _ := originOfName(g.Topology, m.Origin) // resolved by annotate
		s := g.Topology.Index(m.Region)
		res.RegionStats[o].OriginRequests++
		st := &res.RegionStats[s]
		st.ServedRequests++
		if m.Replica == CloudReplica {
			tok := m.InputTokens + m.OutputTokens
			st.CloudRequests++
			st.CloudTokens += tok
			st.CloudSpend += cloud.cfg.PricePerMToken * float64(tok) / 1e6
		}
		if o != s {
			st.SpillIn++
			res.RegionStats[o].SpillOut++
		}
		if m.Rejected {
			st.Rejected++
		} else {
			st.TTFT.AddDuration(m.TTFT)
		}
		if m.SLO != nil {
			st.SLO.add(m)
		}
	}
	// Fill after the per-region loop: ReplicaSeconds is final only once
	// every region's lifetimes have been accrued above.
	cloud.fill(res)
	return res, nil
}

// annotate stamps a result row with its serving region (served < 0:
// its origin) and charges a served row the round trip from its origin.
// Without a geo tier (one region) the Origin stays as stamped.
func (g Geo) annotate(m *RequestMetrics, served int) error {
	origin, err := originOfName(g.Topology, m.Origin)
	if err != nil {
		return err
	}
	if served < 0 {
		served = origin
	}
	if len(g.Topology.Regions) > 1 {
		m.Origin = g.Topology.Regions[origin]
	}
	m.Region = g.Topology.Regions[served]
	m.RTT = g.Topology.RTT[origin][served]
	if !m.Rejected {
		m.TTFT += m.RTT
		m.Completion += m.RTT
	}
	return nil
}

// originOfName resolves a request's origin region: empty names the
// first (home) region, and a one-region topology serves every origin.
func originOfName(t Topology, name string) (int, error) {
	if name == "" || len(t.Regions) == 1 {
		return 0, nil
	}
	if i := t.Index(name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("serve: request origin %q not in topology %v", name, t.Regions)
}
