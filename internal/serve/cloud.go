package serve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the cost-tiered serving subsystem: an elastic
// pay-per-token cloud backend (rigrun-style API overflow) attachable to
// a Cluster or Geo as the third escape hatch next to shedding and
// cross-region spill. The cloud has no KV or batching model — it is
// somebody else's fleet — just its own latency law (base + per-token),
// a token-bucket rate limit, and unbounded-but-priced capacity. Three
// decision points consult it:
//
//  1. Routing: the cloud-overflow replica router (and the spill-over
//     geo router's extension) compares the projected local wait —
//     backlog over serving rate, plus any cold start relief would pay —
//     against the cloud's current latency, and diverts when renting is
//     faster, within the MaxSpend budget.
//  2. Admission: the shed-or-buy policy offloads waiters that are
//     provably going to miss their TTFT deadline to the cloud instead
//     of rejecting them, while budget remains.
//  3. Accounting: every run reports OwnedSpend (replica-seconds at
//     $/replica-hour) next to CloudSpend ($/Mtoken bought), so the
//     autoscaler question — does owning the next replica beat renting
//     overflow? — is answerable per row.
//
// Like Faults, SharedCache, and Breakers, the tier is nil-gated: a nil
// CloudConfig keeps every legacy path byte-identical.

// CloudReplica is the Replica name stamped on requests the cloud
// backend served: they never reached an owned engine.
const CloudReplica = "cloud"

// CloudConfig describes the elastic pay-per-token backend.
type CloudConfig struct {
	// BaseLatency is the fixed time from dispatch to first token (queue,
	// network, and remote prefill folded into one constant); PerToken is
	// the remote inter-token streaming interval, so a dispatched request
	// completes after BaseLatency + PerToken*(out-1) plus any rate wait.
	BaseLatency time.Duration
	PerToken    time.Duration
	// PricePerMToken is the dollar price per million tokens (input +
	// output billed alike, the common flat API rate).
	PricePerMToken float64
	// RateLimit is the provider-side token-bucket refill in tokens/sec;
	// the bucket holds one second of refill, and a dispatch overdrawing
	// it is delayed until the deficit refills. 0 means unlimited.
	RateLimit float64
	// MaxSpend is the run's cloud budget in dollars: a dispatch that
	// would push cumulative spend past it is refused (the MaxCloudSpend
	// knob of the overflow break-even). 0 means unlimited.
	MaxSpend float64
	// DollarsPerReplicaHour prices the owned fleet for the run's
	// OwnedSpend/TotalSpend accounting (0 leaves OwnedSpend at zero —
	// the cloud side of the ledger still fills).
	DollarsPerReplicaHour float64
}

func (c *CloudConfig) validate() error {
	if c == nil {
		return nil
	}
	switch {
	case c.BaseLatency < 0:
		return fmt.Errorf("serve: cloud base latency %v negative", c.BaseLatency)
	case c.PerToken < 0:
		return fmt.Errorf("serve: cloud per-token latency %v negative", c.PerToken)
	case c.PricePerMToken < 0:
		return fmt.Errorf("serve: cloud price %v $/Mtoken negative", c.PricePerMToken)
	case c.RateLimit < 0:
		return fmt.Errorf("serve: cloud rate limit %v tok/s negative", c.RateLimit)
	case c.MaxSpend < 0:
		return fmt.Errorf("serve: cloud budget %v negative", c.MaxSpend)
	case c.DollarsPerReplicaHour < 0:
		return fmt.Errorf("serve: replica-hour price %v negative", c.DollarsPerReplicaHour)
	}
	return nil
}

// CloudView is what a cloud-aware router sees about the backend at a
// routing instant: the latency a dispatch right now would pay and
// whether the budget still allows buying.
type CloudView struct {
	// ProjectedWait is the rate-limit delay a dispatch at the view
	// instant would wait before its BaseLatency starts.
	ProjectedWait time.Duration
	BaseLatency   time.Duration
	PerToken      time.Duration
	// PricePerMToken echoes the configured price for cost-aware policies.
	PricePerMToken float64
	// BudgetExhausted marks a tier whose cumulative spend has reached
	// MaxSpend: routers must not divert to it.
	BudgetExhausted bool
}

// Latency is the view's projected time to first cloud token.
func (v CloudView) Latency() time.Duration { return v.ProjectedWait + v.BaseLatency }

// CloudAwareRouter extends Router with the overflow decision: RouteCloud
// reports whether the request should be served by the cloud backend
// instead of any local replica. It is consulted only when a cloud tier
// is attached; plain routers never see the cloud.
type CloudAwareRouter interface {
	Router
	RouteCloud(r workload.Request, replicas []ReplicaView, cloud CloudView) bool
}

// CloudAwareGeoRouter is the geo tier's version of the same extension:
// the decision weighs every region (local wait, RTT, cold start)
// against the cloud's latency.
type CloudAwareGeoRouter interface {
	GeoRouter
	RouteCloud(r workload.Request, origin int, regions []RegionView, cloud CloudView) bool
}

// cloudTier is the per-run state of a CloudConfig: the token bucket, the
// ledger, and the synthetic metrics of the requests it served. All
// mutation happens on serial paths (arrival routing, controller events,
// staged-shed drains), so the tier needs no locking and its state
// evolves identically at every worker count. All methods are nil-safe.
type cloudTier struct {
	cfg CloudConfig

	// Token bucket (RateLimit > 0, capacity RateLimit tokens): balance
	// may go negative — the overdraft is the deficit a dispatch waits
	// out. lastRefill only moves forward: the controller's serial points
	// offer in time order, and should an offer ever be stamped before the
	// last refill it must not refill the bucket a second time.
	tokens     float64
	lastRefill time.Duration

	spend        float64
	requests     int
	tokensServed int
	throttled    int
	// sampled is the CloudRequests cursor of the controller-tick samples,
	// shared by every fleet the tier serves so each dispatch is sampled
	// once.
	sampled int

	served []RequestMetrics

	// bal is the tier's obs track (nil when tracing is off).
	bal *obs.Stream
}

func newCloudTier(cfg *CloudConfig) *cloudTier {
	if cfg == nil {
		return nil
	}
	return &cloudTier{cfg: *cfg, tokens: cfg.RateLimit}
}

// observe registers the tier's obs track. Serial setup path only.
func (ct *cloudTier) observe(o *obs.Observer, region string) {
	if ct == nil {
		return
	}
	ct.bal = o.Stream(region, "cloud")
}

// view snapshots the tier for a routing decision without mutating it.
func (ct *cloudTier) view(now time.Duration) CloudView {
	v := CloudView{
		BaseLatency:    ct.cfg.BaseLatency,
		PerToken:       ct.cfg.PerToken,
		PricePerMToken: ct.cfg.PricePerMToken,
	}
	if ct.cfg.MaxSpend > 0 && ct.spend >= ct.cfg.MaxSpend {
		v.BudgetExhausted = true
	}
	if ct.cfg.RateLimit > 0 {
		tokens := ct.tokens
		if now > ct.lastRefill {
			tokens = min(tokens+ct.cfg.RateLimit*(now-ct.lastRefill).Seconds(), ct.cfg.RateLimit)
		}
		if tokens < 0 {
			v.ProjectedWait = time.Duration(-tokens / ct.cfg.RateLimit * float64(time.Second))
		}
	}
	return v
}

// admitDelay charges one dispatch of need tokens at now against the
// rate limit, returning how long the dispatch waits before its
// BaseLatency starts.
func (ct *cloudTier) admitDelay(now time.Duration, need float64) time.Duration {
	if ct.cfg.RateLimit <= 0 {
		return 0
	}
	if now > ct.lastRefill {
		ct.tokens = min(ct.tokens+ct.cfg.RateLimit*(now-ct.lastRefill).Seconds(), ct.cfg.RateLimit)
		ct.lastRefill = now
	}
	ct.tokens -= need
	if ct.tokens >= 0 {
		return 0
	}
	return time.Duration(-ct.tokens / ct.cfg.RateLimit * float64(time.Second))
}

// offer dispatches one request to the cloud at now. policy labels the
// deciding mechanism in the obs event ("overflow", "shed-or-buy",
// "geo-overflow"). An accepted request is fully served: its synthetic
// metrics (TTFT/Completion measured from the original submission,
// Replica == CloudReplica) are recorded and the price charged, and the
// caller must not route it locally. A refusal (budget exhausted) keeps
// the request on its normal local path. Serial paths only; nil-safe (a
// nil tier refuses).
func (ct *cloudTier) offer(r workload.Request, now time.Duration, policy string) (accepted bool) {
	if ct == nil {
		return false
	}
	price := ct.cfg.PricePerMToken * float64(r.TotalTokens()) / 1e6
	if ct.cfg.MaxSpend > 0 && ct.spend+price > ct.cfg.MaxSpend {
		ct.throttled++
		ct.bal.Event(now, obs.EvCloudThrottle, r.ID, "budget")
		return false
	}
	wait := ct.admitDelay(now, float64(r.TotalTokens()))
	if wait > 0 {
		ct.throttled++
		ct.bal.Event(now, obs.EvCloudThrottle, r.ID, "rate")
	}
	firstTok := now + wait + ct.cfg.BaseLatency
	done := firstTok
	if r.OutputTokens > 1 {
		done += ct.cfg.PerToken * time.Duration(r.OutputTokens-1)
	}
	ct.spend += price
	ct.requests++
	ct.tokensServed += r.TotalTokens()
	m := requestRow(r, CloudReplica)
	m.TTFT, m.Completion = firstTok-r.SubmittedAt(), done-r.SubmittedAt()
	if r.OutputTokens > 1 {
		m.TPOT = ct.cfg.PerToken
	}
	ct.served = append(ct.served, m)
	ct.bal.Event(now, obs.EvCloudRoute, r.ID, policy)
	return true
}

// metricsList returns the synthetic metrics of cloud-served requests,
// in dispatch order (nil-safe).
func (ct *cloudTier) metricsList() []RequestMetrics {
	if ct == nil {
		return nil
	}
	return ct.served
}

// fill copies the ledger onto the result. Must run after the run's
// ReplicaSeconds is final (after fleet.finish / buildGeoResult's
// per-region accounting), so OwnedSpend prices the real fleet time.
func (ct *cloudTier) fill(r *Result) {
	if ct == nil {
		return
	}
	r.CloudRequests = ct.requests
	r.CloudTokens = ct.tokensServed
	r.CloudSpend = ct.spend
	r.CloudThrottled = ct.throttled
	r.OwnedSpend = ct.cfg.DollarsPerReplicaHour / 3600 * r.ReplicaSeconds
	r.TotalSpend = r.OwnedSpend + r.CloudSpend
}

// --- Cloud overflow replica router ---

// CloudOverflowRouter adds the rent-vs-wait break-even to live-least-
// loaded routing: when the least-loaded routable replica's projected
// wait exceeds the cloud's current first-token latency (and budget
// remains), the request is served by the cloud; otherwise it routes
// locally by live load. A fresh fleet has zero projected wait and never
// overflows, so the policy is strictly an escape valve.
//
// The policy is deliberately NOT in builtinRouters/RouterNames — the
// cluster-routing scenario sweeps RouterNames over cloudless fleets
// (where overflow degrades to live-least-loaded but would still add
// pinned bench rows); NewRouter still constructs it by name.
type CloudOverflowRouter struct{}

// NewCloudOverflowRouter returns the overflow policy.
func NewCloudOverflowRouter() *CloudOverflowRouter { return &CloudOverflowRouter{} }

// Name implements Router.
func (*CloudOverflowRouter) Name() string { return "cloud-overflow" }

// Route implements Router: local placement is live-least-loaded.
func (*CloudOverflowRouter) Route(r workload.Request, replicas []ReplicaView) int {
	return liveLeastLoaded{}.Route(r, replicas)
}

// RouteCloud implements CloudAwareRouter: overflow when every replica's
// projected wait (live backlog over the spill-over rate prior,
// breaker-open replicas skipped) beats the cloud's projected first-token
// latency.
func (*CloudOverflowRouter) RouteCloud(_ workload.Request, replicas []ReplicaView, cloud CloudView) bool {
	if cloud.BudgetExhausted {
		return false
	}
	load := func(v ReplicaView) int {
		if v.Live {
			return v.LiveTokens
		}
		return v.OutstandingTokens
	}
	minLoad := -1
	for _, v := range replicas {
		if v.BreakerOpen {
			continue
		}
		if l := load(v); minLoad < 0 || l < minLoad {
			minLoad = l
		}
	}
	if minLoad < 0 {
		// Every breaker open: the cloud is the escape hatch.
		return true
	}
	return float64(minLoad)/priorRate > cloud.Latency().Seconds()
}

// --- shed-or-buy staging ---

// cloudShedEntry is one waiter the shed-or-buy policy pulled from the
// queue, staged for a serial cloud offer (see Engine.takeCloudShed).
type cloudShedEntry struct {
	s  *seq
	at time.Duration
}

// drainCloudShed collects every region's staged shed-or-buy waiters,
// orders them globally by (shed time, request ID) — a total order
// independent of engine stepping interleave — and offers each to the
// cloud. Refusals (budget) shed normally via refuseCloudShed; accepted
// buys leave the engine for good. Serial paths only.
func drainCloudShed(runs []*regionRun, ct *cloudTier) {
	if ct == nil {
		return
	}
	type staged struct {
		e *Engine
		cloudShedEntry
	}
	var all []staged
	for _, rr := range runs {
		for _, rep := range rr.fleet.replicas {
			for _, en := range rep.engine.takeCloudShed() {
				all = append(all, staged{e: rep.engine, cloudShedEntry: en})
			}
		}
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].s.req.ID < all[j].s.req.ID
	})
	for _, en := range all {
		if !ct.offer(en.s.req, en.at, "shed-or-buy") {
			en.e.refuseCloudShed(en.s, en.at)
		}
	}
}
