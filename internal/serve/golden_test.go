package serve

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

// goldenCell is one controlled-Cluster configuration (autoscaled,
// faulted, or breaker-guarded) with the SHA-256 of its outputs. A cell
// sets build for a Cluster or geo for a multi-region Geo.
type goldenCell struct {
	name   string
	trace  func(t *testing.T) *workload.Trace
	build  func(cm *perf.CostModel) Cluster
	geo    func(cm *perf.CostModel) Geo
	traced bool
	want   string
}

func goldenOneGPU(cm *perf.CostModel) Config {
	return Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16}
}

func goldenFleet(cm *perf.CostModel, name string, cfg Config, n int, policy string) Cluster {
	cl := DPCluster(name, cfg, n)
	cl.Lockstep = false
	scaler, err := NewAutoscaler(policy)
	if err != nil {
		panic(err)
	}
	cl.Autoscale = &AutoscaleConfig{
		Scaler: scaler, Interval: 5 * time.Second, ColdStart: 5 * time.Second, Min: 1, Max: 6,
	}
	return cl
}

// goldenCells pins every controlled-Cluster feature by digest:
// per-request metrics, makespan, fleet accounting and samples, scale,
// fault, breaker and cloud counters, and (for traced cells) the Chrome
// trace and series exports. A changed digest is a behaviour change.
func goldenCells() []goldenCell {
	det := func(seed uint64) func(t *testing.T) *workload.Trace {
		return func(t *testing.T) *workload.Trace { return determinismTrace(t, seed) }
	}
	return []goldenCell{
		{
			name:  "static",
			trace: det(101),
			build: func(cm *perf.CostModel) Cluster {
				return goldenFleet(cm, "g-static", goldenOneGPU(cm), 3, "static")
			},
			want: "1dc3beee5a9348dc32fcb0557a5cd719aded5d0cccbd04d40dc07dde77feab59",
		},
		{
			name:  "queue-depth",
			trace: det(102),
			build: func(cm *perf.CostModel) Cluster {
				return goldenFleet(cm, "g-queue", goldenOneGPU(cm), 2, "queue-depth")
			},
			want: "38d7018ed3ce8f2b6da70944b088338922b1f881e55e4c552426ca1bdc48fba1",
		},
		{
			name:  "slo-feedback",
			trace: det(103),
			build: func(cm *perf.CostModel) Cluster {
				return goldenFleet(cm, "g-slo", goldenOneGPU(cm), 2, "slo-feedback")
			},
			want: "501c8132998d65ef45c83b8ab8006532c4f8f319a28734bc8004808d6c760f27",
		},
		{
			name:  "full-outage",
			trace: det(104),
			build: func(cm *perf.CostModel) Cluster {
				cl := goldenFleet(cm, "g-outage", goldenOneGPU(cm), 2, "queue-depth")
				cl.Faults = &workload.FaultPlan{Outages: []workload.RegionOutage{
					{Start: 12 * time.Second, End: 25 * time.Second},
				}}
				return cl
			},
			want: "7101f2b42dc2309a732eeef7543353364e6889691c0f3d861c1fba58e74ee91e",
		},
		{
			name:  "crash-restart-breakers",
			trace: det(105),
			build: func(cm *perf.CostModel) Cluster {
				cfg := goldenOneGPU(cm)
				cfg.Admission = &AdmissionConfig{Policy: AdmissionDeadline}
				cl := goldenFleet(cm, "g-breaker", cfg, 3, "queue-depth")
				cl.Router = NewLiveLeastLoadedRouter()
				cl.Faults = &workload.FaultPlan{
					Crashes: []workload.ReplicaCrash{
						{Replica: 1, At: 14 * time.Second, Restart: 24 * time.Second},
					},
					Retry: &workload.RetryPolicy{Jitter: 0.5, Seed: 3, BudgetRatio: 0.3},
				}
				cl.Breakers = &BreakerConfig{}
				return cl
			},
			want: "6790599c8ab2ae31d65a9e52a3d28ad60c9750b1427c7c0cc6b4b527ecaee76c",
		},
		{
			name: "shared-cache",
			trace: func(t *testing.T) *workload.Trace {
				return cachedDeterminismTrace(t, 106)
			},
			build: func(cm *perf.CostModel) Cluster {
				cfg := goldenOneGPU(cm)
				cfg.PrefixCache = &PrefixCacheConfig{ShareFraction: 0.5}
				cl := goldenFleet(cm, "g-shared", cfg, 2, "queue-depth")
				cl.Router = NewCacheAwareRouter()
				cl.SharedCache = &SharedCacheConfig{Latency: 20 * time.Millisecond}
				return cl
			},
			want: "f1c63c4ae0006da0d9af4f3bdb1b5e0ac04ef71d38a5ac2e1ed33be20aa9d329",
		},
		{
			name:  "cloud-shed-or-buy",
			trace: det(107),
			build: func(cm *perf.CostModel) Cluster {
				cfg := goldenOneGPU(cm)
				cfg.Admission = &AdmissionConfig{Policy: AdmissionShedOrBuy}
				cl := goldenFleet(cm, "g-cloud", cfg, 2, "queue-depth")
				cl.Router = NewCloudOverflowRouter()
				cloud := cloudCfg()
				cloud.MaxSpend = 2
				cl.Cloud = cloud
				return cl
			},
			want: "a6df99acd7d5ce25a686dbb131780d822c3ebaa5c7df34fcab52aa31443306f1",
		},
		{
			name:   "traced",
			trace:  det(108),
			traced: true,
			build: func(cm *perf.CostModel) Cluster {
				cl := goldenFleet(cm, "g-traced", goldenOneGPU(cm), 2, "queue-depth")
				cl.Router = NewLiveLeastLoadedRouter()
				cl.Faults = &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
					{Replica: 1, At: 15 * time.Second, Restart: 25 * time.Second},
					{Replica: 0, At: 20 * time.Second},
				}}
				cl.Breakers = &BreakerConfig{}
				return cl
			},
			want: "2df755620ab2c265a21e34f645ff8b9477a8de359e91c8884775bce6a640cb31",
		},
		{
			// A permanent crash of a one-replica static fleet: stranded
			// work drops at the evaluation after ejection, and the drain
			// phase keeps evaluating while any of it is pending.
			name:  "dead-single-replica",
			trace: det(109),
			build: func(cm *perf.CostModel) Cluster {
				cl := goldenFleet(cm, "g-dead", goldenOneGPU(cm), 1, "static")
				cl.Autoscale.Max = 1
				cl.Faults = &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
					{Replica: 0, At: 10 * time.Second},
				}}
				return cl
			},
			want: "98ad9da35b514b7d7e35292c930fed7cfbfac12414dce04010757bacaa318b5f",
		},
		{
			// Origins name no region of the cluster: they are kept as
			// stamped, never resolved.
			name: "origin-stamped",
			trace: func(t *testing.T) *workload.Trace {
				return determinismTrace(t, 110).StampOrigin("", "us-east")
			},
			build: func(cm *perf.CostModel) Cluster {
				return goldenFleet(cm, "g-origin", goldenOneGPU(cm), 2, "queue-depth")
			},
			want: "5a47d03b612619df5ae264ed80318e9709a98626cb8a4995c51170ca30050fb4",
		},
		{
			// Two autoscaled regions under spill-over with region and
			// replica breakers, shed-or-buy into a budgeted cloud, a
			// crash-restart in one region and a permanent crash in the
			// other: pins region breakers, RegionView, spill and the geo
			// balancer track.
			name: "geo-two-region",
			trace: func(t *testing.T) *workload.Trace {
				return workload.Merge("geo-golden",
					determinismTrace(t, 202).StampOrigin("", "east"),
					determinismTrace(t, 252).StampOrigin("", "west"))
			},
			traced: true,
			geo:    goldenGeo,
			want:   "d603ea0728b8053f0cb04feef1e83b1ae2cd1efa48d01bc3b05b468c3d3717fd",
		},
	}
}

// goldenGeo builds the two-region cell of goldenCells.
func goldenGeo(cm *perf.CostModel) Geo {
	region := func(name string) Region {
		cfg := goldenOneGPU(cm)
		cfg.Admission = &AdmissionConfig{Policy: AdmissionShedOrBuy}
		fleet := goldenFleet(cm, name, cfg, 2, "queue-depth")
		return Region{Configs: fleet.Configs, Router: NewLiveLeastLoadedRouter(), Autoscale: fleet.Autoscale}
	}
	cloud := cloudCfg()
	cloud.MaxSpend = 1
	return Geo{
		Name:     "g-geo",
		Topology: UniformTopology(120*time.Millisecond, "east", "west"),
		Regions:  []Region{region("east"), region("west")},
		Router:   NewSpillOverRouter(),
		Faults: &workload.FaultPlan{
			Crashes: []workload.ReplicaCrash{
				{Region: "east", Replica: 0, At: 12 * time.Second, Restart: 22 * time.Second},
				{Region: "west", Replica: 0, At: 25 * time.Second},
			},
			Retry: &workload.RetryPolicy{Jitter: 0.5, Seed: 1, BudgetRatio: 0.3},
		},
		Breakers: &BreakerConfig{},
		Cloud:    cloud,
	}
}

// TestControlledClusterGolden runs every golden cell serially and on the
// default worker pool and checks both against the recorded digest.
func TestControlledClusterGolden(t *testing.T) {
	cm := llamaCM(t)
	for _, c := range goldenCells() {
		t.Run(c.name, func(t *testing.T) {
			tr := c.trace(t)
			for _, p := range []int{1, 0} {
				var o *obs.Observer
				if c.traced {
					o = obs.NewObserver()
				}
				var res *Result
				var err error
				if c.geo != nil {
					g := c.geo(cm)
					g.Parallelism, g.Obs = p, o
					res, err = g.Run(tr)
				} else {
					cl := c.build(cm)
					cl.Parallelism, cl.Obs = p, o
					res, err = cl.Run(tr)
				}
				if err != nil {
					t.Fatal(err)
				}
				if c.geo != nil {
					checkGeoGoldenFires(t, res, o)
				}
				enc := encodeResult(t, res)
				if c.traced {
					enc += encodeObs(t, o)
				}
				got := fmt.Sprintf("%x", sha256.Sum256([]byte(enc)))
				if got != c.want {
					t.Errorf("parallelism %d: digest %s, want %s", p, got, c.want)
				}
			}
		})
	}
}

// checkGeoGoldenFires asserts the multi-region cell exercises what it
// pins: region or replica breaker transitions and cross-region spill.
func checkGeoGoldenFires(t *testing.T, res *Result, o *obs.Observer) {
	t.Helper()
	breakerEvents := 0
	for _, ev := range o.Events() {
		switch ev.Kind {
		case obs.EvBreakerOpen, obs.EvBreakerHalfOpen, obs.EvBreakerClose:
			breakerEvents++
		}
	}
	spills := 0
	for _, st := range res.RegionStats {
		spills += st.SpillIn
	}
	if breakerEvents == 0 || spills == 0 {
		t.Errorf("breaker events %d, spills %d: want both > 0", breakerEvents, spills)
	}
}
