package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/perf"
	"repro/internal/workload"
)

// stepChecked runs e over reqs the way stepUntil(noHorizon, true) does,
// one schedule → price → apply at a time, and checks KV conservation
// after every step.
func stepChecked(t *testing.T, e *Engine, reqs []workload.Request) []RequestMetrics {
	t.Helper()
	e.arrivals = reqs
	check := func(step string) {
		t.Helper()
		if err := e.checkKV(); err != nil {
			t.Fatalf("iteration %d, after %s: %v", e.iters, step, err)
		}
	}
	for !e.finished() {
		e.admit()
		check("admit")
		plan := e.schedule()
		check("schedule")
		if plan.empty() {
			if !e.resolveEmpty() {
				e.now = e.nextArrival()
			}
			check("resolveEmpty")
			continue
		}
		cost := e.price(&plan)
		check("price")
		e.apply(&plan, cost, e.now+cost.Total())
		check("apply")
	}
	return e.metrics(reqs)
}

// KV blocks are conserved after every step of a preemption storm and of
// an SLO-priority run, and the stepped engine reproduces Run exactly.
func TestKVConservedEveryStep(t *testing.T) {
	cm := llamaCM(t)
	oneGPU := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 64}
	// 30 prompts whose combined context is about twice the cache, all at
	// once: decode growth keeps evicting the youngest runners.
	per := mustEngine(t, oneGPU).KVCapacityTokens() / 15
	storm := make([]workload.Request, 30)
	for i := range storm {
		storm[i] = workload.Request{ID: i, InputTokens: per - 500, OutputTokens: 600}
	}
	// The same storm as batch work, joined mid-run (while batch decodes
	// fill the cache) by large interactive prompts whose priority and
	// TTFT deadline make the SLO scheduler preempt batch runners for them.
	slo := append([]workload.Request(nil), storm...)
	for i := 0; i < 6; i++ {
		slo = append(slo, workload.Request{ID: len(slo), Arrival: time.Duration(i+1) * 20 * time.Second,
			InputTokens: per - 500, OutputTokens: 32, Class: "interactive", Priority: 2,
			SLO: workload.Deadline(2*time.Second, workload.NoDeadline)})
	}

	for _, tc := range []struct {
		name string
		cfg  Config
		reqs []workload.Request
	}{{"preemption-storm", oneGPU, storm}, {"slo-priority", oneGPU, slo}} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.cfg)
			got := stepChecked(t, e, tc.reqs)
			if e.preemptions == 0 {
				t.Fatal("trace caused no preemptions")
			}
			if tc.name == "slo-priority" && e.sloPreempts == 0 {
				t.Fatal("trace caused no SLO preemptions")
			}
			if e.alloc.UsedBlocks() != 0 {
				t.Fatalf("leaked %d blocks", e.alloc.UsedBlocks())
			}
			if want := mustEngine(t, tc.cfg).Run(tc.reqs); !reflect.DeepEqual(got, want) {
				t.Fatal("stepped engine diverged from Run")
			}
		})
	}
}

// checkKV names the request whose block count breaks conservation.
func TestCheckKVNamesRequest(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	s := &seq{firstTok: -1, effInput: 64, req: workload.Request{ID: 42, InputTokens: 64, OutputTokens: 8}}
	e.waiting.set([]*seq{s})
	if err := e.checkKV(); err != nil {
		t.Fatal(err)
	}
	if err := e.alloc.Ensure(&s.blocks, 64); err != nil {
		t.Fatal(err)
	}
	if err := e.checkKV(); err == nil || !strings.Contains(err.Error(), "waiting request 42") {
		t.Fatalf("waiting seq holding blocks: err = %v", err)
	}
	e.waiting.clear()
	e.running = []*seq{s}
	if err := e.checkKV(); err != nil {
		t.Fatal(err)
	}
	s.blocks = 0 // dropped without a Release: a leak
	if err := e.checkKV(); err == nil || !strings.Contains(err.Error(), "running request 42") {
		t.Fatalf("running seq without blocks: err = %v", err)
	}
}

// seq stays in the 208-byte size class: the engine allocates one per
// request, so a wider seq costs every request 16 more bytes.
func TestSeqSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(seq{}); n > 208 {
		t.Fatalf("seq is %d bytes, want at most 208", n)
	}
}
