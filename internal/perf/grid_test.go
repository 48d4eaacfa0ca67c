package perf

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
)

var updateGrid = flag.Bool("update-grid", false, "rewrite testdata/ep_grid.golden from the current cost model")

// gridDump prices a fixed grid of cost models × parallelisms × EP
// degrees × batches and renders every Cost field in nanoseconds plus the
// sizing figures (weight bytes per GPU with and without a shift model, KV
// capacity in tokens). Each model is priced plain and with SwiftKV's
// halved prefill flops; the batches include the empty one (the
// overhead-only return). The golden file pins the cost model's exact
// output, so a refactor of the pricing path cannot move a single
// nanosecond unnoticed.
func gridDump(t *testing.T) string {
	t.Helper()
	models := []model.Config{model.Llama17B16E(), model.Qwen30BA3B(), model.Llama70B()}
	pars := []Parallelism{{SP: 4, TP: 2}, {SP: 8, TP: 1}, {SP: 1, TP: 8}, {SP: 1, TP: 1}, {SP: 2, TP: 4}}
	batches := []struct {
		name string
		b    Batch
	}{
		{"decode-1", Batch{DecodeSeqs: 1, DecodeCtx: 1024}},
		{"decode-512", Batch{DecodeSeqs: 512, DecodeCtx: 2048}},
		{"prefill-8192", Batch{PrefillTokens: 8192, PrefillCtx: 4096}},
		{"mixed", Batch{PrefillTokens: 1500, PrefillCtx: 3000, DecodeSeqs: 96, DecodeCtx: 2500}},
		{"empty", Batch{}},
	}
	var sb strings.Builder
	for _, swiftKV := range []bool{false, true} {
		for _, m := range models {
			cm, err := New(hw.P5enNode(), m, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			name := m.Name
			if swiftKV {
				cm.PrefillFlopsFactor = 0.5
				name += " swiftkv"
			}
			for _, base := range pars {
				for _, ep := range []int{0, 1, 2, 8} {
					if ep > 1 && base.World()%ep != 0 {
						continue
					}
					par := base
					par.EP = ep
					fmt.Fprintf(&sb, "%s %s ep=%d weights=%v shift-weights=%v kv=%d shift-kv=%d\n",
						name, base, ep,
						cm.WeightBytesPerGPU(par, false), cm.WeightBytesPerGPU(par, true),
						cm.KVCapacityTokens(par, false), cm.KVCapacityTokens(par, true))
					for _, bc := range batches {
						c := cm.Iter(par, bc.b)
						fmt.Fprintf(&sb, "  %s gemm=%d attn=%d allreduce=%d alltoall=%d overhead=%d\n",
							bc.name, int64(c.GEMM), int64(c.Attn), int64(c.AllReduce), int64(c.AllToAll), int64(c.Overhead))
					}
				}
			}
		}
	}
	return sb.String()
}

// TestCostGridGolden compares the grid against testdata/ep_grid.golden
// (regenerate with go test ./internal/perf -run TestCostGridGolden
// -update-grid, and only for an intended pricing change).
func TestCostGridGolden(t *testing.T) {
	const path = "testdata/ep_grid.golden"
	got := gridDump(t)
	if *updateGrid {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("grid has %d lines, golden %d", len(gl), len(wl))
	}
}
