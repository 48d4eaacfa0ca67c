// Package perf is the analytic cost model of the reproduction's
// performance level. It prices one engine iteration (a batch of prefill
// chunks and decode tokens) under a given parallelism using a roofline
// over the hardware specs in internal/hw:
//
//   - linear-layer GEMMs: compute-bound at large batch, weight-streaming
//     (HBM) bound at small batch; efficiency falls with narrow activations
//     and with narrow TP weight shards,
//   - attention: compute for prefill (O(n*ctx)), KV-cache streaming for
//     decode,
//   - collectives: alpha-beta ring all-reduce (TP) and pairwise
//     all-to-all (SP), matching the complexities of the paper's Table 2
//     and the counted wire bytes of internal/comm,
//   - a per-iteration engine overhead (the "vLLM cost" of Figure 15).
//
// Constants are calibrated so the 8xH200 figures of the paper's Figure 12
// come out shape-correct (who wins, and by roughly what factor).
package perf

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
)

// Parallelism is an intra-engine parallel configuration. Data parallelism
// is expressed at the cluster level (several engines of World()==1 or
// more), not here.
type Parallelism struct {
	SP int
	TP int
	// EP shards a MoE model's experts EP ways over the same SP×TP GPUs
	// (0 or 1 is off; dense models ignore it). It is the paper's stated
	// future work (Section 4.6): each rank holds and streams only its
	// own experts, and two token-routing all-to-alls per layer (dispatch
	// and combine) move hidden states to the expert owners and back. EP
	// leaves the KV layout untouched, so Shift's SP<->TP switching works
	// unchanged with it.
	EP int
}

// World returns SP*TP, the GPUs the engine spans (expert shards sit on
// the same GPUs).
func (p Parallelism) World() int { return p.SP * p.TP }

// Validate reports configuration errors.
func (p Parallelism) Validate() error {
	if p.SP <= 0 || p.TP <= 0 {
		return fmt.Errorf("perf: non-positive parallelism %+v", p)
	}
	if p.EP < 0 {
		return fmt.Errorf("perf: negative EP degree %d", p.EP)
	}
	if p.EP > 1 && p.World()%p.EP != 0 {
		return fmt.Errorf("perf: EP degree %d does not divide world %d", p.EP, p.World())
	}
	return nil
}

// String renders like the paper: "TP=8", "SP=8", "(SP=4,TP=2)", with
// "+EP8" appended when experts are sharded.
func (p Parallelism) String() string {
	var s string
	switch {
	case p.SP == 1 && p.TP == 1:
		s = "1GPU"
	case p.SP == 1:
		s = fmt.Sprintf("TP=%d", p.TP)
	case p.TP == 1:
		s = fmt.Sprintf("SP=%d", p.SP)
	default:
		s = fmt.Sprintf("(SP=%d,TP=%d)", p.SP, p.TP)
	}
	if p.EP > 1 {
		s += fmt.Sprintf("+EP%d", p.EP)
	}
	return s
}

// Params are the calibration constants of the cost model.
type Params struct {
	// GEMMEffMax is the peak achievable fraction of tensor-core flops.
	GEMMEffMax float64
	// GEMMRowsHalf is the activation row count at which GEMM efficiency
	// reaches half of max (small decode batches run far below peak).
	GEMMRowsHalf float64
	// TPShardPenalty is the per-extra-TP-rank efficiency loss from narrow
	// weight shards (why SP prefill beats TP prefill in Figure 12).
	TPShardPenalty float64
	// AttnEff is the achieved flop fraction of prefill attention kernels.
	AttnEff float64
	// MemEff is the achieved fraction of HBM bandwidth for streaming
	// weights and KV cache.
	MemEff float64
	// ActBytes is the wire size of activation elements (BF16 = 2).
	ActBytes float64
	// OverheadBase is the per-iteration engine (scheduler/launch) time of
	// a single-GPU engine.
	OverheadBase time.Duration
	// OverheadPerRank adds engine time per additional GPU in the engine
	// (python-side broadcast and sync).
	OverheadPerRank time.Duration
	// SlicePenalty multiplies GEMM efficiency when the shift config uses
	// on-the-fly weight slicing (the FP8 transpose limitation of
	// Section 3.3.2); 1 means no penalty (separate models).
	SlicePenalty float64
	// KVReserve is the fraction of GPU memory held back from the KV cache
	// (activations, CUDA graphs, fragmentation).
	KVReserve float64
}

// DefaultParams returns the calibration used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		GEMMEffMax:      0.50,
		GEMMRowsHalf:    48,
		TPShardPenalty:  0.065,
		AttnEff:         0.35,
		MemEff:          0.70,
		ActBytes:        2,
		OverheadBase:    2 * time.Millisecond,
		OverheadPerRank: 250 * time.Microsecond,
		SlicePenalty:    1.0,
		KVReserve:       0.10,
	}
}

// Batch describes the work of one engine iteration.
type Batch struct {
	// PrefillTokens is the number of new prompt tokens this iteration.
	PrefillTokens int
	// PrefillCtx is the mean context length those tokens attend to.
	PrefillCtx float64
	// DecodeSeqs is the number of sequences decoding one token each.
	DecodeSeqs int
	// DecodeCtx is the mean context length of the decoding sequences.
	DecodeCtx float64
}

// Tokens returns the total batched tokens — Algorithm 2's shift criterion.
func (b Batch) Tokens() int { return b.PrefillTokens + b.DecodeSeqs }

// Cost is an iteration's time broken into the components of Figure 15.
type Cost struct {
	GEMM      time.Duration // linear layers (the "model" bar)
	Attn      time.Duration
	AllReduce time.Duration
	AllToAll  time.Duration
	Overhead  time.Duration // engine/framework cost
}

// Total returns the iteration latency.
func (c Cost) Total() time.Duration {
	return c.GEMM + c.Attn + c.AllReduce + c.AllToAll + c.Overhead
}

// Comm returns the collective communication time.
func (c Cost) Comm() time.Duration { return c.AllReduce + c.AllToAll }

// CostModel prices iterations of one model on one node.
type CostModel struct {
	Node hw.Node
	M    model.Config
	P    Params

	// PrefillFlopsFactor scales prefill linear flops; SwiftKV's
	// SingleInputKV roughly halves them (internal/specdec sets this).
	PrefillFlopsFactor float64
}

// New returns a cost model with the given calibration.
func New(node hw.Node, m model.Config, p Params) (*CostModel, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &CostModel{Node: node, M: m, P: p, PrefillFlopsFactor: 1}, nil
}

// MustNew is New, panicking on error (for presets known to be valid).
func MustNew(node hw.Node, m model.Config, p Params) *CostModel {
	cm, err := New(node, m, p)
	if err != nil {
		panic(err)
	}
	return cm
}

// Iter prices one iteration of the batch under the parallelism. Engines
// that price many iterations under a fixed parallelism should build its
// Pricer once instead.
func (cm *CostModel) Iter(par Parallelism, b Batch) Cost {
	p := cm.Pricer(par)
	return p.Iter(b)
}

// Pricer prices iterations of one cost model under one parallelism.
// CostModel.Pricer computes every batch-independent term once, so an
// engine alternating between two fixed parallelisms (Shift's base and
// full-TP configurations) pays only the batch-dependent arithmetic per
// iteration. A Pricer is a snapshot: later edits to its CostModel do not
// reach it.
type Pricer struct {
	par           Parallelism
	sp, tp, world float64

	// Linear layers.
	flopsPerToken float64
	prefillFactor float64 // PrefillFlopsFactor, 0 read as 1
	fp8Flops      float64
	gemmEffMax    float64
	rowsHalf      float64
	shardFactor   float64 // efficiency left after the TP shard-width penalty
	slicePenalty  float64
	memBW         float64 // achieved HBM bandwidth (HBMBandwidth * MemEff)

	// Weight streaming: a dense model streams its whole shard every
	// iteration (denseMem seconds); a MoE model streams the batch's
	// routed experts (see moeWeightBytes).
	moe                 bool
	denseMem            float64
	weightBytes         float64 // all weights
	activeBytesPerToken float64
	sharedBytes         float64
	expertBytesPerRank  float64 // this rank's resident experts under EP
	activeExpertBytes   float64 // expert bytes one token activates
	ep                  float64

	// Attention.
	attnPerCtx      float64 // 4 * Hidden * Layers
	attnRate        float64 // FP8Flops * AttnEff
	kvBytesPerToken float64
	kvShare         float64

	// Collectives: per-layer message rows are rowsPerRank*hidden*actBytes.
	hidden, actBytes, layers, linkBW float64
	tpLess, arLatency, arLayers      float64 // TP-1, 2(TP-1)·latency, 2·layers
	qkvFactor                        float64
	spLess, a2aLatency               float64 // SP-1, 2(SP-1)·latency
	epLess, epLatency                float64 // EP-1, 2(EP-1)·latency

	overhead time.Duration
}

// Pricer builds the Pricer for par, panicking on an invalid parallelism.
func (cm *CostModel) Pricer(par Parallelism) Pricer {
	if err := par.Validate(); err != nil {
		panic(err)
	}
	g, link, m := cm.Node.GPU, cm.Node.Link, &cm.M
	world := par.World()
	f := cm.PrefillFlopsFactor
	if f == 0 {
		f = 1
	}
	dt := float64(m.WeightDType.Bytes())
	p := Pricer{
		par:   par,
		sp:    float64(par.SP),
		tp:    float64(par.TP),
		world: float64(world),

		flopsPerToken: m.FlopsPerToken(),
		prefillFactor: f,
		fp8Flops:      g.FP8Flops,
		gemmEffMax:    cm.P.GEMMEffMax,
		rowsHalf:      cm.P.GEMMRowsHalf,
		shardFactor:   1 / (1 + cm.P.TPShardPenalty*float64(par.TP-1)),
		slicePenalty:  cm.P.SlicePenalty,
		memBW:         g.HBMBandwidth * cm.P.MemEff,

		moe:                 m.IsMoE(),
		weightBytes:         m.WeightBytes(),
		activeBytesPerToken: m.ActiveWeightBytesPerToken(),
		sharedBytes:         m.SharedParams * dt,
		activeExpertBytes:   m.ActiveExpertParams() * dt,
		ep:                  float64(par.EP),

		attnPerCtx:      4 * float64(m.Hidden) * float64(m.Layers),
		attnRate:        g.FP8Flops * cm.P.AttnEff,
		kvBytesPerToken: m.KVBytesPerToken(),
		kvShare:         cm.kvShare(world),

		hidden:     float64(m.Hidden),
		actBytes:   cm.P.ActBytes,
		layers:     float64(m.Layers),
		linkBW:     link.LinkBandwidth,
		tpLess:     float64(par.TP - 1),
		arLatency:  2 * float64(par.TP-1) * link.Latency,
		arLayers:   2 * float64(m.Layers),
		spLess:     float64(par.SP - 1),
		a2aLatency: 2 * float64(par.SP-1) * link.Latency,
		epLess:     float64(par.EP - 1),
		epLatency:  2 * float64(par.EP-1) * link.Latency,

		overhead: cm.P.OverheadBase + time.Duration(world-1)*cm.P.OverheadPerRank,
	}
	p.denseMem = p.weightBytes / p.tp / p.memBW
	if par.EP > 1 {
		p.expertBytesPerRank = m.ExpertParams() * dt / p.ep
	}
	// The first SP all-to-all carries q + (replicated) kv heads; the
	// second carries the attention output (q-width only).
	p.qkvFactor = 1 + 2*float64(m.KVHeads)*p.kvShare*p.world/float64(m.QHeads)
	return p
}

// Par returns the parallelism the Pricer prices.
func (p *Pricer) Par() Parallelism { return p.par }

// Iter prices one iteration of the batch.
func (p *Pricer) Iter(b Batch) Cost {
	tokens := b.Tokens()
	if tokens == 0 {
		return Cost{Overhead: p.overhead}
	}

	// Decode padding (Section 3.2.1): SP distributes rows evenly only in
	// multiples of SP; stragglers set the pace, so every rank effectively
	// processes ceil(tokens/SP) rows.
	rowsPerRank := float64(ceilDiv(tokens, p.par.SP))

	// --- Linear layers (roofline) ---
	flops := p.flopsPerToken*float64(b.PrefillTokens)*p.prefillFactor + p.flopsPerToken*float64(b.DecodeSeqs)
	flopsPerRank := flops / p.sp / p.tp
	// GEMM efficiency falls with narrow activations and narrow TP shards.
	eff := p.gemmEffMax * (rowsPerRank / (rowsPerRank + p.rowsHalf)) * p.shardFactor * p.slicePenalty
	computeTime := flopsPerRank / (p.fp8Flops * eff)
	// Weight streaming: each rank reads its weight shard once per
	// iteration. MoE models read only the routed experts at small batch.
	memTime := p.denseMem
	if p.moe {
		memTime = p.moeWeightBytes(tokens) / p.tp / p.memBW
	}
	gemm := math.Max(computeTime, memTime)

	// --- Attention (head-parallel across all world ranks) ---
	attnFlops := p.attnPerCtx * (float64(b.PrefillTokens)*b.PrefillCtx + float64(b.DecodeSeqs)*b.DecodeCtx)
	attnCompute := attnFlops / p.world / p.attnRate
	// Decode KV streaming: each decoding sequence reads its full cached
	// context for this rank's heads (replication multiplies the share).
	kvBytes := float64(b.DecodeSeqs) * b.DecodeCtx * p.kvBytesPerToken * p.kvShare
	attnMem := kvBytes / p.memBW
	attn := math.Max(attnCompute, attnMem)

	// --- Collectives (per layer: 2 all-reduces on the TP group, 2
	// all-to-alls on the SP group; Table 2) ---
	var allReduce, allToAll, expert float64
	msg := rowsPerRank * p.hidden * p.actBytes
	if p.par.TP > 1 {
		per := 2*msg*p.tpLess/p.tp/p.linkBW + p.arLatency
		allReduce = p.arLayers * per
	}
	if p.par.SP > 1 {
		per := (msg*p.qkvFactor+msg)*p.spLess/p.sp/p.linkBW + p.a2aLatency
		allToAll = p.layers * per
	}
	// EP dispatch and combine: per layer, each rank scatters its rows'
	// hidden states to the expert owners and gathers them back.
	if p.moe && p.par.EP > 1 {
		per := 2*msg*p.epLess/p.ep/p.linkBW + p.epLatency
		expert = p.layers * per
	}

	return Cost{
		GEMM:      secs(gemm),
		Attn:      secs(attn),
		AllReduce: secs(allReduce),
		AllToAll:  secs(allToAll) + secs(expert),
		Overhead:  p.overhead,
	}
}

// moeWeightBytes returns the weight bytes one rank of a MoE model
// streams from HBM in one iteration (before the TP split): only the
// experts the batch activates, approaching all weights at large batch.
// With experts sharded EP ways the shared (attention) weights stream
// fully, while the rank streams 1/EP of the batch's activated expert
// volume, capped by its resident experts.
func (p *Pricer) moeWeightBytes(tokens int) float64 {
	if p.par.EP <= 1 {
		return math.Min(p.weightBytes, p.activeBytesPerToken*float64(tokens))
	}
	return p.sharedBytes + math.Min(p.expertBytesPerRank, p.activeExpertBytes*float64(tokens)/p.ep)
}

// kvShare is the fraction of the model's per-token KV bytes one rank
// holds: 1/world without replication, more when KV heads are replicated
// (world > KVHeads).
func (cm *CostModel) kvShare(world int) float64 {
	if world <= cm.M.KVHeads {
		return 1 / float64(world)
	}
	return 1 / float64(cm.M.KVHeads)
}

// --- Memory sizing ---

// WeightBytesPerGPU returns the per-GPU weight footprint: w/TP for the
// base configuration, plus w/(SP*TP) when a shift model is co-loaded
// (Eq. 1 of the paper). Under EP the base config holds the shared
// weights and 1/EP of the experts; the memory freed goes to the KV
// cache, which is what lets SP=8 deploy Llama-17B-16E.
func (cm *CostModel) WeightBytesPerGPU(par Parallelism, withShiftModel bool) float64 {
	base := cm.M.WeightBytes() / float64(par.TP)
	if cm.M.IsMoE() && par.EP > 1 {
		dt := float64(cm.M.WeightDType.Bytes())
		base = (cm.M.SharedParams*dt + cm.M.ExpertParams()*dt/float64(par.EP)) / float64(par.TP)
	}
	if withShiftModel {
		base += cm.M.WeightBytes() / float64(par.World())
	}
	return base
}

// KVCapacityTokens returns how many tokens of KV cache one engine can
// hold across its GPUs after weights and reserve. Returns 0 when the
// weights do not fit at all.
func (cm *CostModel) KVCapacityTokens(par Parallelism, withShiftModel bool) int {
	gpuBytes := float64(cm.Node.GPU.MemBytes) * (1 - cm.P.KVReserve)
	free := gpuBytes - cm.WeightBytesPerGPU(par, withShiftModel)
	if free <= 0 {
		return 0
	}
	perRankTokenBytes := cm.M.KVBytesPerToken() * cm.kvShare(par.World())
	return int(free / perRankTokenBytes)
}

// Fits reports whether the configuration's weights fit in GPU memory with
// non-zero KV space (the paper's L17B-16E example: SP=8 fits weights but
// leaves no room for long contexts, forcing (SP=4, TP=2)).
func (cm *CostModel) Fits(par Parallelism, withShiftModel bool, minKVTokens int) bool {
	return cm.KVCapacityTokens(par, withShiftModel) >= minKVTokens
}

// --- Convenience latency points (Figure 12/13 "minimum latency") ---

// MinTTFT is the time to first token of a lone request with the given
// input length: one prefill iteration with no queueing.
func (cm *CostModel) MinTTFT(par Parallelism, inputTokens int) time.Duration {
	b := Batch{PrefillTokens: inputTokens, PrefillCtx: float64(inputTokens) / 2}
	return cm.Iter(par, b).Total()
}

// MinTPOT is the decode latency of a lone request at the given context.
func (cm *CostModel) MinTPOT(par Parallelism, ctx int) time.Duration {
	b := Batch{DecodeSeqs: 1, DecodeCtx: float64(ctx)}
	return cm.Iter(par, b).Total()
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
