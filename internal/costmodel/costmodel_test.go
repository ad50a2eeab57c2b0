package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/model"
)

func mustNew(t *testing.T, n hw.Node, s model.Spec) *Model {
	t.Helper()
	c, err := New(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPlan(t *testing.T, s model.Spec, stages int) model.PipelinePlan {
	t.Helper()
	p, err := model.Partition(s, stages)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustTable(t *testing.T, c *Model, plan model.PipelinePlan) *StageTable {
	t.Helper()
	tab, err := NewStageTable(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewValidates(t *testing.T) {
	if _, err := New(hw.Node{}, model.Tiny); err == nil {
		t.Error("invalid node accepted")
	}
	if _, err := New(hw.L20, model.Spec{}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestNewPrefillBatch(t *testing.T) {
	b := NewPrefillBatch([]int{100, 200, 300})
	if b.Seqs != 3 || b.Tokens != 600 {
		t.Errorf("batch = %+v", b)
	}
	if b.SumSqTokens != 100*100+200*200+300*300 {
		t.Errorf("sumsq = %v", b.SumSqTokens)
	}
}

// Paper §2.1: "a very small batch size is sufficient for the prefill
// phase to saturate computational resources, while the decode phase
// requires a substantially larger batch size."
func TestPrefillComputeBoundDecodeMemoryBound(t *testing.T) {
	c := mustNew(t, hw.A100, model.Llama2_70B)
	plan := mustPlan(t, model.Llama2_70B, 4)

	// A single 512-token prompt: compute time should dominate memory.
	b := NewPrefillBatch([]int{512})
	flops := c.prefillComputeFLOPs(b, plan.Stages[0].Layers, false)
	bytes := c.prefillMemBytes(b, plan.StageWeightBytes(0), plan.Stages[0].Layers)
	ct := flops / (c.Node.GPU.FLOPS() * c.P.MFUPrefill)
	mt := bytes / (c.Node.GPU.MemBandwidth() * c.P.HBMEff)
	if ct <= mt {
		t.Errorf("prefill not compute bound: compute %v <= memory %v", ct, mt)
	}

	// A decode step at small batch is memory bound (weight reads
	// dominate); at very large batch it approaches the compute roof,
	// which is what saturates the intensity curve.
	flops = c.decodeComputeFLOPs(32, 32*500, plan.Stages[0].Layers, false)
	bytes = c.decodeMemBytes(32, 32*500, plan.StageWeightBytes(0), plan.Stages[0].Layers)
	ct = flops / (c.Node.GPU.FLOPS() * c.P.MFUDecode)
	mt = bytes / (c.Node.GPU.MemBandwidth() * c.P.HBMEff)
	if mt <= ct {
		t.Errorf("small-batch decode not memory bound: memory %v <= compute %v", mt, ct)
	}
}

// The decode intensity curve (paper Fig. 10 left): per-request rate
// rises with batch size and saturates.
func TestDecodeIntensityCurveSaturates(t *testing.T) {
	c := mustNew(t, hw.A100, model.Llama2_70B)
	tab := mustTable(t, c, mustPlan(t, model.Llama2_70B, 4))
	rate := func(b int) float64 {
		return float64(b) / tab.DecodeStage(0, b, b*400)
	}
	if !(rate(16) < rate(64) && rate(64) < rate(256)) {
		t.Errorf("rate not increasing: %v %v %v", rate(16), rate(64), rate(256))
	}
	// Saturation: doubling 256->512 gains much less than 16->32.
	gainSmall := rate(32) / rate(16)
	gainLarge := rate(512) / rate(256)
	if gainLarge >= gainSmall {
		t.Errorf("no saturation: small gain %v, large gain %v", gainSmall, gainLarge)
	}
}

func TestZeroWorkCostsNothing(t *testing.T) {
	c := mustNew(t, hw.L20, model.Tiny)
	plan := mustPlan(t, model.Tiny, 2)
	tab := mustTable(t, c, plan)
	if got := tab.PrefillStage(0, PrefillBatch{}); got != 0 {
		t.Errorf("empty prefill = %v", got)
	}
	if got := tab.DecodeStage(0, 0, 0); got != 0 {
		t.Errorf("empty decode = %v", got)
	}
	if got := c.ChunkedPrefillStage(plan, 0, 0, 100); got != 0 {
		t.Errorf("empty chunk = %v", got)
	}
	if got := tab.HybridStage(0, 0, 0, 0, 0); got != 0 {
		t.Errorf("empty hybrid = %v", got)
	}
	if comp, comm := c.TPPrefill(4, PrefillBatch{}); comp != 0 || comm != 0 {
		t.Errorf("empty TP prefill = %v %v", comp, comm)
	}
	if comp, comm := c.TPDecode(4, 0, 0); comp != 0 || comm != 0 {
		t.Errorf("empty TP decode = %v %v", comp, comm)
	}
}

// Chunked prefill pays a KV-reload penalty: prefilling a prompt in k
// chunks costs more than prefilling it in one pass (paper §2.3).
func TestChunkedPrefillReloadPenalty(t *testing.T) {
	c := mustNew(t, hw.L20, model.Qwen2_5_32B)
	plan := mustPlan(t, model.Qwen2_5_32B, 4)
	whole := c.PrefillStage(plan, 1, NewPrefillBatch([]int{2048}))
	var chunked float64
	const chunk = 512
	for done := 0; done < 2048; done += chunk {
		chunked += c.ChunkedPrefillStage(plan, 1, chunk, done)
	}
	if chunked <= whole {
		t.Errorf("chunked prefill (%v) not more expensive than whole (%v)", chunked, whole)
	}
}

// Paper Fig. 6 shape: TP communication share grows with device count and
// reaches roughly half the execution time at 4 GPUs on both nodes, with
// the A100 node's share at least the L20 node's.
func TestTPCommShareShape(t *testing.T) {
	b := NewPrefillBatch([]int{2048})
	share := func(n hw.Node, world int) float64 {
		c := mustNew(t, n, model.Llama30B)
		comp, comm := c.TPPrefill(world, b)
		return comm / (comp + comm)
	}
	for _, n := range []hw.Node{hw.L20, hw.A100} {
		s1 := share(n, 1)
		s2 := share(n, 2)
		s4 := share(n, 4)
		if s1 != 0 {
			t.Errorf("%s: 1-GPU comm share = %v, want 0", n.Name, s1)
		}
		if !(s2 < s4) {
			t.Errorf("%s: comm share not growing: s2=%v s4=%v", n.Name, s2, s4)
		}
		if s4 < 0.30 || s4 > 0.65 {
			t.Errorf("%s: 4-GPU comm share = %v, want ~0.45-0.55 (paper 47%%/54%%)", n.Name, s4)
		}
	}
	if share(hw.A100, 4) <= share(hw.L20, 4) {
		t.Errorf("A100 comm share (%v) not above L20 (%v)", share(hw.A100, 4), share(hw.L20, 4))
	}
}

// Paper §2.2.3: TP prefill scales sublinearly (1.84x on L20, 1.64x on
// A100 from 1 to 4 GPUs).
func TestTPScalingSublinear(t *testing.T) {
	b := NewPrefillBatch([]int{2048})
	speedup := func(n hw.Node) float64 {
		c := mustNew(t, n, model.Llama30B)
		c1, m1 := c.TPPrefill(1, b)
		c4, m4 := c.TPPrefill(4, b)
		return (c1 + m1) / (c4 + m4)
	}
	for _, n := range []hw.Node{hw.L20, hw.A100} {
		s := speedup(n)
		if s < 1.2 || s > 3.0 {
			t.Errorf("%s: 1->4 GPU speedup %v, want sublinear in [1.2,3.0]", n.Name, s)
		}
	}
	if speedup(hw.A100) >= speedup(hw.L20) {
		t.Errorf("A100 speedup (%v) should be below L20 (%v): more comm-bound", speedup(hw.A100), speedup(hw.L20))
	}
}

// PP communicates far less than TP for the same work: a single P2P
// activation transfer per stage boundary vs 2 all-reduces per layer.
func TestPPCommFarCheaperThanTP(t *testing.T) {
	c := mustNew(t, hw.L20, model.Llama2_70B)
	b := NewPrefillBatch([]int{1024})
	_, tpComm := c.TPPrefill(4, b)
	ppComm := 3 * mustTable(t, c, mustPlan(t, model.Llama2_70B, 4)).P2PActivation(1024) // 3 boundary crossings in a 4-stage pipeline
	if ppComm*5 > tpComm {
		t.Errorf("PP comm %v not far below TP comm %v", ppComm, tpComm)
	}
}

func TestDecodeBottleneckIsMaxOverStages(t *testing.T) {
	c := mustNew(t, hw.A100, model.Llama2_70B)
	plan := mustPlan(t, model.Llama2_70B, 4)
	tab := mustTable(t, c, plan)
	bn := tab.DecodeBottleneck(128, 128*300)
	for st := range plan.Stages {
		if tm := tab.DecodeStage(st, 128, 128*300); tm > bn {
			t.Errorf("stage %d time %v exceeds bottleneck %v", st, tm, bn)
		}
	}
	pbn := tab.PrefillBottleneck(NewPrefillBatch([]int{512}))
	if pbn <= 0 {
		t.Errorf("prefill bottleneck = %v", pbn)
	}
}

// Hybrid batch cost is at least the decode-only cost of its decode part.
func TestHybridAtLeastDecode(t *testing.T) {
	c := mustNew(t, hw.L20, model.Qwen2_5_32B)
	tab := mustTable(t, c, mustPlan(t, model.Qwen2_5_32B, 4))
	d := tab.DecodeStage(0, 64, 64*200)
	h := tab.HybridStage(0, 64, 64*200, 256, 0)
	if h < d*0.8 {
		t.Errorf("hybrid %v implausibly below decode-only %v", h, d)
	}
}

// Property: all stage times are positive for non-empty work and monotone
// in tokens / batch size.
func TestCostMonotonicityProperty(t *testing.T) {
	c := mustNew(t, hw.L20, model.Tiny)
	tab := mustTable(t, c, mustPlan(t, model.Tiny, 2))
	prop := func(a, b uint16) bool {
		x, y := int(a%4096)+1, int(b%4096)+1
		if x > y {
			x, y = y, x
		}
		pf1 := tab.PrefillStage(0, NewPrefillBatch([]int{x}))
		pf2 := tab.PrefillStage(0, NewPrefillBatch([]int{y}))
		d1 := tab.DecodeStage(0, x, x*10)
		d2 := tab.DecodeStage(0, y, y*10)
		return pf1 > 0 && d1 > 0 && pf1 <= pf2 && d1 <= d2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Sanity: absolute decode throughput for A100+70B across a 4-stage
// pipeline lands within a plausible order of magnitude of the paper's
// ~2900 tokens/s overall result (decode-only should exceed it).
func TestAbsoluteScaleSanity(t *testing.T) {
	c := mustNew(t, hw.A100, model.Llama2_70B)
	step := mustTable(t, c, mustPlan(t, model.Llama2_70B, 4)).DecodeBottleneck(200, 200*500)
	// 4 batches in flight, each step yields `batch` tokens.
	rate := 200.0 / step
	if rate < 2000 || rate > 100000 {
		t.Errorf("decode pipeline rate = %.0f tokens/s, implausible scale", rate)
	}
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		t.Errorf("rate = %v", rate)
	}
}
