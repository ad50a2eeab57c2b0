package costmodel

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/model"
)

// StageTable times the stages of one pipeline plan. NewStageTable
// computes, once, every operand of a stage time that depends only on
// the node, the model, the calibration and the stage's share of the
// layers. Each method evaluates the roofline over those operands with
// the expressions that derive every operand per call (kept in
// reference_test.go), operand for operand and in the same order, so
// every time is bit-identical to that derivation as long as the
// compiler fuses no multiply-add, which gc does not at GOAMD64=v1.
//
// Stages with equal (Layers, HasEmbed, HasHead) take equal times, so
// the bottlenecks evaluate one stage of each such class, and SameAs
// lets a caller timing every stage of a pass reuse a class's time.
// A table is read-only once built and may be shared.
type StageTable struct {
	stages []stageConsts
	// classes lists the first stage of each class, in stage order.
	classes []int

	// Per-model operands.
	denseFLOPs    float64 // DenseFLOPsPerTokenLayer
	fourHidden    float64 // 4 * Hidden, the decode attention FLOPs per KV token
	hidden, vocab float64
	bytesPerParam float64

	// Roofs: FLOPS × MFU for prefill, decode and hybrid passes (the
	// mixed MFU discounted by MixedBatchEff when a pass mixes phases)
	// and bandwidth × HBMEff.
	flopsPrefill, flopsDecode     float64
	flopsHybrid, flopsHybridMixed float64
	bandwidth                     float64

	mixedEff float64 // MixedBatchEff, which also divides a mixed pass's bytes
	perPass  float64 // OverheadPerPass
	node     hw.Node // prices the stage-to-stage transfers
}

// stageConsts are the per-stage operands of a stage time.
type stageConsts struct {
	layers      float64 // Layers
	hasHead     bool
	weightBytes float64 // PipelinePlan.StageWeightBytes
	kvBytes     float64 // Layers × KVBytesPerTokenLayer
	actIO       float64 // ActIOFactor × Layers
	overhead    float64 // Layers × OverheadPerLayer
	// sameAs is the first stage of this stage's class.
	sameAs int
}

// NewStageTable builds the stage-time table of plan under c. It
// rejects calibration constants Params.Validate refuses and a plan of
// another model than c's.
func NewStageTable(c *Model, plan model.PipelinePlan) (*StageTable, error) {
	if err := c.P.Validate(); err != nil {
		return nil, err
	}
	if plan.Model != c.Spec {
		return nil, fmt.Errorf("costmodel: plan partitions %q, cost model is for %q", plan.Model.Name, c.Spec.Name)
	}
	s, p, gpu := c.Spec, c.P, c.Node.GPU
	mixedMFU := (p.MFUPrefill + p.MFUDecode) / 2
	t := &StageTable{
		stages:           make([]stageConsts, len(plan.Stages)),
		denseFLOPs:       s.DenseFLOPsPerTokenLayer(),
		fourHidden:       4 * float64(s.Hidden),
		hidden:           float64(s.Hidden),
		vocab:            float64(s.Vocab),
		bytesPerParam:    float64(s.BytesPerParam),
		flopsPrefill:     gpu.FLOPS() * p.MFUPrefill,
		flopsDecode:      gpu.FLOPS() * p.MFUDecode,
		flopsHybrid:      gpu.FLOPS() * mixedMFU,
		flopsHybridMixed: gpu.FLOPS() * (mixedMFU * p.MixedBatchEff),
		bandwidth:        gpu.MemBandwidth() * p.HBMEff,
		mixedEff:         p.MixedBatchEff,
		perPass:          p.OverheadPerPass,
		node:             c.Node,
	}
	for st, stage := range plan.Stages {
		sc := &t.stages[st]
		*sc = stageConsts{
			layers:      float64(stage.Layers),
			hasHead:     stage.HasHead,
			weightBytes: plan.StageWeightBytes(st),
			kvBytes:     plan.StageKVBytesPerToken(st),
			actIO:       p.ActIOFactor * float64(stage.Layers),
			overhead:    float64(stage.Layers) * p.OverheadPerLayer,
			sameAs:      st,
		}
		for _, first := range t.classes {
			f := plan.Stages[first]
			if f.Layers == stage.Layers && f.HasEmbed == stage.HasEmbed && f.HasHead == stage.HasHead {
				sc.sameAs = first
				break
			}
		}
		if sc.sameAs == st {
			t.classes = append(t.classes, st)
		}
	}
	return t, nil
}

// SameAs returns the first stage whose time always equals stage st's:
// st itself unless an earlier stage has the same layers, embedding and
// head.
//
//det:hotpath
func (t *StageTable) SameAs(st int) int { return t.stages[st].sameAs }

// activationBytes is model.Spec.ActivationBytes.
//
//det:hotpath
func (t *StageTable) activationBytes(tokens int) float64 {
	return float64(tokens) * t.hidden * t.bytesPerParam
}

// prefillFLOPs is the compute of a prefill of tokens tokens, sumSq
// their summed squared sequence lengths, over the stage's layers.
//
//det:hotpath
func (t *StageTable) prefillFLOPs(s *stageConsts, tokens int, sumSq float64) float64 {
	dense := float64(tokens) * t.denseFLOPs
	attn := 2 * t.hidden * sumSq // causal: ~s^2/2 pairs, 4 FLOPs each
	return s.layers * (dense + attn)
}

// decodeFLOPs is the compute of one decode step of batch requests over
// kvTokens of context on the stage's layers.
//
//det:hotpath
func (t *StageTable) decodeFLOPs(s *stageConsts, batch, kvTokens int) float64 {
	dense := float64(batch) * t.denseFLOPs
	attn := t.fourHidden * float64(kvTokens)
	f := s.layers * (dense + attn)
	if s.hasHead {
		f += float64(batch) * 2 * t.vocab * t.hidden
	}
	return f
}

// roofline combines compute and memory times with the stage's and the
// pass's fixed overheads.
//
//det:hotpath
func (t *StageTable) roofline(s *stageConsts, flops, bytes, peakFLOPS float64) float64 {
	ct := flops / peakFLOPS
	mt := bytes / t.bandwidth
	tm := ct
	if mt > tm {
		tm = mt
	}
	return tm + s.overhead + t.perPass
}

// PrefillStage returns the time for stage st to process prefill batch
// b: the weights read once, activations ActIOFactor times per layer and
// the fresh KV written once.
//
//det:hotpath
func (t *StageTable) PrefillStage(st int, b PrefillBatch) float64 {
	if b.Tokens == 0 {
		return 0
	}
	s := &t.stages[st]
	flops := t.prefillFLOPs(s, b.Tokens, b.SumSqTokens)
	if s.hasHead {
		flops += float64(b.Seqs) * 2 * t.vocab * t.hidden
	}
	act := s.actIO * t.activationBytes(b.Tokens)
	kvWrite := s.kvBytes * float64(b.Tokens)
	return t.roofline(s, flops, s.weightBytes+act+kvWrite, t.flopsPrefill)
}

// DecodeStage returns the time for stage st to run one decode step over
// batch requests with kvTokens total cached context: the weights, the
// whole resident KV of the stage's layers and the activations cross
// HBM.
//
//det:hotpath
func (t *StageTable) DecodeStage(st int, batch, kvTokens int) float64 {
	if batch == 0 {
		return 0
	}
	s := &t.stages[st]
	flops := t.decodeFLOPs(s, batch, kvTokens)
	kvRead := s.kvBytes * float64(kvTokens)
	act := s.actIO * t.activationBytes(batch)
	return t.roofline(s, flops, s.weightBytes+kvRead+act, t.flopsDecode)
}

// HybridStage returns the time for stage st to run one hybrid-batch
// iteration: decodeBatch decode tokens (kvTokens context) mixed with a
// prefill chunk of chunkTokens (chunkCtx already cached). A pass that
// mixes both phases runs at the mixed MFU and bandwidth discounted by
// MixedBatchEff. Used by the PP+HB baseline.
//
//det:hotpath
func (t *StageTable) HybridStage(st int, decodeBatch, kvTokens, chunkTokens, chunkCtx int) float64 {
	if decodeBatch == 0 && chunkTokens == 0 {
		return 0
	}
	s := &t.stages[st]
	sumSq := float64(chunkTokens)*float64(chunkTokens) + 2*float64(chunkTokens)*float64(chunkCtx)
	flops := t.prefillFLOPs(s, chunkTokens, sumSq) + t.decodeFLOPs(s, decodeBatch, kvTokens)
	bytes := s.kvBytes*float64(kvTokens+chunkCtx+chunkTokens) +
		s.weightBytes +
		s.actIO*t.activationBytes(decodeBatch+chunkTokens)
	peak := t.flopsHybrid
	if chunkTokens > 0 && decodeBatch > 0 {
		peak = t.flopsHybridMixed
		bytes /= t.mixedEff // equivalent to discounting achieved bandwidth
	}
	return t.roofline(s, flops, bytes, peak)
}

// DecodeBottleneck returns the slowest per-stage time of one decode
// step, which governs pipeline throughput when all stages are busy.
//
//det:hotpath
func (t *StageTable) DecodeBottleneck(batch, kvTokens int) float64 {
	var max float64
	for _, st := range t.classes {
		if d := t.DecodeStage(st, batch, kvTokens); d > max {
			max = d
		}
	}
	return max
}

// PrefillBottleneck returns the slowest per-stage time of a prefill
// batch across the pipeline.
//
//det:hotpath
func (t *StageTable) PrefillBottleneck(b PrefillBatch) float64 {
	var max float64
	for _, st := range t.classes {
		if d := t.PrefillStage(st, b); d > max {
			max = d
		}
	}
	return max
}

// PassFloor returns a lower bound on one pass's duration: the sum over
// stages of DecodeStage(st, 1, 0). A decode stage's time never falls as
// its batch or KV tokens grow, and a prefill stage takes at least the
// decode floor of its stage (the stage-table tests pin both), so no
// pass through every stage is shorter.
func (t *StageTable) PassFloor() float64 {
	var floor float64
	for st := range t.stages {
		floor += t.DecodeStage(st, 1, 0)
	}
	return floor
}

// P2PActivation returns the stage-to-stage transfer time for a
// microbatch of tokens tokens.
//
//det:hotpath
func (t *StageTable) P2PActivation(tokens int) float64 {
	return t.node.P2PTime(t.activationBytes(tokens))
}
