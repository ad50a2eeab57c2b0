// Package costmodel turns (hardware, model, batch) descriptions into
// execution times using a roofline model: a pass over a set of layers
// takes max(compute time, memory time) plus fixed kernel overheads.
//
// This is the substitute for running CUDA kernels, which this
// simulator has no GPU to run: the schedulers only ever observe
// durations, and the roofline reproduces
// the two regimes the paper's design exploits — prefill saturates
// compute at tiny batch sizes while decode is bound by weight/KV-cache
// bandwidth until batch sizes reach the hundreds (paper §2.1, Fig. 10).
//
// Pipeline-parallel stage times come from a StageTable, built once per
// (Model, PipelinePlan): it caches every operand that depends only on
// the node, the model, the calibration and the stage's slice of the
// layers, and evaluates each stage time with the same expressions over
// them, so the times are bit-identical to recomputing every operand on
// every call. The runtime times every pass through it. The
// tensor-parallel methods on Model evaluate their operands per call.
package costmodel

import (
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/model"
)

// Params holds calibration constants. They are the honest knobs of the
// substitution: achieved fractions of peak, not scheduler behaviour.
type Params struct {
	// MFUPrefill is the fraction of peak FLOPS achieved by large
	// compute-bound GEMMs during prefill.
	MFUPrefill float64
	// MFUDecode is the fraction of peak FLOPS achieved by the skinny
	// matmuls of decode (rarely binding; decode is memory-bound).
	MFUDecode float64
	// HBMEff is the achieved fraction of peak memory bandwidth.
	HBMEff float64
	// ActIOFactor is how many times each activation element crosses
	// HBM per layer (reads+writes across the ~10 kernels of a block).
	ActIOFactor float64
	// OverheadPerLayer is fixed kernel-launch overhead per layer.
	OverheadPerLayer float64
	// OverheadPerPass is fixed per-forward-pass overhead on a stage
	// (scheduling, sampling, Python/driver work in the real system).
	OverheadPerPass float64
	// MixedBatchEff discounts achieved FLOPS and bandwidth for hybrid
	// (chunked-prefill + decode) batches. The vLLM-0.5.3-era runtime
	// executes the prefill and decode portions as separate sliced
	// kernels with gather/scatter glue, measurably below pure-phase
	// efficiency — one of the three chunked-prefill costs the paper
	// calls out (§2.3).
	MixedBatchEff float64
}

// DefaultParams returns calibrated constants for a node. The per-GPU
// MFU values reflect that smaller GPUs are easier to saturate (the
// paper's Fig. 6 breakdown implies L20 prefill runs closer to peak than
// A100).
func DefaultParams(n hw.Node) Params {
	p := Params{
		MFUPrefill:       0.55,
		MFUDecode:        0.50,
		HBMEff:           0.80,
		ActIOFactor:      8,
		OverheadPerLayer: 15e-6,
		OverheadPerPass:  200e-6,
		MixedBatchEff:    0.85,
	}
	switch n.Name {
	case "L20":
		p.MFUPrefill = 0.60
	case "A100":
		p.MFUPrefill = 0.40
	}
	return p
}

// ErrParams reports calibration constants no roofline can use.
var ErrParams = errors.New("costmodel: invalid params")

// Validate reports the first calibration constant outside its domain:
// a non-positive MFU or HBM efficiency, a MixedBatchEff outside (0, 1]
// or a negative overhead. The error wraps ErrParams and names the
// field.
func (p Params) Validate() error {
	bad := func(field string, v float64, want string) error {
		return fmt.Errorf("%w: %s %v %s", ErrParams, field, v, want)
	}
	switch {
	case !(p.MFUPrefill > 0):
		return bad("MFUPrefill", p.MFUPrefill, "is not positive")
	case !(p.MFUDecode > 0):
		return bad("MFUDecode", p.MFUDecode, "is not positive")
	case !(p.HBMEff > 0):
		return bad("HBMEff", p.HBMEff, "is not positive")
	case !(p.MixedBatchEff > 0 && p.MixedBatchEff <= 1):
		return bad("MixedBatchEff", p.MixedBatchEff, "is outside (0, 1]")
	case !(p.OverheadPerLayer >= 0):
		return bad("OverheadPerLayer", p.OverheadPerLayer, "is negative")
	case !(p.OverheadPerPass >= 0):
		return bad("OverheadPerPass", p.OverheadPerPass, "is negative")
	}
	return nil
}

// Model evaluates execution times for one (node, model) pair.
type Model struct {
	Node hw.Node
	Spec model.Spec
	P    Params
}

// New builds a cost model with default calibration for the node.
func New(n hw.Node, s model.Spec) (*Model, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Model{Node: n, Spec: s, P: DefaultParams(n)}, nil
}

// PrefillBatch summarizes a batch of prompts entering prefill.
type PrefillBatch struct {
	// Seqs is the number of sequences.
	Seqs int
	// Tokens is the total number of prompt tokens.
	Tokens int
	// SumSqTokens is the sum of squared per-sequence lengths, which
	// drives the quadratic causal-attention term.
	SumSqTokens float64
}

// NewPrefillBatch summarizes the given prompt lengths.
func NewPrefillBatch(lens []int) PrefillBatch {
	b := PrefillBatch{Seqs: len(lens)}
	for _, l := range lens {
		b.Tokens += l
		b.SumSqTokens += float64(l) * float64(l)
	}
	return b
}

// flops helpers -------------------------------------------------------

// prefillComputeFLOPs is the compute for nLayers layers over batch b,
// plus optional LM-head GEMM for the sequences' final positions.
func (c *Model) prefillComputeFLOPs(b PrefillBatch, nLayers int, hasHead bool) float64 {
	s := c.Spec
	dense := float64(b.Tokens) * s.DenseFLOPsPerTokenLayer()
	attn := 2 * float64(s.Hidden) * b.SumSqTokens // causal: ~s^2/2 pairs, 4 FLOPs each
	f := float64(nLayers) * (dense + attn)
	if hasHead {
		f += float64(b.Seqs) * 2 * float64(s.Vocab) * float64(s.Hidden)
	}
	return f
}

// decodeComputeFLOPs is the compute for one decode step of batch
// requests with kvTokens total context, over nLayers layers.
func (c *Model) decodeComputeFLOPs(batch, kvTokens, nLayers int, hasHead bool) float64 {
	s := c.Spec
	dense := float64(batch) * s.DenseFLOPsPerTokenLayer()
	attn := 4 * float64(s.Hidden) * float64(kvTokens)
	f := float64(nLayers) * (dense + attn)
	if hasHead {
		f += float64(batch) * 2 * float64(s.Vocab) * float64(s.Hidden)
	}
	return f
}

// roofline combines compute and memory times with overheads.
func (c *Model) roofline(flops, bytes, mfu float64, nLayers int) float64 {
	ct := flops / (c.Node.GPU.FLOPS() * mfu)
	mt := bytes / (c.Node.GPU.MemBandwidth() * c.P.HBMEff)
	t := ct
	if mt > t {
		t = mt
	}
	return t + float64(nLayers)*c.P.OverheadPerLayer + c.P.OverheadPerPass
}

// mixedRoofline applies the hybrid-batch efficiency discount when a
// pass genuinely mixes phases. It assumes Params that pass Validate,
// as DefaultParams do.
func (c *Model) mixedRoofline(flops, bytes, mfu float64, nLayers int, mixed bool) float64 {
	if mixed {
		eff := c.P.MixedBatchEff
		mfu *= eff
		bytes /= eff // equivalent to discounting achieved bandwidth
	}
	return c.roofline(flops, bytes, mfu, nLayers)
}

// Tensor-parallel costs -----------------------------------------------

// allReduceFactor converts payload bytes to effective ring traffic:
// 2(world-1)/world per all-reduce.
func allReduceFactor(world int) float64 {
	if world <= 1 {
		return 0
	}
	return 2 * float64(world-1) / float64(world)
}

// tpComm returns total all-reduce time across all layers for tokens
// activations: two all-reduces per transformer layer (paper §2.2.3).
func (c *Model) tpComm(world, tokens int) float64 {
	if world <= 1 || tokens == 0 {
		return 0
	}
	s := c.Spec
	perLayer := allReduceFactor(world) * s.ActivationBytes(tokens) / (c.Node.AllReduceGBps * 1e9)
	return float64(s.Layers) * (2*perLayer + 2*c.Node.CollectiveLatency)
}

// TPPrefill returns (compute, communication) time for a full-model
// prefill of batch b sharded over world GPUs: each layer costs 1/world
// of the FLOPs and weight/KV bytes plus two all-reduces of the
// activation; activations themselves are replicated on every rank.
func (c *Model) TPPrefill(world int, b PrefillBatch) (compute, comm float64) {
	if b.Tokens == 0 {
		return 0, 0
	}
	s := c.Spec
	w := float64(world)
	flops := c.prefillComputeFLOPs(b, s.Layers, true) / w
	bytes := s.WeightBytes()/w +
		c.P.ActIOFactor*float64(s.Layers)*s.ActivationBytes(b.Tokens) +
		float64(s.Layers)*s.KVBytesPerTokenLayer()*float64(b.Tokens)/w
	compute = c.roofline(flops, bytes, c.P.MFUPrefill, s.Layers)
	return compute, c.tpComm(world, b.Tokens)
}

// TPDecode returns (compute, communication) time for one decode step of
// the full model sharded over world GPUs. KV cache is sharded, so each
// rank reads 1/world of it.
func (c *Model) TPDecode(world, batch, kvTokens int) (compute, comm float64) {
	if batch == 0 {
		return 0, 0
	}
	s := c.Spec
	w := float64(world)
	flops := c.decodeComputeFLOPs(batch, kvTokens, s.Layers, true) / w
	bytes := s.WeightBytes()/w +
		float64(s.Layers)*s.KVBytesPerTokenLayer()*float64(kvTokens)/w +
		c.P.ActIOFactor*float64(s.Layers)*s.ActivationBytes(batch)
	compute = c.roofline(flops, bytes, c.P.MFUDecode, s.Layers)
	return compute, c.tpComm(world, batch)
}

// TPHybrid returns (compute, communication) time for a hybrid iteration
// (decode batch mixed with a prefill chunk) under tensor parallelism.
func (c *Model) TPHybrid(world, decodeBatch, kvTokens, chunkTokens, chunkCtx int) (compute, comm float64) {
	if decodeBatch == 0 && chunkTokens == 0 {
		return 0, 0
	}
	s := c.Spec
	w := float64(world)
	b := PrefillBatch{Seqs: 1, Tokens: chunkTokens,
		SumSqTokens: float64(chunkTokens)*float64(chunkTokens) + 2*float64(chunkTokens)*float64(chunkCtx)}
	flops := (c.prefillComputeFLOPs(b, s.Layers, false) +
		c.decodeComputeFLOPs(decodeBatch, kvTokens, s.Layers, true)) / w
	bytes := s.WeightBytes()/w +
		float64(s.Layers)*s.KVBytesPerTokenLayer()*float64(kvTokens+chunkCtx+chunkTokens)/w +
		c.P.ActIOFactor*float64(s.Layers)*s.ActivationBytes(decodeBatch+chunkTokens)
	mfu := (c.P.MFUPrefill + c.P.MFUDecode) / 2
	compute = c.mixedRoofline(flops, bytes, mfu, s.Layers, chunkTokens > 0 && decodeBatch > 0)
	return compute, c.tpComm(world, decodeBatch+chunkTokens)
}

// String summarizes the calibrated deployment.
func (c *Model) String() string {
	return fmt.Sprintf("costmodel(%s on %s)", c.Spec.Name, c.Node.Name)
}
