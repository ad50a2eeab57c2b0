// Package core implements the TD-Pipe centralized engine — the control
// plane of the hierarchy-controller structure (paper §3). It owns
// batching, memory accounting and phase switching, and drives the
// distributed runtime (package runtime) purely by submitting pipeline
// passes, mirroring Figure 7:
//
//   - temporally-disaggregated phases: the engine keeps the pipeline in
//     a single phase (prefill or decode) for long stretches (§3.1);
//   - Approach 1, AI-based greedy prefill: predicted output lengths +
//     simulated future KV usage decide when to stop prefilling
//     (Algorithm 1, §3.3);
//   - Approach 2, inter-batch work stealing: a sliding-window average
//     rebalances decode batches as requests finish (§3.4, Fig. 9);
//   - Approach 3, spatial-temporal intensity comparison: profiled
//     decode intensity vs. projected switch bubble decides when to
//     return to prefill (§3.5, Fig. 10).
package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// LenPredictor estimates a request's output length. The production
// implementation is predictor.Classifier; tests also use oracles and
// constants.
type LenPredictor interface {
	PredictLen(r workload.Request) int
}

// OraclePredictor returns the true output length — the upper bound for
// ablating prediction quality.
type OraclePredictor struct{}

// PredictLen returns the request's actual output length.
func (OraclePredictor) PredictLen(r workload.Request) int { return r.OutputLen }

// ConstPredictor always predicts a fixed length.
type ConstPredictor int

// PredictLen returns the constant.
func (c ConstPredictor) PredictLen(workload.Request) int { return int(c) }

// Config parameterizes a TD-Pipe engine.
type Config struct {
	// Node is the hardware; World GPUs are used as pipeline stages.
	Node  hw.Node
	Spec  model.Spec
	World int

	// Predictor supplies output-length estimates for Approach 1.
	Predictor LenPredictor

	// MemUtilization is the fraction of device memory usable
	// (vLLM's gpu_memory_utilization; default 0.90).
	MemUtilization float64
	// ReserveGB is per-GPU memory withheld for activations, CUDA
	// context and NCCL workspace, as vLLM's memory profiler would.
	ReserveGB float64
	// BlockSize is the KV block granularity in tokens.
	BlockSize int
	// MaxPrefillTokens caps tokens per prefill batch.
	MaxPrefillTokens int

	// PeakProfileBatch is the "sufficiently large batch size" used to
	// profile Peak for spatial intensity (§3.5).
	PeakProfileBatch int

	// FixedPrefillSwitchRatio, when > 0, replaces Approach 1 with the
	// Fig.-13 ablation hyperparameter: switch to decode once this
	// fraction of KV blocks is occupied.
	FixedPrefillSwitchRatio float64
	// FixedDecodeSwitchRatio, when > 0, replaces Approach 3 with the
	// Fig.-16 ablation hyperparameter: switch to prefill once this
	// fraction of the decode phase's requests have finished.
	FixedDecodeSwitchRatio float64
	// DisableWorkStealing turns off Approach 2 (Fig.-15 "wo" bar);
	// the balanced split at phase entry is kept.
	DisableWorkStealing bool

	// DisablePrefixCache turns off shared-prefix KV reuse: every
	// request prefills its full prompt even on prefix-structured
	// traces (workload.StampPrefixes) — the no-sharing ablation.
	// Sharing is a no-op on unstructured traces either way, so the
	// default (enabled) reproduces all pre-prefix results exactly.
	DisablePrefixCache bool

	// RecordKV enables the Fig.-12 KV usage timeline.
	RecordKV bool

	// RecordBusy keeps every GPU busy interval and returns them in
	// Result.Rec, for utilization timelines (Fig. 2) and busy-interval
	// CSVs. Off by default: the engine then streams busy time into a
	// running per-GPU sum, folded at each pass completion, Result.Rec
	// is nil, and Report.MeanUtilization is the same value bit for bit.
	RecordBusy bool

	// SLO is the latency objective folded into the run's latency
	// digest (goodput accounting). The zero value disables it.
	SLO metrics.SLO

	// Slowdown stretches every pass's duration by this factor — the
	// straggler-replica model of the fault injector (1.0 and 0 both
	// mean nominal speed; 1.3 models a 30% slower node).
	Slowdown float64

	// CheckpointInterval, when > 0, snapshots the KV of every resident
	// request with output every this many virtual seconds, so a crash
	// can resume them from the checkpoint instead of re-prefilling
	// (fault-tolerance trade-off: each round stalls the GPUs for the
	// serialization time). Zero disables checkpointing entirely — no
	// extra events are scheduled, preserving bit-identical fault-free
	// runs.
	CheckpointInterval float64
}

// DefaultConfig returns paper-faithful settings for a node/model/world.
func DefaultConfig(node hw.Node, spec model.Spec, world int) Config {
	return Config{
		Node:             node,
		Spec:             spec,
		World:            world,
		Predictor:        OraclePredictor{},
		MemUtilization:   0.90,
		ReserveGB:        3,
		BlockSize:        16,
		MaxPrefillTokens: 2048,
		PeakProfileBatch: 512,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.World <= 0:
		return fmt.Errorf("core: world = %d", c.World)
	case c.Predictor == nil:
		return fmt.Errorf("core: nil predictor")
	case c.MemUtilization <= 0 || c.MemUtilization > 1:
		return fmt.Errorf("core: MemUtilization = %v", c.MemUtilization)
	case c.MaxPrefillTokens <= 0:
		return fmt.Errorf("core: MaxPrefillTokens = %d", c.MaxPrefillTokens)
	case c.PeakProfileBatch <= 0:
		return fmt.Errorf("core: PeakProfileBatch = %d", c.PeakProfileBatch)
	case c.Slowdown < 0:
		return fmt.Errorf("core: Slowdown = %v", c.Slowdown)
	case c.CheckpointInterval < 0:
		return fmt.Errorf("core: CheckpointInterval = %v", c.CheckpointInterval)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	return c.Spec.Validate()
}

// KVCapacityTokens computes the pipeline's KV capacity in tokens: each
// stage dedicates its memory (minus weights) to the KV slices of its
// own layers, and every resident token needs a slice on every stage, so
// the tightest stage bounds the whole pipeline.
func KVCapacityTokens(cfg Config) (int, error) {
	plan, err := model.Partition(cfg.Spec, cfg.World)
	if err != nil {
		return 0, err
	}
	capTokens := -1
	for st := range plan.Stages {
		avail := cfg.Node.GPU.MemBytes()*cfg.MemUtilization - cfg.ReserveGB*1e9 - plan.StageWeightBytes(st)
		if avail <= 0 {
			return 0, fmt.Errorf("core: OOM: stage %d weights %.1f GB exceed usable memory %.1f GB",
				st, plan.StageWeightBytes(st)/1e9, cfg.Node.GPU.MemBytes()*cfg.MemUtilization/1e9)
		}
		t := int(avail / plan.StageKVBytesPerToken(st))
		if capTokens < 0 || t < capTokens {
			capTokens = t
		}
	}
	if capTokens < cfg.MaxPrefillTokens {
		return 0, fmt.Errorf("core: OOM: KV capacity %d tokens cannot hold one prefill batch", capTokens)
	}
	return capTokens, nil
}
