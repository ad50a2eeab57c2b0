// Package offload models the offloading approach of paper §2.2.2
// (FlexGen-style): each GPU runs an independent inference instance,
// holds as many weights as fit, and streams the remainder plus the KV
// cache from host memory every decode step. All GPUs share the single
// CPU root complex (paper Fig. 4), so concurrent instances divide the
// host-link bandwidth — the contention that makes offloading
// "infeasible for high-throughput LLM inference" on multi-GPU nodes.
//
// The paper motivates against this design rather than benchmarking it;
// we implement it as an additional comparator so the §2.2.2 argument is
// checkable (cmd/tdpipe -exp offload).
//
// The comparator is offline-only by design: the FlexGen generation
// schedule (prefill a whole batch, decode it to completion) has no
// admission point for open-loop arrivals, so honoring ArrivalTime
// would require a different scheduler, not a parameter. Rather than
// silently treating a stamped trace as if everything were present at
// t=0 — which would overstate offloading throughput against the
// arrival-aware baselines — Run rejects traces carrying arrival times
// with an explicit error. Strip the stamps (or generate the trace
// without an arrival process) to compare against the offline regime.
package offload

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// Config parameterizes an offloading deployment.
type Config struct {
	Node hw.Node
	Spec model.Spec
	// GPUs is the number of independent offloading instances sharing
	// the root complex (data parallel over requests).
	GPUs int
	// HostLinkGBps is the aggregate CPU root-complex bandwidth all
	// instances contend for.
	HostLinkGBps float64
	// HostMemGB bounds the host-side KV pool per instance.
	HostMemGB float64
	// BatchPerGPU is the decode batch each instance runs (offloading
	// systems use very large batches to amortize transfers).
	BatchPerGPU int
	// MemUtilization and ReserveGB mirror the other schedulers.
	MemUtilization float64
	ReserveGB      float64
}

// DefaultConfig returns a FlexGen-like setup on the node.
func DefaultConfig(node hw.Node, spec model.Spec, gpus int) Config {
	return Config{
		Node:           node,
		Spec:           spec,
		GPUs:           gpus,
		HostLinkGBps:   25, // PCIe 4.0 x16 root complex, effective
		HostMemGB:      512,
		BatchPerGPU:    512,
		MemUtilization: 0.90,
		ReserveGB:      3,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.GPUs <= 0:
		return fmt.Errorf("offload: GPUs = %d", c.GPUs)
	case c.HostLinkGBps <= 0 || c.HostMemGB <= 0 || c.BatchPerGPU <= 0:
		return fmt.Errorf("offload: non-positive host parameters")
	case c.MemUtilization <= 0 || c.MemUtilization > 1:
		return fmt.Errorf("offload: MemUtilization = %v", c.MemUtilization)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	return c.Spec.Validate()
}

// Result is an offloading run outcome.
type Result struct {
	Report metrics.Report
	// ResidentFraction is the share of weights held in GPU memory.
	ResidentFraction float64
	// StreamedBytesPerStep is host traffic per decode step per GPU.
	StreamedBytesPerStep float64
}

// Run executes the trace across the offloading instances. Requests are
// split round-robin; each instance processes its share in fixed-size
// generations (prefill the batch, then decode it to completion), the
// FlexGen schedule. Host-link contention assumes all instances stream
// concurrently, which they do in steady state.
func Run(cfg Config, reqs []workload.Request) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workload.HasArrivals(reqs) {
		return nil, fmt.Errorf("offload: trace carries arrival times, but the offload comparator is offline-only " +
			"(the FlexGen generation schedule cannot admit open-loop arrivals); strip the stamps to compare offline")
	}
	cm, err := costmodel.New(cfg.Node, cfg.Spec)
	if err != nil {
		return nil, err
	}
	usable := cfg.Node.GPU.MemBytes()*cfg.MemUtilization - cfg.ReserveGB*1e9
	if usable <= 0 {
		return nil, fmt.Errorf("offload: no usable GPU memory")
	}
	weights := cfg.Spec.WeightBytes()
	resident := usable * 0.85 // leave room for activations and staging buffers
	if resident > weights {
		resident = weights
	}
	streamedWeights := weights - resident

	// Host KV capacity bounds the per-instance batch.
	hostKVTokens := cfg.HostMemGB * 1e9 / cfg.Spec.KVBytesPerToken()

	// Split requests round-robin over instances.
	shards := make([][]workload.Request, cfg.GPUs)
	for i, r := range reqs {
		shards[i%cfg.GPUs] = append(shards[i%cfg.GPUs], r)
	}

	rep := metrics.Report{
		Scheduler: "Offload",
		Node:      cfg.Node.Name,
		Model:     cfg.Spec.Name,
		GPUs:      cfg.GPUs,
		Requests:  len(reqs),
	}
	var maxElapsed, busy float64
	var streamed float64
	for _, shard := range shards {
		elapsed, gpuBusy := runInstance(cfg, cm, shard, streamedWeights, hostKVTokens, &streamed)
		if elapsed > maxElapsed {
			maxElapsed = elapsed
		}
		busy += gpuBusy
		for _, r := range shard {
			rep.InputTokens += r.InputLen
			rep.OutputTokens += r.OutputLen
		}
	}
	rep.Elapsed = maxElapsed
	if maxElapsed > 0 {
		rep.MeanUtilization = busy / (float64(cfg.GPUs) * maxElapsed)
		rep.BubbleRatio = 1 - rep.MeanUtilization
	}
	return &Result{
		Report:               rep,
		ResidentFraction:     resident / weights,
		StreamedBytesPerStep: streamed,
	}, nil
}

// runInstance processes one instance's requests in generations and
// returns (elapsed seconds, GPU-busy seconds). Host-link streaming is
// priced by the shared transfer formula: the aggregate root-complex
// bandwidth divided among the GPUs contending for it.
func runInstance(cfg Config, cm *costmodel.Model, shard []workload.Request,
	streamedWeights, hostKVTokens float64, streamedOut *float64) (elapsed, busy float64) {
	spec := cfg.Spec
	for start := 0; start < len(shard); start += cfg.BatchPerGPU {
		end := start + cfg.BatchPerGPU
		if end > len(shard) {
			end = len(shard)
		}
		gen := shard[start:end]

		// Prefill the generation: weights stream once per pass.
		var lens []int
		maxOut := 0
		for _, r := range gen {
			lens = append(lens, r.InputLen)
			if r.OutputLen > maxOut {
				maxOut = r.OutputLen
			}
		}
		b := costmodel.NewPrefillBatch(lens)
		comp, _ := cm.TPPrefill(1, b)
		xfer := costmodel.TransferTime(streamedWeights, cfg.HostLinkGBps, cfg.GPUs, 0)
		step := comp
		if xfer > step {
			step = xfer
		}
		elapsed += step
		busy += comp

		// Decode steps: every live request advances one token; the
		// step streams the missing weights plus the batch's whole KV
		// (FlexGen keeps KV host-side).
		live := len(gen)
		for tok := 1; tok < maxOut && live > 0; tok++ {
			live = 0
			stepKV := 0
			for _, r := range gen {
				if r.OutputLen > tok {
					live++
					ctx := r.InputLen + tok
					stepKV += ctx
				}
			}
			if live == 0 {
				break
			}
			if float64(stepKV) > hostKVTokens {
				stepKV = int(hostKVTokens)
			}
			comp, _ := cm.TPDecode(1, live, stepKV)
			hostBytes := streamedWeights + float64(stepKV)*spec.KVBytesPerToken()
			xfer := costmodel.TransferTime(hostBytes, cfg.HostLinkGBps, cfg.GPUs, 0)
			step := comp
			if xfer > step {
				step = xfer
			}
			elapsed += step
			busy += comp
			*streamedOut = hostBytes
		}
	}
	return elapsed, busy
}
