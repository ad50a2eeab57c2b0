package costmodel

import "repro/internal/model"

// The reference derivation of the pipeline stage times: each call
// recomputes every operand from the node, the model, the calibration
// and the plan. It is the code the runtime ran before StageTable,
// kept verbatim so TestStageTableMatchesReference can prove the table
// bit-identical to it.

// PrefillStage returns the time for stage st of plan to process prefill
// batch b.
func (c *Model) PrefillStage(plan model.PipelinePlan, st int, b PrefillBatch) float64 {
	if b.Tokens == 0 {
		return 0
	}
	stage := plan.Stages[st]
	flops := c.prefillComputeFLOPs(b, stage.Layers, stage.HasHead)
	bytes := c.prefillMemBytes(b, plan.StageWeightBytes(st), stage.Layers)
	return c.roofline(flops, bytes, c.P.MFUPrefill, stage.Layers)
}

// ChunkedPrefillStage returns the time for stage st to process a prefill
// chunk of chunkTokens belonging to a request with ctxTokens already
// cached. The chunk re-reads the cached KV — the "repeated KV cache
// loading overhead" of chunked prefill the paper calls out (§1, §2.3).
func (c *Model) ChunkedPrefillStage(plan model.PipelinePlan, st int, chunkTokens, ctxTokens int) float64 {
	if chunkTokens == 0 {
		return 0
	}
	stage := plan.Stages[st]
	b := PrefillBatch{Seqs: 1, Tokens: chunkTokens,
		SumSqTokens: float64(chunkTokens)*float64(chunkTokens) + 2*float64(chunkTokens)*float64(ctxTokens)}
	flops := c.prefillComputeFLOPs(b, stage.Layers, stage.HasHead)
	bytes := c.prefillMemBytes(b, plan.StageWeightBytes(st), stage.Layers)
	bytes += float64(stage.Layers) * c.Spec.KVBytesPerTokenLayer() * float64(ctxTokens) // KV reload
	return c.roofline(flops, bytes, c.P.MFUPrefill, stage.Layers)
}

// DecodeStage returns the time for stage st to run one decode step over
// batch requests with kvTokens total cached context.
func (c *Model) DecodeStage(plan model.PipelinePlan, st int, batch, kvTokens int) float64 {
	if batch == 0 {
		return 0
	}
	stage := plan.Stages[st]
	flops := c.decodeComputeFLOPs(batch, kvTokens, stage.Layers, stage.HasHead)
	bytes := c.decodeMemBytes(batch, kvTokens, plan.StageWeightBytes(st), stage.Layers)
	return c.roofline(flops, bytes, c.P.MFUDecode, stage.Layers)
}

// HybridStage returns the time for stage st to run one hybrid-batch
// iteration: decodeBatch decode tokens (kvTokens context) mixed with a
// prefill chunk of chunkTokens (chunkCtx already cached). Used by the
// PP+HB and TP+HB baselines.
func (c *Model) HybridStage(plan model.PipelinePlan, st int, decodeBatch, kvTokens, chunkTokens, chunkCtx int) float64 {
	if decodeBatch == 0 && chunkTokens == 0 {
		return 0
	}
	stage := plan.Stages[st]
	b := PrefillBatch{Seqs: 1, Tokens: chunkTokens,
		SumSqTokens: float64(chunkTokens)*float64(chunkTokens) + 2*float64(chunkTokens)*float64(chunkCtx)}
	if chunkTokens == 0 {
		b = PrefillBatch{}
	}
	flops := c.prefillComputeFLOPs(b, stage.Layers, false) +
		c.decodeComputeFLOPs(decodeBatch, kvTokens, stage.Layers, stage.HasHead)
	bytes := float64(stage.Layers)*c.Spec.KVBytesPerTokenLayer()*float64(kvTokens+chunkCtx+chunkTokens) +
		plan.StageWeightBytes(st) +
		c.P.ActIOFactor*float64(stage.Layers)*c.Spec.ActivationBytes(decodeBatch+chunkTokens)
	// Mixed batches run at an intermediate compute efficiency, further
	// discounted by the sliced-kernel penalty.
	mfu := (c.P.MFUPrefill + c.P.MFUDecode) / 2
	return c.mixedRoofline(flops, bytes, mfu, stage.Layers, chunkTokens > 0 && decodeBatch > 0)
}

// DecodeBottleneck returns the slowest per-stage time of one decode
// step, which governs pipeline throughput when all stages are busy.
func (c *Model) DecodeBottleneck(plan model.PipelinePlan, batch, kvTokens int) float64 {
	var max float64
	for st := range plan.Stages {
		if t := c.DecodeStage(plan, st, batch, kvTokens); t > max {
			max = t
		}
	}
	return max
}

// PrefillBottleneck returns the slowest per-stage time of a prefill
// batch across the pipeline.
func (c *Model) PrefillBottleneck(plan model.PipelinePlan, b PrefillBatch) float64 {
	var max float64
	for st := range plan.Stages {
		if t := c.PrefillStage(plan, st, b); t > max {
			max = t
		}
	}
	return max
}

// P2PActivation returns the stage-to-stage transfer time for a
// microbatch of tokens tokens.
func (c *Model) P2PActivation(tokens int) float64 {
	return c.Node.P2PTime(c.Spec.ActivationBytes(tokens))
}

// prefillMemBytes is HBM traffic for a prefill pass: weights once,
// activations ActIOFactor times per layer, fresh KV written once.
func (c *Model) prefillMemBytes(b PrefillBatch, weightBytes float64, nLayers int) float64 {
	s := c.Spec
	act := c.P.ActIOFactor * float64(nLayers) * s.ActivationBytes(b.Tokens)
	kvWrite := float64(nLayers) * s.KVBytesPerTokenLayer() * float64(b.Tokens)
	return weightBytes + act + kvWrite
}

// decodeMemBytes is HBM traffic for one decode step: weights once, the
// whole resident KV for these layers, activations.
func (c *Model) decodeMemBytes(batch, kvTokens int, weightBytes float64, nLayers int) float64 {
	s := c.Spec
	kvRead := float64(nLayers) * s.KVBytesPerTokenLayer() * float64(kvTokens)
	act := c.P.ActIOFactor * float64(nLayers) * s.ActivationBytes(batch)
	return weightBytes + kvRead + act
}
