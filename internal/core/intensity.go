package core

import "repro/internal/costmodel"

// Approach 3: spatial-temporal intensity comparison (§3.5, Fig. 10).
//
// Spatial intensity measures how efficiently the hardware runs if the
// decode phase continues: the profiled per-request rate at the current
// batch size relative to the rate at a saturating batch size ("Peak").
// Temporal intensity measures how efficiently the next cycle runs if we
// switch now: 1 minus the fraction of the cycle lost to the switch
// bubble. The engine switches to prefill when SI < TI.

// Intensity evaluates both intensities from the profiled stage times —
// the same way the real system derives them from on-device profiling.
type Intensity struct {
	stages    *costmodel.StageTable
	peakBatch int
}

// NewIntensity profiles the pipeline's stage times with peakBatch as
// the "sufficiently large batch size" for Peak.
func NewIntensity(stages *costmodel.StageTable, peakBatch int) *Intensity {
	return &Intensity{stages: stages, peakBatch: peakBatch}
}

// perRequestRate is the profiled reciprocal of average execution time
// per request at a batch size (Fig. 10 left), using the bottleneck
// stage since it paces the pipeline.
func (x *Intensity) perRequestRate(batch, avgCtx int) float64 {
	if batch <= 0 {
		return 0
	}
	return stepRate(batch, x.stages.DecodeBottleneck(batch, batch*avgCtx))
}

// stepRate is batch requests per decode step of t seconds, 0 for an
// empty batch or a non-positive step.
func stepRate(batch int, t float64) float64 {
	if batch <= 0 || t <= 0 {
		return 0
	}
	return float64(batch) / t
}

// Spatial returns Achieved/Peak for the current per-slot batch size and
// average context length, clamped to [0, 1]. step is the decode
// bottleneck at that batch, DecodeBottleneck(batch, batch·avgCtx),
// which the caller computes once for the temporal side too.
// feasiblePeak bounds the profiling batch: "peak achievable
// performance" means achievable within this deployment's KV capacity,
// so on fat-KV models the reference batch is the largest one memory can
// actually hold, not an abstract saturating size.
func (x *Intensity) Spatial(batch, avgCtx, feasiblePeak int, step float64) float64 {
	pb := x.peakBatch
	if feasiblePeak > 0 && feasiblePeak < pb {
		pb = feasiblePeak
	}
	if pb < 1 {
		pb = 1
	}
	peak := x.perRequestRate(pb, avgCtx)
	if peak <= 0 {
		return 0
	}
	si := stepRate(batch, step) / peak
	if si > 1 {
		si = 1
	}
	return si
}

// Temporal returns 1 - bubble/total for the pending prefill batches
// that could launch now. The bubble is the mismatch between the longest
// pending prefill and the current decode step; the total is the pending
// prefill work plus one decode step per pipeline batch plus the bubble
// (§3.5). With nothing to prefill it returns 0 — switching buys
// nothing.
func (x *Intensity) Temporal(pending []costmodel.PrefillBatch, decodeStep float64, slots int) float64 {
	if len(pending) == 0 {
		return 0
	}
	var longest, work float64
	for _, b := range pending {
		t := x.prefillCost(b)
		work += t
		if t > longest {
			longest = t
		}
	}
	return temporalIntensity(longest, work, decodeStep, slots)
}

// prefillCost is the pipeline-paced time of one pending prefill batch.
func (x *Intensity) prefillCost(b costmodel.PrefillBatch) float64 {
	return x.stages.PrefillBottleneck(b)
}

// temporalIntensity is Temporal's formula over a non-empty pending set
// already reduced to its longest batch time and its total work (batch
// times summed in launch order): the bubble is longest minus the decode
// step, the cycle is work plus one decode step per slot plus the bubble,
// and the result is 1 - bubble/cycle.
func temporalIntensity(longest, work, decodeStep float64, slots int) float64 {
	bubble := longest - decodeStep
	if bubble < 0 {
		bubble = 0
	}
	total := work + (float64(slots)*decodeStep + bubble)
	if total <= 0 {
		return 0
	}
	return 1 - bubble/total
}

// ShouldSwitch applies the §3.5 decision rule.
func (x *Intensity) ShouldSwitch(si, ti float64) bool { return si < ti }
