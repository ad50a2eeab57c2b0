package core

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/model"
)

func newIntensity(t *testing.T) *Intensity {
	t.Helper()
	cm, err := costmodel.New(hw.A100, model.Llama2_70B)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := model.Partition(model.Llama2_70B, 4)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := costmodel.NewStageTable(cm, plan)
	if err != nil {
		t.Fatal(err)
	}
	return NewIntensity(stages, 512)
}

func TestSpatialIntensityRisesWithBatch(t *testing.T) {
	x := newIntensity(t)
	prev := 0.0
	for _, b := range []int{8, 32, 128, 512} {
		si := x.Spatial(b, 400, 0, x.stages.DecodeBottleneck(b, b*400))
		if si < prev {
			t.Errorf("SI(%d) = %v below SI of smaller batch %v", b, si, prev)
		}
		if si < 0 || si > 1 {
			t.Errorf("SI(%d) = %v out of range", b, si)
		}
		prev = si
	}
	if got := x.Spatial(512, 400, 0, x.stages.DecodeBottleneck(512, 512*400)); got != 1 {
		t.Errorf("SI at peak batch = %v, want 1", got)
	}
	if got := x.Spatial(0, 400, 0, x.stages.DecodeBottleneck(0, 0)); got != 0 {
		t.Errorf("SI(0) = %v", got)
	}
}

func TestTemporalIntensityNoPendingMeansNoSwitch(t *testing.T) {
	x := newIntensity(t)
	if got := x.Temporal(nil, 0.05, 4); got != 0 {
		t.Errorf("TI with no pending prefills = %v, want 0", got)
	}
}

func TestTemporalIntensityRisesWithPendingWork(t *testing.T) {
	x := newIntensity(t)
	one := []costmodel.PrefillBatch{costmodel.NewPrefillBatch([]int{2048})}
	many := []costmodel.PrefillBatch{
		costmodel.NewPrefillBatch([]int{2048}),
		costmodel.NewPrefillBatch([]int{2048}),
		costmodel.NewPrefillBatch([]int{2048}),
		costmodel.NewPrefillBatch([]int{2048}),
	}
	decodeStep := 0.01 // short decode step -> visible bubble
	tiOne := x.Temporal(one, decodeStep, 4)
	tiMany := x.Temporal(many, decodeStep, 4)
	if tiMany <= tiOne {
		t.Errorf("TI(many)=%v not above TI(one)=%v: more pending work amortizes the bubble", tiMany, tiOne)
	}
	if tiOne < 0 || tiOne > 1 || tiMany < 0 || tiMany > 1 {
		t.Errorf("TI out of range: %v %v", tiOne, tiMany)
	}
}

func TestTemporalIntensityBubbleAbsorbedByLongDecode(t *testing.T) {
	x := newIntensity(t)
	pending := []costmodel.PrefillBatch{costmodel.NewPrefillBatch([]int{2048})}
	longDecode := x.stages.PrefillBottleneck(pending[0]) * 2
	if got := x.Temporal(pending, longDecode, 4); got != 1 {
		t.Errorf("TI with decode longer than prefill = %v, want 1 (no bubble)", got)
	}
}

func TestShouldSwitchRule(t *testing.T) {
	x := newIntensity(t)
	if !x.ShouldSwitch(0.4, 0.9) {
		t.Error("SI < TI must switch")
	}
	if x.ShouldSwitch(0.9, 0.4) {
		t.Error("SI > TI must not switch")
	}
}

// The crossover dynamic of §3.5: early in the decode phase (large
// batches, no free memory) the engine must keep decoding; late (small
// batches, plenty of freed memory) it must switch.
func TestIntensityCrossover(t *testing.T) {
	x := newIntensity(t)
	pendingLate := []costmodel.PrefillBatch{
		costmodel.NewPrefillBatch([]int{2048}),
		costmodel.NewPrefillBatch([]int{2048}),
		costmodel.NewPrefillBatch([]int{2048}),
	}
	// Early: batch 400 per slot, memory full -> no pending prefills.
	stepEarly := x.stages.DecodeBottleneck(400, 400*500)
	siEarly := x.Spatial(400, 500, 400, stepEarly)
	tiEarly := x.Temporal(nil, stepEarly, 4)
	if x.ShouldSwitch(siEarly, tiEarly) {
		t.Errorf("switched early: SI=%v TI=%v", siEarly, tiEarly)
	}
	// Late: batch 24 per slot, lots of pending work.
	stepLate := x.stages.DecodeBottleneck(24, 24*700)
	siLate := x.Spatial(24, 700, 400, stepLate)
	tiLate := x.Temporal(pendingLate, stepLate, 4)
	if !x.ShouldSwitch(siLate, tiLate) {
		t.Errorf("did not switch late: SI=%v TI=%v", siLate, tiLate)
	}
}
