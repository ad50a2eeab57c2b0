package costmodel

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/model"
)

// Property: on every node × model plan of Tables 1–2 (plus Tiny) at
// worlds 1–4, every StageTable time equals the reference derivation's
// bit for bit, over random batches, KV tokens, prefill chunks, chunk
// contexts and prefill batches.
func TestStageTableMatchesReference(t *testing.T) {
	_, models, plans := goldenPlans(t)
	tabs := make([]*StageTable, len(plans))
	for i := range plans {
		tabs[i] = mustTable(t, models[i], plans[i])
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	prop := func(pick uint8, batch, kv, chunk, ctx uint32, lens [3]uint16) bool {
		i := int(pick) % len(plans)
		c, plan, tab := models[i], plans[i], tabs[i]
		// Zero is an edge of every axis; hit it often.
		b, k, ch, cx := int(batch%600), int(kv%400000), int(chunk%2048), int(ctx%8192)
		if batch%7 == 0 {
			b = 0
		}
		if chunk%5 == 0 {
			ch = 0
		}
		var pl []int
		for _, l := range lens {
			if l%4 != 0 {
				pl = append(pl, int(l%4096))
			}
		}
		pb := NewPrefillBatch(pl)
		for st := range plan.Stages {
			if !same(tab.PrefillStage(st, pb), c.PrefillStage(plan, st, pb)) ||
				!same(tab.DecodeStage(st, b, k), c.DecodeStage(plan, st, b, k)) ||
				!same(tab.HybridStage(st, b, k, ch, cx), c.HybridStage(plan, st, b, k, ch, cx)) {
				return false
			}
		}
		return same(tab.DecodeBottleneck(b, k), c.DecodeBottleneck(plan, b, k)) &&
			same(tab.PrefillBottleneck(pb), c.PrefillBottleneck(plan, pb)) &&
			same(tab.P2PActivation(b+ch), c.P2PActivation(b+ch))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: PassFloor lower-bounds every pass, which lets a fleet
// router leave a replica unadvanced until its earliest possible finish
// (core.Engine.FinishBound). On every plan of Tables 1–2 (plus Tiny) at
// worlds 1–4, a decode stage's time never falls as its batch or KV
// tokens grow, every prefill stage of a nonempty batch takes at least
// DecodeStage(st, 1, 0), and PassFloor is the sum of those floors.
func TestPassFloorBoundsEveryStage(t *testing.T) {
	_, models, plans := goldenPlans(t)
	tabs := make([]*StageTable, len(plans))
	for i := range plans {
		tabs[i] = mustTable(t, models[i], plans[i])
		var sum float64
		for st := range plans[i].Stages {
			sum += tabs[i].DecodeStage(st, 1, 0)
		}
		if got := tabs[i].PassFloor(); got != sum || !(got > 0) {
			t.Errorf("plan %d: PassFloor %v, sum of batch-1 decode stages %v", i, got, sum)
		}
	}
	prop := func(pick uint8, batch, kv, dBatch, dKV uint32, lens [3]uint16) bool {
		i := int(pick) % len(plans)
		tab := tabs[i]
		b, k := 1+int(batch%600), int(kv%400000)
		b2, k2 := b+int(dBatch%64), k+int(dKV%20000)
		if dKV%3 == 0 {
			k2 = k // grow one axis alone, too
		}
		pl := []int{1 + int(lens[0]%4096)}
		for _, l := range lens[1:] {
			if l%4 != 0 {
				pl = append(pl, 1+int(l%4096))
			}
		}
		pb := NewPrefillBatch(pl)
		for st := range plans[i].Stages {
			floor := tab.DecodeStage(st, 1, 0)
			if tab.DecodeStage(st, b2, k2) < tab.DecodeStage(st, b, k) ||
				tab.DecodeStage(st, b, k) < floor ||
				tab.PrefillStage(st, pb) < floor {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Stages of one class share a time, and SameAs names the class's first
// stage: at world 4 the two middle stages of an evenly split model are
// one class, while the embedding and head stages stand alone.
func TestStageTableClasses(t *testing.T) {
	for _, tc := range []struct {
		spec  model.Spec
		world int
		want  []int
	}{
		{model.Llama2_70B, 1, []int{0}},
		{model.Llama2_70B, 2, []int{0, 1}},
		{model.Llama2_70B, 4, []int{0, 1, 1, 3}},
		{model.Qwen2_5_32B, 3, []int{0, 1, 2}}, // 22, 21, 21 layers
		{model.Tiny, 4, []int{0, 1, 1, 3}},
	} {
		c := mustNew(t, hw.A100, tc.spec)
		tab := mustTable(t, c, mustPlan(t, tc.spec, tc.world))
		for st, want := range tc.want {
			if got := tab.SameAs(st); got != want {
				t.Errorf("%s/w%d: SameAs(%d) = %d, want %d", tc.spec.Name, tc.world, st, got, want)
			}
			if a, b := tab.DecodeStage(st, 64, 64*600), tab.DecodeStage(want, 64, 64*600); a != b {
				t.Errorf("%s/w%d: stage %d decode %v != its class's %v", tc.spec.Name, tc.world, st, a, b)
			}
		}
	}
}

// NewStageTable rejects calibration constants no roofline can use with
// an error naming the field, instead of clamping them pass by pass, and
// a plan of another model.
func TestNewStageTableRejectsBadParams(t *testing.T) {
	plan := mustPlan(t, model.Tiny, 2)
	for _, tc := range []struct {
		field string
		set   func(*Params)
	}{
		{"MFUPrefill", func(p *Params) { p.MFUPrefill = 0 }},
		{"MFUDecode", func(p *Params) { p.MFUDecode = -0.5 }},
		{"HBMEff", func(p *Params) { p.HBMEff = math.NaN() }},
		{"MixedBatchEff", func(p *Params) { p.MixedBatchEff = 0 }},
		{"MixedBatchEff", func(p *Params) { p.MixedBatchEff = 1.2 }},
		{"OverheadPerLayer", func(p *Params) { p.OverheadPerLayer = -1e-6 }},
		{"OverheadPerPass", func(p *Params) { p.OverheadPerPass = -1e-6 }},
	} {
		c := mustNew(t, hw.L20, model.Tiny)
		tc.set(&c.P)
		_, err := NewStageTable(c, plan)
		if !errors.Is(err, ErrParams) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want ErrParams naming the field", tc.field, err)
		}
	}
	c := mustNew(t, hw.L20, model.Tiny)
	c.P.MixedBatchEff = 1 // the closed end of (0, 1]
	if _, err := NewStageTable(c, plan); err != nil {
		t.Errorf("MixedBatchEff 1 rejected: %v", err)
	}
	if _, err := NewStageTable(c, mustPlan(t, model.Llama2_13B, 2)); err == nil {
		t.Error("plan of another model accepted")
	}
}
