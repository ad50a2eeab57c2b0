package core

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/workload"
)

// BenchmarkEngineEndToEnd measures full TD-Pipe runs on the paper's
// largest configuration — the simulator's overall speed, which bounds
// how large a sweep the experiment harness can afford.
func BenchmarkEngineEndToEnd(b *testing.B) {
	b.ReportAllocs()
	reqs := workload.MustGenerate(workload.DefaultConfig(1000, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(hw.A100, model.Llama2_70B, 4)
		if _, err := Run(cfg, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStealerRebalance measures the per-decode-step balancing cost.
func BenchmarkStealerRebalance(b *testing.B) {
	b.ReportAllocs()
	s := NewStealer(4, true)
	s.Prime([]int{128, 128, 128, 128})
	batch := ids(0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := s.Rebalance(i%4, batch[:120+i%8])
		_ = out
	}
}

// BenchmarkUsageSim measures Algorithm 1's per-prefill bookkeeping.
func BenchmarkUsageSim(b *testing.B) {
	b.ReportAllocs()
	s := newUsageSim(32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateUsage(300, 400)
		if i%1000 == 0 {
			s.Reset()
		}
	}
}

// BenchmarkIntensityDecision measures Approach 3's intensity arithmetic
// over a realistic pending set: one to eight 2048-token prefill batches
// costed against a decode step, as a switch check with free memory sees
// them.
func BenchmarkIntensityDecision(b *testing.B) {
	b.ReportAllocs()
	cm, err := costmodel.New(hw.A100, model.Llama2_70B)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := model.Partition(model.Llama2_70B, 4)
	if err != nil {
		b.Fatal(err)
	}
	stages, err := costmodel.NewStageTable(cm, plan)
	if err != nil {
		b.Fatal(err)
	}
	x := NewIntensity(stages, 512)
	pending := make([]costmodel.PrefillBatch, 8)
	for i := range pending {
		pending[i] = costmodel.NewPrefillBatch([]int{512, 300, 700, 536})
	}
	decodeStep := stages.DecodeBottleneck(64, 64*600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := 100 + i%50
		si := x.Spatial(batch, 500, 200, stages.DecodeBottleneck(batch, batch*500))
		ti := x.Temporal(pending[:1+i%8], decodeStep, 4)
		_ = x.ShouldSwitch(si, ti)
	}
}

// BenchmarkSwitchCheck times one decode step's decode->prefill switch
// check on a paper-scale engine (Llama2-70B on four A100s) paused
// mid-decode with the given number of requests waiting for prefill.
// The check's cost should not grow with the queue.
func BenchmarkSwitchCheck(b *testing.B) {
	for _, waiting := range []int{100, 3000, 30000} {
		b.Run(fmt.Sprintf("waiting=%d", waiting), func(b *testing.B) {
			reqs := workload.MustGenerate(workload.DefaultConfig(waiting+4000, 3))
			e := midDecodeEngine(b, DefaultConfig(hw.A100, model.Llama2_70B, 4), reqs, waiting)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = e.shouldSwitchToPrefill(i % e.numSlots)
			}
		})
	}
}

// BenchmarkDeepQueueDecode runs the paper's offline setting at the
// end-to-end benchmark's offline-deep-queue scale: 30,000 requests
// queued at t=0 on Llama2-70B over four A100s, with the trained length
// predictor (trained before the timer starts). Nearly every event is a
// decode pass, so ns per decode token is core's per-token cost.
func BenchmarkDeepQueueDecode(b *testing.B) {
	pool := workload.MustGenerate(workload.DefaultConfig(30000, 1))
	reqs := workload.Sample(pool, 30000, 1001)
	train, _, _, err := workload.Split(pool, 0.6, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	clf, err := predictor.Train(train, predictor.DefaultTrainConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(hw.A100, model.Llama2_70B, 4)
	cfg.Predictor = clf
	cfg.RecordKV = true
	b.ReportAllocs()
	b.ResetTimer()
	decodeTokens := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, reqs)
		if err != nil {
			b.Fatal(err)
		}
		// Every request's first token, and the first token after each
		// recompute, comes from a prefill pass.
		rep := res.Report
		decodeTokens += rep.OutputTokens - rep.Requests - rep.Recomputes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decodeTokens), "ns/decode-token")
}
