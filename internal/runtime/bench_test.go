package runtime

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// BenchmarkPipelinePass times one decode pass through a 4-stage A100
// pipeline with four passes in flight, TD-Pipe's steady decode phase:
// each completion submits its batch's next step, and busy time is
// streamed as the engine does. ns/op is the simulator's cost of one
// pass: submission, stage reservations, kernel events and completion.
// events/pass reports the kernel events a pass costs.
func BenchmarkPipelinePass(b *testing.B) {
	const world, batch, kv = 4, 64, 64 * 600
	eng := sim.NewEngine()
	c, err := NewCluster(eng, hw.A100, model.Llama2_70B, world)
	if err != nil {
		b.Fatal(err)
	}
	c.Rec = *metrics.NewStreamingRecorder(world)
	left := b.N
	var done func(PassResult)
	done = func(r PassResult) {
		c.Rec.Fold(float64(r.End))
		if left > 0 {
			left--
			c.SubmitDecode(batch, kv, r.End, done)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < world && left > 0; i++ {
		left--
		c.SubmitDecode(batch, kv, 0, done)
	}
	eng.Run()
	b.ReportMetric(float64(eng.Steps())/float64(b.N), "events/pass")
}
