package costmodel

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
)

// The cost model sits on every scheduling decision's hot path; these
// benchmarks track its per-call cost. Results go to sink so the
// compiler cannot drop the inlined arithmetic.

var sink float64

func benchModel(b *testing.B) (*Model, *StageTable) {
	b.Helper()
	cm, err := New(hw.A100, model.Llama2_70B)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := model.Partition(model.Llama2_70B, 4)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := NewStageTable(cm, plan)
	if err != nil {
		b.Fatal(err)
	}
	return cm, tab
}

func BenchmarkPrefillStage(b *testing.B) {
	b.ReportAllocs()
	_, tab := benchModel(b)
	batch := NewPrefillBatch([]int{512, 256, 1024, 300})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = tab.PrefillStage(1, batch)
	}
}

func BenchmarkDecodeStage(b *testing.B) {
	b.ReportAllocs()
	_, tab := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = tab.DecodeStage(2, 200, 200*500)
	}
}

func BenchmarkDecodeBottleneck(b *testing.B) {
	b.ReportAllocs()
	_, tab := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = tab.DecodeBottleneck(200, 200*500)
	}
}

func BenchmarkTPDecode(b *testing.B) {
	b.ReportAllocs()
	cm, _ := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = cm.TPDecode(4, 400, 400*500)
	}
}
