package predictor

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkTrain measures classifier fitting over a paper-scale
// historical split; the paper calls its predictor overhead negligible
// (< 0.16% of processing time), so training must stay cheap.
func BenchmarkTrain(b *testing.B) { benchTrain(b, 5000) }

// BenchmarkTrainPool measures classifier fitting at the largest set-up
// tdpipe-bench pays: the 36,000-row training split of disagg-chaos's
// 60,000-request pool.
func BenchmarkTrainPool(b *testing.B) { benchTrain(b, 60000) }

// benchTrain times Train on the 60% training split of a pool of the
// given size.
func benchTrain(b *testing.B, pool int) {
	b.ReportAllocs()
	reqs := workload.MustGenerate(workload.DefaultConfig(pool, 1))
	train, _, _, err := workload.Split(reqs, 0.6, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(train, DefaultTrainConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictLen measures the per-request inference cost the
// engine pays at admission.
func BenchmarkPredictLen(b *testing.B) {
	b.ReportAllocs()
	reqs := workload.MustGenerate(workload.DefaultConfig(4000, 1))
	train, _, test, err := workload.Split(reqs, 0.6, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Train(train, DefaultTrainConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.PredictLen(test[i%len(test)])
	}
}
