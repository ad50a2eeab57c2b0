package fleet

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// BenchmarkDispatch measures pure dispatch cost per policy over a
// 5,000-request trace and 8 replicas.
func BenchmarkDispatch(b *testing.B) {
	b.ReportAllocs()
	reqs := workload.MustGenerate(workload.DefaultConfig(5000, 1))
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := New(name, Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Dispatch(p, 8, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnlineFleet measures the online serving path — shared-clock
// co-simulation, per-arrival routing with live load snapshots, and the
// record merge — on an arrival-stamped 5,000-request trace across 4
// replicas, alongside the offline benchmarks so future PRs can track
// online-path cost.
func BenchmarkOnlineFleet(b *testing.B) {
	b.ReportAllocs()
	reqs := workload.StampArrivals(smallTrace(5000, 1), workload.Poisson{Rate: 200}, 7)
	for i := 0; i < b.N; i++ {
		p, err := New(PredictedCost, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunOnlineWorkers(fastConfig(2), 4, p, reqs, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Report.OutputThroughput(), "tok/s")
			b.ReportMetric(res.Report.Latency.TTFTP99, "ttft-p99-s")
		}
	}
}

// BenchmarkOnlineFleetInactivePolicy is BenchmarkOnlineFleet with an
// attached-but-inactive policy stack: the elastic entry point must
// delegate straight to the plain online router, so this benchmark
// tracking BenchmarkOnlineFleet proves the hot path is unchanged.
func BenchmarkOnlineFleetInactivePolicy(b *testing.B) {
	b.ReportAllocs()
	reqs := workload.StampArrivals(smallTrace(5000, 1), workload.Poisson{Rate: 200}, 7)
	for i := 0; i < b.N; i++ {
		p, err := New(PredictedCost, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunOnlineElasticWorkers(fastConfig(2), 4, p, reqs, &policy.Stack{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Report.OutputThroughput(), "tok/s")
			b.ReportMetric(res.Report.Latency.TTFTP99, "ttft-p99-s")
		}
	}
}

// BenchmarkOnlineFleetParallel measures the conservative-parallel
// online path on a 64-replica fleet, sweeping the worker count. The
// workers=1 leg is the sequential baseline (identical algorithm, no
// goroutines); higher legs shard the fleet across cores while staying
// byte-identical. steps/s reports total simulator events processed
// per wall-clock second.
func BenchmarkOnlineFleetParallel(b *testing.B) {
	reqs := workload.StampArrivals(workload.MustGenerate(workload.DefaultConfig(4000, 1)), workload.Poisson{Rate: 400}, 7)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var steps uint64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				p, err := New(PredictedCost, Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunOnlineWorkers(fastConfig(2), 64, p, reqs, workers)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(steps)/elapsed, "steps/s")
			}
		})
	}
}

// BenchmarkMilestoneFleet is the ROADMAP item-2 record run: 1000
// replicas serving a 1M-request online trace. It takes tens of
// seconds, so it only runs when TDPIPE_MILESTONE is set:
//
//	TDPIPE_MILESTONE=1 go test ./internal/fleet -bench MilestoneFleet -benchtime 1x
func BenchmarkMilestoneFleet(b *testing.B) {
	if os.Getenv("TDPIPE_MILESTONE") == "" {
		b.Skip("set TDPIPE_MILESTONE=1 to run the 1000-replica / 1M-request record benchmark")
	}
	reqs := workload.StampArrivals(smallTrace(1_000_000, 1), workload.Poisson{Rate: 60000}, 7)
	for i := 0; i < b.N; i++ {
		p, err := New(PredictedCost, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := RunOnlineWorkers(fastConfig(2), 1000, p, reqs, WorkersAuto)
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		b.ReportMetric(elapsed, "wall-s")
		b.ReportMetric(float64(res.Steps)/elapsed, "steps/s")
	}
}

// BenchmarkRun measures a full fleet run (dispatch + N concurrent
// engine replicas + merge) on the fast test deployment, scaling the
// replica count.
func BenchmarkRun(b *testing.B) {
	b.ReportAllocs()
	reqs := smallTrace(600, 1)
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := New(PredictedCost, Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := Run(fastConfig(2), replicas, p, reqs)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Report.OutputThroughput(), "tok/s")
				}
			}
		})
	}
}
