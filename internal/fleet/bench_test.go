package fleet

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/workload"
)

// BenchmarkRouteArrival times the router's share of one arrival on a
// pool of live engines at 8, 64 and 1,000 replicas: the pick, the
// booking of the routed request and its retirement, as the engine's
// finish hook would retire it, so the load counters stay stationary
// across iterations. The engines ran a trace first: a plain Poisson one
// for predicted-cost, a shared-prefix one for prefix-affinity, whose
// probes then read warm prefix chains. Engine work (Submit) is not
// included.
func BenchmarkRouteArrival(b *testing.B) {
	for _, name := range []string{PredictedCost, PrefixAffinity} {
		for _, n := range []int{8, 64, 1000} {
			b.Run(fmt.Sprintf("%s/replicas=%d", name, n), func(b *testing.B) {
				reqs := onlineTrace(max(200, 2*n), 41, 8000)
				if name == PrefixAffinity {
					reqs = prefixOnlineTrace(max(200, 2*n), 41, 8000, 8, 512)
				}
				p := newPool("", n, mustPolicy(b, name, Options{}))
				ro := drivenRouter(b, reqs, nil, p)
				// Outstanding work of unequal cost on every replica, so
				// the pick ranks real loads.
				for i := 0; i < 3*n; i++ {
					k := i % n
					ro.record(p, reqs[i%len(reqs)], i%len(reqs), k, len(p.entries[k]))
				}
				origin := len(reqs) - 1
				r := reqs[origin]
				now := float64(ro.ctl.Now())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k, ok := ro.route(p, r, now)
					if !ok || k < 0 {
						b.Fatalf("no pick (err %v)", ro.err)
					}
					local := len(p.entries[k])
					ro.record(p, r, origin, k, local)
					ro.finished(p, k, local)
					p.entries[k] = p.entries[k][:local]
					p.shards[k].Origin = p.shards[k].Origin[:local]
				}
			})
		}
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
		res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: p})
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
		res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: p, Stack: &policy.Stack{}})
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
// online path on a 64-replica fleet, sweeping the worker count (each
// leg sets GOMAXPROCS to it), once under predicted-cost, which runs on
// a lazy fabric, and once under prefix-affinity, whose probe-reading
// pick keeps the fabric eager. The workers=1 legs are the sequential
// baseline (identical algorithm, no goroutines); higher legs shard the
// fleet's build, finalize and tail across cores while staying
// byte-identical. steps/s reports total simulator events processed
// per wall-clock second. It is the kernel's rate, not served work: a
// pipeline pass is one event however many stages it has, so compare
// builds that count events differently by ns/op.
func BenchmarkOnlineFleetParallel(b *testing.B) {
	reqs := workload.StampArrivals(workload.MustGenerate(workload.DefaultConfig(4000, 1)), workload.Poisson{Rate: 400}, 7)
	sweep := func(b *testing.B, name, policy string, workers int) {
		b.Run(name, func(b *testing.B) {
			setProcs(b, workers)
			b.ReportAllocs()
			var steps uint64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				p, err := New(policy, Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 64, Policy: p})
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
	for _, workers := range []int{1, 2, 4, 8} {
		sweep(b, fmt.Sprintf("workers=%d", workers), PredictedCost, workers)
	}
	for _, workers := range []int{1, 2, 4} {
		sweep(b, fmt.Sprintf("%s/workers=%d", PrefixAffinity, workers), PrefixAffinity, workers)
	}
}

// BenchmarkFleetScaling reports the kernel's wall time per event at 20,
// 100 and 1,000 replicas under equal per-replica load: 10 requests per
// replica arriving as a Poisson stream of one request per replica per
// second, routed by predicted-cost on GOMAXPROCS workers (Llama-2-70B on four
// A100s, the end-to-end benchmark's deployment). Each replica does the
// same work at every size, so a ns/event that grows with the fleet is
// memory locality, not algorithm.
func BenchmarkFleetScaling(b *testing.B) {
	cfg := core.DefaultConfig(hw.A100, model.Llama2_70B, 4)
	for _, n := range []int{20, 100, 1000} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			reqs := workload.StampArrivals(workload.MustGenerate(workload.DefaultConfig(10*n, 1)), workload.Poisson{Rate: float64(n)}, 7)
			var steps uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				p := mustPolicy(b, PredictedCost, Options{})
				start := time.Now()
				res, err := Serve(cfg, reqs, ServeConfig{Replicas: n, Policy: p})
				elapsed += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(steps), "ns/event")
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
		res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 1000, Policy: p})
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		b.ReportMetric(elapsed, "wall-s")
		b.ReportMetric(float64(res.Steps)/elapsed, "steps/s")
	}
}

// BenchmarkRun measures a full closed-loop fleet run (routing + N
// engine replicas on a sequential fabric + merge) on the fast test
// deployment, scaling the replica count.
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
				res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: replicas, Policy: p})
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
