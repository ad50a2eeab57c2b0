package fleet

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

// fastConfig mirrors the core test configuration: Tiny model on the
// L20 node, completing in milliseconds of wall time per replica.
func fastConfig(world int) core.Config {
	cfg := core.DefaultConfig(hw.L20, model.Tiny, world)
	cfg.ReserveGB = 0
	cfg.MaxPrefillTokens = 512
	cfg.PeakProfileBatch = 128
	return cfg
}

func smallTrace(n int, seed int64) []workload.Request {
	cfg := workload.DefaultConfig(n, seed)
	cfg.MaxInputLen = 255
	cfg.MaxOutputLen = 128
	cfg.InputLogMean = 4.0
	return workload.MustGenerate(cfg)
}

func mustPolicy(t testing.TB, name string, opts Options) Policy {
	t.Helper()
	p, err := New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// setProcs sets GOMAXPROCS to n until t ends. Serve gives a colocated
// fleet one worker per GOMAXPROCS, so tests force a worker count
// through it.
func setProcs(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{RoundRobin, Random, LeastWork, PredictedCost} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("policy %q not registered (have %v)", want, names)
		}
	}
	if _, err := New("no-such-policy", Options{}); err == nil {
		t.Error("unknown policy accepted")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

// serveClosed serves a closed-loop trace on replicas copies of the fast
// deployment under p.
func serveClosed(t *testing.T, p Policy, replicas int, reqs []workload.Request) *Result {
	t.Helper()
	res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: replicas, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every policy must dispatch each request of a closed-loop trace exactly
// once, in trace order within each replica, and each replica must
// complete exactly its share.
func TestDispatchExactlyOnce(t *testing.T) {
	reqs := smallTrace(500, 2)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			res := serveClosed(t, mustPolicy(t, name, Options{Seed: 7}), 4, reqs)
			if err := res.CheckConservation(len(reqs)); err != nil {
				t.Fatal(err)
			}
			for ri, sh := range res.Shards {
				for i := 1; i < len(sh.Origin); i++ {
					if sh.Origin[i] <= sh.Origin[i-1] {
						t.Fatalf("replica %d: origins out of order (%d after %d)", ri, sh.Origin[i], sh.Origin[i-1])
					}
				}
			}
		})
	}
}

// A fresh policy with the same seed must dispatch a closed-loop trace
// identically.
func TestDispatchDeterministic(t *testing.T) {
	reqs := smallTrace(300, 5)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a := serveClosed(t, mustPolicy(t, name, Options{Seed: 42}), 4, reqs).Shards
			b := serveClosed(t, mustPolicy(t, name, Options{Seed: 42}), 4, reqs).Shards
			for i := range a {
				if len(a[i].Origin) != len(b[i].Origin) {
					t.Fatalf("replica %d: %d vs %d requests", i, len(a[i].Origin), len(b[i].Origin))
				}
				for j := range a[i].Origin {
					if a[i].Origin[j] != b[i].Origin[j] {
						t.Fatalf("replica %d position %d: origin %d vs %d", i, j, a[i].Origin[j], b[i].Origin[j])
					}
				}
			}
		})
	}
}

func TestRoundRobinShape(t *testing.T) {
	res := serveClosed(t, mustPolicy(t, RoundRobin, Options{}), 4, smallTrace(10, 1))
	for ri, sh := range res.Shards {
		for i, o := range sh.Origin {
			if o != ri+4*i {
				t.Errorf("replica %d: origin[%d] = %d, want %d", ri, i, o, ri+4*i)
			}
		}
	}
}

// Greedy argmin dispatch of a closed-loop trace bounds the load spread
// by the largest single request cost: when a replica is picked it is
// the least loaded.
func TestGreedyPoliciesBoundLoadSpread(t *testing.T) {
	reqs := smallTrace(800, 3)
	for _, name := range []string{LeastWork, PredictedCost} {
		t.Run(name, func(t *testing.T) {
			p := mustPolicy(t, name, Options{})
			var maxCost float64
			for _, r := range reqs {
				if c := p.Cost(r); c > maxCost {
					maxCost = c
				}
			}
			res := serveClosed(t, p, 4, reqs)
			// Recompute per-replica cost with an identical fresh policy
			// (predicted-cost's classifier is deterministic).
			q := mustPolicy(t, name, Options{})
			lo, hi := -1.0, 0.0
			for _, sh := range res.Shards {
				var c float64
				for _, o := range sh.Origin {
					c += q.Cost(reqs[o])
				}
				if lo < 0 || c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
			if hi-lo > maxCost {
				t.Errorf("load spread %.0f exceeds max request cost %.0f", hi-lo, maxCost)
			}
		})
	}
}

func TestDispatchRejectsBadArgs(t *testing.T) {
	reqs := smallTrace(10, 1)
	if _, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 0, Policy: mustPolicy(t, RoundRobin, Options{})}); err == nil {
		t.Error("replicas=0 accepted")
	}
	if _, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4}); err == nil {
		t.Error("nil policy accepted")
	}
}

// outOfRange is a broken policy for error-path coverage.
type outOfRange struct{}

func (outOfRange) Name() string                      { return "out-of-range" }
func (outOfRange) Pick(workload.Request, []Load) int { return 99 }
func (outOfRange) Cost(workload.Request) float64     { return 0 }

// An out-of-range pick on a closed-loop trace fails the run with the
// router's error.
func TestDispatchRejectsOutOfRangePick(t *testing.T) {
	_, err := Serve(fastConfig(2), smallTrace(10, 1), ServeConfig{Replicas: 4, Policy: outOfRange{}})
	if err == nil || !strings.Contains(err.Error(), `policy "out-of-range" picked candidate 99 of 4`) {
		t.Errorf("out-of-range pick: err = %v", err)
	}
}

// Run with 4 concurrent replicas must conserve requests and tokens
// exactly under every policy. This is also the -race exercise: each
// replica simulates on its own goroutine.
func TestRunConservation(t *testing.T) {
	reqs := smallTrace(400, 4)
	wantOut := 0
	for _, r := range reqs {
		wantOut += r.OutputLen
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, name, Options{Seed: 9})})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.CheckConservation(len(reqs)); err != nil {
				t.Fatal(err)
			}
			rep := res.Report
			if rep.Requests != len(reqs) {
				t.Errorf("requests = %d", rep.Requests)
			}
			if rep.OutputTokens != wantOut {
				t.Errorf("output tokens = %d, want %d", rep.OutputTokens, wantOut)
			}
			if rep.GPUs != 8 {
				t.Errorf("fleet GPUs = %d, want 8", rep.GPUs)
			}
			if !strings.Contains(rep.Scheduler, name) {
				t.Errorf("scheduler %q does not name policy %q", rep.Scheduler, name)
			}
			var maxElapsed float64
			var sumOut int
			for _, rr := range res.Replicas {
				if rr.Report.Elapsed > maxElapsed {
					maxElapsed = rr.Report.Elapsed
				}
				sumOut += rr.Report.OutputTokens
			}
			if rep.Elapsed != maxElapsed {
				t.Errorf("elapsed = %v, want slowest replica %v", rep.Elapsed, maxElapsed)
			}
			if sumOut != wantOut {
				t.Errorf("replica output tokens sum to %d, want %d", sumOut, wantOut)
			}
			if rep.MeanUtilization <= 0 || rep.MeanUtilization > 1 {
				t.Errorf("utilization = %v", rep.MeanUtilization)
			}
		})
	}
}

// The aggregate report must be bit-identical across runs for a fixed
// seed, despite goroutine scheduling.
func TestRunDeterministic(t *testing.T) {
	reqs := smallTrace(200, 6)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, name, Options{Seed: 3})})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, name, Options{Seed: 3})})
			if err != nil {
				t.Fatal(err)
			}
			if a.Report != b.Report {
				t.Errorf("aggregate reports differ:\n%v\n%v", a.Report, b.Report)
			}
		})
	}
}

// A fleet wider than the trace leaves some replicas empty; they must
// contribute zero work without failing the run.
func TestRunEmptyShards(t *testing.T) {
	reqs := smallTrace(2, 8)
	res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, RoundRobin, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != 2 {
		t.Errorf("requests = %d", res.Report.Requests)
	}
	for i := 2; i < 4; i++ {
		if n := res.Replicas[i].Report.Requests; n != 0 {
			t.Errorf("replica %d ran %d requests, want 0", i, n)
		}
	}
}

// Concurrent fleet runs must not interfere: exercises the registry and
// the engines under -race from multiple dispatchers at once, each a
// closed-loop fleet on a two-worker fabric.
func TestConcurrentFleetsRace(t *testing.T) {
	setProcs(t, 2)
	reqs := smallTrace(120, 10)
	var wg sync.WaitGroup
	for _, name := range []string{RoundRobin, PredictedCost} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			p, err := New(name, Options{Seed: 1})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: p}); err != nil {
				t.Error(err)
			}
		}(name)
	}
	wg.Wait()
}

// A single-replica fleet is just the lone engine: every aggregate field
// must equal the replica's own report (only the scheduler label and the
// record IDs differ).
func TestMergeSingleReplicaEqualsLoneReport(t *testing.T) {
	reqs := smallTrace(150, 12)
	res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 1, Policy: mustPolicy(t, RoundRobin, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	lone := res.Replicas[0].Report
	agg := res.Report
	if agg.Requests != lone.Requests || agg.InputTokens != lone.InputTokens ||
		agg.OutputTokens != lone.OutputTokens || agg.Elapsed != lone.Elapsed ||
		agg.GPUs != lone.GPUs || agg.PhaseSwitches != lone.PhaseSwitches ||
		agg.Recomputes != lone.Recomputes || agg.KVPeakUsage != lone.KVPeakUsage {
		t.Errorf("aggregate differs from lone replica:\nagg:  %+v\nlone: %+v", agg, lone)
	}
	if agg.MeanUtilization != lone.MeanUtilization {
		t.Errorf("utilization %v != lone %v", agg.MeanUtilization, lone.MeanUtilization)
	}
	if agg.Latency != lone.Latency {
		t.Errorf("latency digest differs:\nagg:  %+v\nlone: %+v", agg.Latency, lone.Latency)
	}
}

// Empty shards produce zero-duration replicas (Elapsed 0); the merge
// must not divide by zero anywhere — utilization, throughput and the
// latency digest must stay finite.
func TestMergeZeroDurationReplica(t *testing.T) {
	reqs := smallTrace(2, 8)
	res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, RoundRobin, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if e := res.Replicas[i].Report.Elapsed; e != 0 {
			t.Fatalf("replica %d elapsed = %v, want 0 (empty shard)", i, e)
		}
	}
	rep := res.Report
	if math.IsNaN(rep.MeanUtilization) || rep.MeanUtilization < 0 || rep.MeanUtilization > 1 {
		t.Errorf("utilization = %v", rep.MeanUtilization)
	}
	if math.IsNaN(rep.OutputThroughput()) || math.IsInf(rep.OutputThroughput(), 0) {
		t.Errorf("throughput = %v", rep.OutputThroughput())
	}
	if rep.Latency.Requests != 2 {
		t.Errorf("digest covers %d requests, want 2", rep.Latency.Requests)
	}
	if g := rep.Latency.Goodput(); math.IsNaN(g) {
		t.Errorf("goodput = %v", g)
	}
	if len(res.Records) != 2 {
		t.Errorf("merged %d records, want 2", len(res.Records))
	}
}

// An entirely empty trace: every replica is zero-duration and the
// aggregate must still be finite and conservation-clean.
func TestMergeEmptyTrace(t *testing.T) {
	res, err := Serve(fastConfig(2), nil, ServeConfig{Replicas: 3, Policy: mustPolicy(t, RoundRobin, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Requests != 0 || rep.Elapsed != 0 {
		t.Errorf("empty fleet report = %+v", rep)
	}
	if math.IsNaN(rep.MeanUtilization) || rep.MeanUtilization != 0 {
		t.Errorf("utilization = %v", rep.MeanUtilization)
	}
	if rep.OutputThroughput() != 0 {
		t.Errorf("throughput = %v", rep.OutputThroughput())
	}
	if g := rep.Latency.Goodput(); g != 1 {
		t.Errorf("empty goodput = %v", g)
	}
}

func TestPredictedCostFallsBackToOracle(t *testing.T) {
	p := mustPolicy(t, PredictedCost, Options{})
	r := workload.Request{InputLen: 100, OutputLen: 50}
	if c := p.Cost(r); c != 150 {
		t.Errorf("oracle-backed cost = %v, want 150", c)
	}
	q := mustPolicy(t, PredictedCost, Options{Predictor: core.ConstPredictor(10)})
	if c := q.Cost(r); c != 110 {
		t.Errorf("const-backed cost = %v, want 110", c)
	}
}

// TestServeDefaultWorkers pins the worker count Serve picks, one way
// on closed-loop and on stamped traces: a colocated fleet gets one
// worker per GOMAXPROCS, at most one per replica, and a split fleet
// one.
func TestServeDefaultWorkers(t *testing.T) {
	closed := smallTrace(40, 5)
	open := workload.StampArrivals(closed, workload.Poisson{Rate: 200}, 7)
	for _, procs := range []int{1, 2, 4, 8} {
		setProcs(t, procs)
		for _, tc := range []struct {
			name string
			reqs []workload.Request
			sc   ServeConfig
			want int
		}{
			{"closed", closed, ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{})}, min(procs, 4)},
			{"open", open, ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{})}, min(procs, 4)},
			{"open split", open, ServeConfig{PrefillReplicas: 2, DecodeReplicas: 2}, 1},
		} {
			res, err := Serve(fastConfig(2), tc.reqs, tc.sc)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", tc.name, procs, err)
			}
			if res.Workers != tc.want {
				t.Errorf("%s at GOMAXPROCS %d: %d workers, want %d", tc.name, procs, res.Workers, tc.want)
			}
		}
	}
}

// TestBenchShimWorkers pins the worker counts the benchmark harness's
// shims keep: RunOnlineWorkers runs on the count it is given (one for
// 1 or less), whatever GOMAXPROCS is, and RunDisaggFaults refuses more
// than the one worker a split runs on.
func TestBenchShimWorkers(t *testing.T) {
	setProcs(t, 4)
	reqs := workload.StampArrivals(smallTrace(40, 5), workload.Poisson{Rate: 200}, 7)
	for _, tc := range []struct{ workers, want int }{{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {8, 4}} {
		res, err := RunOnlineWorkers(fastConfig(2), 4, mustPolicy(t, LeastWork, Options{}), reqs, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers != tc.want {
			t.Errorf("RunOnlineWorkers(%d): %d workers, want %d", tc.workers, res.Workers, tc.want)
		}
	}
	for _, w := range []int{0, 1} {
		if _, err := RunDisaggFaults(fastConfig(2), DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2, Workers: w}, reqs, nil); err != nil {
			t.Errorf("RunDisaggFaults at Workers %d: %v", w, err)
		}
	}
	if _, err := RunDisaggFaults(fastConfig(2), DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2, Workers: 2}, reqs, nil); !errors.Is(err, ErrSplitWorkers) {
		t.Errorf("RunDisaggFaults at Workers 2: err = %v, want %v", err, ErrSplitWorkers)
	}
}
