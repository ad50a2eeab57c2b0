package fleet

import (
	"bytes"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// elasticStack builds a fully-loaded policy stack for tests: admission,
// retry, breakers, preemption and an autoscaler over a max-4 fleet.
func elasticStack(t *testing.T, maxReplicas int) *policy.Stack {
	t.Helper()
	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
		Min: 1, Max: maxReplicas, Interval: 0.05,
		ScaleUpQueue: 4, ScaleDownQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &policy.Stack{
		Admission:  policy.NewTokenBucket(3000, 64),
		Retry:      policy.NewBackoff(policy.BackoffConfig{Base: 0.01, Max: 0.1, Jitter: 0.2, Seed: 3}),
		Breaker:    &policy.BreakerConfig{FailureThreshold: 4, Cooldown: 0.1, HalfOpenSuccesses: 2},
		Autoscaler: as,
		Preemption: &policy.PreemptionConfig{},
	}
}

// An inactive stack must take the exact layer-free Serve code path:
// reports and records byte-identical, at one worker and at four (the race leg
// re-runs this under -race).
func TestParallelElasticInactiveStackByteIdentical(t *testing.T) {
	cfg := fastConfig(2)
	reqs := workload.StampArrivals(smallTrace(250, 5), workload.Poisson{Rate: 400}, 17)
	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		want, err := Serve(cfg, reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{})})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, stack := range []*policy.Stack{nil, {}} {
			got, err := Serve(cfg, reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{}), Stack: stack})
			if err != nil {
				t.Fatalf("workers=%d stack=%v: %v", workers, stack, err)
			}
			if !bytes.Equal(fullJSON(t, want.Report, want.Records), fullJSON(t, got.Report, got.Records)) {
				t.Fatalf("workers=%d: inactive stack %v diverges from the layer-free run", workers, stack)
			}
		}
	}
}

// The fabric guarantee extends to active stacks: every policy
// intervention executes on the control timeline, so elastic reports
// are byte-identical across worker counts.
func TestParallelElasticByteIdenticalToSequential(t *testing.T) {
	cfg := fastConfig(2)
	reqs, err := workload.StampPriorities(
		workload.StampArrivals(smallTrace(300, 5), workload.Poisson{Rate: 600}, 17),
		workload.PriorityConfig{Tiers: 2, HighFraction: 0.5, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		setProcs(t, workers)
		res, err := Serve(cfg, reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{}), Stack: elasticStack(t, 4)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkConservation(t, res, len(reqs), res.Report.Admission.Dropped)
		return fullJSON(t, res.Report, res.Records)
	}
	seq := run(1)
	for _, w := range workerSweep {
		if got := run(w); !bytes.Equal(seq, got) {
			t.Errorf("workers=%d diverges from sequential:\n%s\n%s", w, seq, got)
		}
	}
}

// The autoscaler must actually breathe: a bursty trace over a max-4
// fleet starting at 1 replica should scale up, and the provisioned
// GPU-seconds must come in under the static-peak bill (4 replicas for
// the whole run).
func TestElasticAutoscalerBreathes(t *testing.T) {
	cfg := fastConfig(2)
	reqs := workload.StampArrivals(smallTrace(400, 11), workload.Poisson{Rate: 1200}, 19)
	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
		Min: 1, Max: 4, Interval: 0.02,
		ScaleUpQueue: 2, ScaleDownQueue: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(cfg, reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{}), Stack: &policy.Stack{Autoscaler: as}})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res, len(reqs), res.Report.Admission.Dropped)
	a := res.Report.Autoscale
	if !a.Any() {
		t.Fatal("no autoscale activity recorded")
	}
	if a.ScaleUps == 0 {
		t.Fatalf("bursty trace never scaled up: %+v", a)
	}
	if a.PeakReplicas < 2 {
		t.Fatalf("peak replicas = %d, want >= 2: %+v", a.PeakReplicas, a)
	}
	if a.ColdStartSeconds <= 0 {
		t.Fatalf("scale-ups paid no cold start: %+v", a)
	}
	staticPeak := 4.0 * float64(cfg.World) * res.Report.Elapsed
	if a.GPUSeconds <= 0 || a.GPUSeconds >= staticPeak {
		t.Fatalf("elastic GPU-seconds %.2f not inside (0, static peak %.2f)", a.GPUSeconds, staticPeak)
	}
	if res.Report.Requests != len(reqs) {
		t.Fatalf("autoscale-only stack dropped requests: %+v", res.Report.Admission)
	}
}

// A starved token bucket must shed, retry on the seeded schedule, and
// drop what the budget cannot save — with every decision accounted.
func TestElasticAdmissionShedsAndRetries(t *testing.T) {
	cfg := fastConfig(2)
	reqs := workload.StampArrivals(smallTrace(200, 7), workload.Poisson{Rate: 2000}, 23)
	stack := &policy.Stack{
		Admission: policy.NewTokenBucket(50, 1),
		Retry:     policy.NewBackoff(policy.BackoffConfig{Base: 0.005, Max: 0.05, MaxAttempts: 2, Seed: 1}),
	}
	res, err := Serve(cfg, reqs, ServeConfig{Replicas: 2, Policy: mustPolicy(t, RoundRobin, Options{}), Stack: stack})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res, len(reqs), res.Report.Admission.Dropped)
	ad := res.Report.Admission
	if ad.Shed == 0 || ad.Retries == 0 || ad.Dropped == 0 {
		t.Fatalf("starved bucket produced no policy activity: %+v", ad)
	}
	if res.Report.Requests == 0 {
		t.Fatal("everything dropped; bucket should admit some traffic")
	}
	// Determinism: the same seeded stack reproduces the exact report.
	stack2 := &policy.Stack{
		Admission: policy.NewTokenBucket(50, 1),
		Retry:     policy.NewBackoff(policy.BackoffConfig{Base: 0.005, Max: 0.05, MaxAttempts: 2, Seed: 1}),
	}
	res2, err := Serve(cfg, reqs, ServeConfig{Replicas: 2, Policy: mustPolicy(t, RoundRobin, Options{}), Stack: stack2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullJSON(t, res.Report, res.Records), fullJSON(t, res2.Report, res2.Records)) {
		t.Fatal("identical seeded runs diverge")
	}
}

// Priority preemption: a trace with low-tier bulk and high-tier
// arrivals on a KV-tight single replica should evict low tiers through
// the recompute path.
func TestElasticPreemption(t *testing.T) {
	cfg := fastConfig(1)
	cfg.MemUtilization = 0.0005 // tighten the KV pool to force pressure
	reqs, err := workload.StampPriorities(
		workload.StampArrivals(smallTrace(150, 13), workload.Poisson{Rate: 3000}, 31),
		workload.PriorityConfig{Tiers: 2, HighFraction: 0.2, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.HasPriorities(reqs) {
		t.Fatal("trace has no priority structure")
	}
	res, err := Serve(cfg, reqs, ServeConfig{Replicas: 1, Policy: mustPolicy(t, RoundRobin, Options{}), Stack: &policy.Stack{
		Preemption: &policy.PreemptionConfig{},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res, len(reqs), res.Report.Admission.Dropped)
	if res.Report.Admission.Preemptions == 0 {
		t.Fatalf("KV-tight priority trace caused no preemptions: %+v", res.Report.Admission)
	}
	if res.Report.Recomputes < res.Report.Admission.Preemptions {
		t.Fatalf("preemptions %d not reflected in recomputes %d",
			res.Report.Admission.Preemptions, res.Report.Recomputes)
	}
}

func TestElasticRejectsBadConfig(t *testing.T) {
	cfg := fastConfig(1)
	reqs := workload.StampArrivals(smallTrace(10, 3), workload.Poisson{Rate: 100}, 5)
	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{Min: 1, Max: 8, Interval: 1, ScaleUpQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Serve(cfg, reqs, ServeConfig{Replicas: 2, Policy: mustPolicy(t, RoundRobin, Options{}), Stack: &policy.Stack{Autoscaler: as}}); err == nil {
		t.Fatal("autoscaler Max above provisioned replicas must be rejected")
	}
	if _, err := Serve(cfg, reqs, ServeConfig{Replicas: 0, Policy: mustPolicy(t, RoundRobin, Options{}), Stack: elasticStack(t, 4)}); err == nil {
		t.Fatal("zero replicas must be rejected")
	}
	if _, err := Serve(cfg, reqs, ServeConfig{Replicas: 2, Policy: nil, Stack: elasticStack(t, 2)}); err == nil {
		t.Fatal("nil policy must be rejected")
	}
}
