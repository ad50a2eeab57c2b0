package tdpipe

import (
	"reflect"
	"testing"
)

// fleetConfig builds a FleetConfig for a registered policy seeded like
// the CLI default, inheriting the engine's predictor.
func fleetConfig(t *testing.T, cfg Config, replicas int, policy string) FleetConfig {
	t.Helper()
	p, err := NewFleetPolicy(policy, FleetOptions{Seed: 1, Predictor: cfg.Predictor})
	if err != nil {
		t.Fatal(err)
	}
	return FleetConfig{Replicas: replicas, Policy: p}
}

func TestFacadeEndToEnd(t *testing.T) {
	trace, err := NewTrace(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainPredictor(trace.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(A100, Llama2_70B, 4)
	cfg.Predictor = clf
	reqs := trace.Sample(500, 1)
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != 500 || res.Report.OutputThroughput() <= 0 {
		t.Errorf("report = %v", res.Report)
	}

	bres, err := RunBaseline(NewBaselineConfig(A100, Llama2_70B, 4, PPSB), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Report.Scheduler != "PP+SB" {
		t.Errorf("baseline scheduler = %q", bres.Report.Scheduler)
	}
}

// RunFleet with 4 replicas must complete a 5k-request trace under each
// registered policy with exact request conservation, and reproduce the
// same aggregate report when rerun with the same seed. A caller-seeded
// random policy reproduces its own dispatch, and a different seed
// dispatches differently.
func TestRunFleet(t *testing.T) {
	trace, err := NewTrace(20000, 11)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainPredictor(trace.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(A100, Llama2_70B, 4)
	cfg.Predictor = clf
	reqs := trace.Sample(5000, 2)
	wantOut := 0
	for _, r := range reqs {
		wantOut += r.OutputLen
	}

	policies := FleetPolicies()
	if len(policies) < 4 {
		t.Fatalf("only %d fleet policies registered: %v", len(policies), policies)
	}
	for _, policy := range policies {
		res, err := RunFleet(cfg, reqs, fleetConfig(t, cfg, 4, policy))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckConservation(len(reqs)); err != nil {
			t.Errorf("%s: %v", policy, err)
		}
		if res.Report.Requests != 5000 || res.Report.OutputTokens != wantOut {
			t.Errorf("%s: completed %d requests, %d output tokens (want 5000, %d)",
				policy, res.Report.Requests, res.Report.OutputTokens, wantOut)
		}
		if res.Report.GPUs != 16 {
			t.Errorf("%s: fleet GPUs = %d, want 16", policy, res.Report.GPUs)
		}
		again, err := RunFleet(cfg, reqs, fleetConfig(t, cfg, 4, policy))
		if err != nil {
			t.Fatal(err)
		}
		if res.Report != again.Report {
			t.Errorf("%s: aggregate report not deterministic:\n%v\n%v", policy, res.Report, again.Report)
		}
	}

	if _, err := NewFleetPolicy("no-such-policy", FleetOptions{}); err == nil {
		t.Error("unknown policy accepted")
	}

	seeded := func(seed int64) *FleetResult {
		t.Helper()
		p, err := NewFleetPolicy(FleetRandom, FleetOptions{Seed: seed, Predictor: clf})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFleet(cfg, reqs, FleetConfig{Replicas: 4, Policy: p, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, other := seeded(7), seeded(7), seeded(8)
	if a.Report != b.Report || !reflect.DeepEqual(a.Shards, b.Shards) {
		t.Error("random policy with seed 7 is not reproducible")
	}
	if reflect.DeepEqual(a.Shards, other.Shards) {
		t.Error("random policy seeds 7 and 8 dispatched identically")
	}
}

// The facade's open-loop path: StampArrivals produces an arrival-
// stamped trace, Run admits by arrival and reports latency, and
// RunFleet auto-routes stamped traces through the online router.
func TestFacadeOnlineServing(t *testing.T) {
	trace, err := NewTrace(3000, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(A100, Llama2_70B, 4)
	cfg.SLO = DefaultSLO()
	reqs := trace.Sample(400, 5)

	stamped, err := StampArrivals(reqs, ArrivalConfig{Kind: ArrivalPoisson, Rate: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if HasArrivals(reqs) || !HasArrivals(stamped) {
		t.Fatal("HasArrivals misclassifies traces")
	}

	res, err := Run(cfg, stamped)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Latency.Requests != 400 {
		t.Errorf("latency digest covers %d requests", res.Report.Latency.Requests)
	}

	fres, err := RunFleet(cfg, stamped, fleetConfig(t, cfg, 2, FleetLeastWork))
	if err != nil {
		t.Fatal(err)
	}
	if err := fres.CheckConservation(len(stamped)); err != nil {
		t.Error(err)
	}
	if fres.Report.Scheduler != "FleetOnline(TD-Pipe/least-work)x2" {
		t.Errorf("stamped trace not routed online: %q", fres.Report.Scheduler)
	}
	if len(fres.Records) != 400 {
		t.Errorf("merged %d records", len(fres.Records))
	}

	if _, err := StampArrivals(reqs, ArrivalConfig{Kind: "bogus"}); err == nil {
		t.Error("bogus arrival kind accepted")
	}
}

// The facade's fault-injection path: a seeded plan drawn through
// NewFaultPlan injects crashes into RunFleet, recovery accounting
// lands in Report.Faults, conservation holds (finished + dropped covers
// the trace), and an inactive plan reproduces the fault-free run
// exactly.
func TestFacadeFaultInjection(t *testing.T) {
	trace, err := NewTrace(3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(A100, Llama2_70B, 4)
	cfg.SLO = DefaultSLO()
	reqs := trace.Sample(300, 3)
	stamped, err := StampArrivals(reqs, ArrivalConfig{Kind: ArrivalPoisson, Rate: 6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}

	fleetCfg := fleetConfig(t, cfg, 3, FleetLeastWork)
	base, err := RunFleet(cfg, stamped, fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Report.Faults.Any() {
		t.Errorf("nil plan injected faults: %+v", base.Report.Faults)
	}

	horizon := base.Report.Elapsed
	fc := FaultConfig{
		Seed:               5,
		Horizon:            horizon,
		MTBF:               horizon / 2,
		RestartDelay:       horizon / 20,
		CheckpointInterval: horizon / 8,
	}
	downtime := fc.RestartDelay + FaultWeightReloadTime(A100, Llama2_70B, 4)
	plan, err := NewFaultPlan(fc, 3, downtime)
	if err != nil {
		t.Fatal(err)
	}
	fleetCfg.Faults = plan
	res, err := RunFleet(cfg, stamped, fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Report.Faults
	if f.Crashes != len(plan.Crashes) {
		t.Errorf("executed %d of %d planned crashes", f.Crashes, len(plan.Crashes))
	}
	if got := res.Report.Requests + f.Dropped; got != len(stamped) {
		t.Errorf("finished %d + dropped %d != %d requests", res.Report.Requests, f.Dropped, len(stamped))
	}

	again, err := RunFleet(cfg, stamped, fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != again.Report {
		t.Errorf("fault run not deterministic:\n%v\n%v", res.Report, again.Report)
	}

	if _, err := NewFaultPlan(FaultConfig{MTBF: -1}, 3, 0); err == nil {
		t.Error("invalid fault config accepted")
	}
}

// The facade's policy path: a full stack (admission, retry, breakers,
// preemption, autoscaler) serves a priority-stamped diurnal trace with
// exact conservation, Report.Autoscale records the breathing, and an
// inactive stack reproduces the plain RunFleet report exactly.
func TestFacadeElasticPolicies(t *testing.T) {
	trace, err := NewTrace(3000, 19)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(A100, Llama2_70B, 4)
	cfg.SLO = DefaultSLO()
	reqs := trace.Sample(300, 7)
	stamped, err := StampArrivals(reqs, ArrivalConfig{Kind: ArrivalDiurnal, Rate: 8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	stamped, err = StampPriorities(stamped, PriorityConfig{Tiers: 2, HighFraction: 0.3, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if HasPriorities(reqs) || !HasPriorities(stamped) {
		t.Fatal("HasPriorities misclassifies traces")
	}

	fleetCfg := fleetConfig(t, cfg, 3, FleetLeastWork)
	base, err := RunFleet(cfg, stamped, fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	fleetCfg.Stack = &PolicyStack{}
	inactive, err := RunFleet(cfg, stamped, fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Report != inactive.Report {
		t.Errorf("inactive stack diverges from RunFleet:\n%v\n%v", base.Report, inactive.Report)
	}

	as, err := NewAutoscaler(AutoscalerConfig{
		Min: 1, Max: 3, Interval: 2, ScaleUpQueue: 4, ScaleDownQueue: 1,
		TTFTTarget: cfg.SLO.TTFT / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stack := &PolicyStack{
		Admission:  NewTokenBucket(40, 8),
		Retry:      NewBackoff(BackoffConfig{Base: 0.05, MaxAttempts: 3, Seed: 31}),
		Breaker:    &BreakerConfig{},
		Preemption: &PreemptionConfig{},
		Autoscaler: as,
	}
	fleetCfg.Stack, fleetCfg.Workers = stack, 2
	res, err := RunFleet(cfg, stamped, fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report.Requests + res.Report.Admission.Dropped; got != len(stamped) {
		t.Errorf("finished %d + dropped %d != %d requests",
			res.Report.Requests, res.Report.Admission.Dropped, len(stamped))
	}
	if !res.Report.Autoscale.Any() {
		t.Errorf("elastic run recorded no autoscale activity: %+v", res.Report.Autoscale)
	}
	if res.Report.Autoscale.GPUSeconds <= 0 {
		t.Errorf("no GPU-seconds accounted: %+v", res.Report.Autoscale)
	}
}

func TestFacadeCatalog(t *testing.T) {
	if L20.GPU.MemGB != 48 || A100.GPU.MemGB != 80 {
		t.Error("node catalog wrong")
	}
	for _, m := range []ModelSpec{Llama2_13B, Qwen2_5_32B, Llama2_70B} {
		if err := m.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestFacadeTraceSplit(t *testing.T) {
	trace, err := NewTrace(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Train) != 600 || len(trace.Val) != 200 || len(trace.Test) != 200 {
		t.Errorf("split = %d/%d/%d", len(trace.Train), len(trace.Val), len(trace.Test))
	}
	s := trace.Sample(10, 1)
	if len(s) != 10 || s[0].ID != 0 {
		t.Errorf("sample = %v", s)
	}
}
