package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestLazyScope pins which pools advance lazily: a lone pool whose pick
// reads only the router's counters (the cost tree's argminCost,
// round-robin, random), with or without a policy stack. Probing
// policies (with or without a stack), a fault plan (with or without a
// stack) and a split fleet keep every replica up to date at every
// control event.
func TestLazyScope(t *testing.T) {
	reqs := onlineTrace(40, 3, 400)
	plan, err := faults.NewPlan(faults.Config{Seed: 1, Horizon: 1, MTBF: 0.5, RestartDelay: 0.05}, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	build := func(stack *policy.Stack, plan *faults.Plan, pools ...*pool) bool {
		ro, err := newRouter(fastConfig(2), reqs, 1, plan, stack, pools...)
		if err != nil {
			t.Fatal(err)
		}
		return ro.fab.lazy
	}
	for _, name := range []string{PredictedCost, LeastWork, RoundRobin, Random} {
		if !build(nil, nil, newPool("", 4, mustPolicy(t, name, Options{}))) {
			t.Errorf("%s pool without layers advances eagerly", name)
		}
		if !build(&policy.Stack{Autoscaler: elasticStack(t, 4).Autoscaler}, nil, newPool("", 4, mustPolicy(t, name, Options{}))) {
			t.Errorf("%s pool under the autoscaler advances eagerly", name)
		}
		if !build(elasticStack(t, 4), nil, newPool("", 4, mustPolicy(t, name, Options{}))) {
			t.Errorf("%s pool under the whole stack advances eagerly", name)
		}
		if build(nil, plan, newPool("", 4, mustPolicy(t, name, Options{}))) {
			t.Errorf("%s pool under a fault plan advances lazily", name)
		}
		if build(elasticStack(t, 4), plan, newPool("", 4, mustPolicy(t, name, Options{}))) {
			t.Errorf("%s pool under a stack and a fault plan advances lazily", name)
		}
	}
	if build(nil, nil, newPool("", 4, mustPolicy(t, PrefixAffinity, Options{}))) {
		t.Error("a probing pool advances lazily")
	}
	if build(elasticStack(t, 4), nil, newPool("", 4, mustPolicy(t, PrefixAffinity, Options{}))) {
		t.Error("a probing pool under a stack advances lazily")
	}
	if build(nil, nil, newPool("prefill ", 2, mustPolicy(t, LeastWork, Options{})), newPool("decode ", 2, mustPolicy(t, DecodeAffinity, Options{}))) {
		t.Error("a split fleet advances lazily")
	}
}

// lazyOut is what a lazy run must share with its forced twin: the
// report, the per-request records and every pick, as the origins each
// replica received in order.
type lazyOut struct {
	Golden goldenOut
	Picks  [][]int
}

// TestLazyPicksMatchEager runs every lazy configuration twice, once as
// is and once under syncCheck, which brings every replica up to date
// after each control instant: the schedule of an eager fabric. Picks,
// reports and records must match at one worker and at four. The
// configurations cover the counter-only policies at 64 replicas and
// predicted-cost at 1000, and at 64 replicas a policy stack: breakers
// gating a predicted-cost scan, the autoscaler alone re-keying a cost
// tree, round-robin under the whole stack on a two-tier trace, the
// autoscaler and preemption on a least-work tree over the same tiers,
// and a token bucket tight enough to shed and retry. Under the hook, a
// finish that fires at an instant before the fabric's control instant
// (the finish bound let its replica lag past a finish that instant's
// pick, tick, admission or breaker should have seen) fails the run.
// The router goldens must keep their committed digests under the hook
// too.
func TestLazyPicksMatchEager(t *testing.T) {
	cfg := fastConfig(2)
	tight := fastConfig(1)
	tight.MemUtilization = 0.0005
	poisson := goldenPoissonTrace()
	big := workload.StampArrivals(smallTrace(4000, 43), workload.Poisson{Rate: 40000}, 47)
	tiers, err := workload.StampPriorities(poisson, workload.PriorityConfig{Tiers: 2, HighFraction: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	stack := func() *policy.Stack { return elasticStack(t, 64) }
	gated := func() *policy.Stack {
		s := elasticStack(t, 64)
		s.Admission = nil
		return s
	}
	scaler := func() *policy.Stack { return &policy.Stack{Autoscaler: elasticStack(t, 64).Autoscaler} }
	preempting := func() *policy.Stack {
		s := scaler()
		s.Preemption = &policy.PreemptionConfig{}
		return s
	}
	shedding := func() *policy.Stack {
		s := elasticStack(t, 64)
		s.Admission = policy.NewTokenBucket(2000, 16)
		return s
	}
	runs := []struct {
		name     string
		cfg      core.Config
		reqs     []workload.Request
		replicas int
		policy   string
		stack    func() *policy.Stack
		// busy reports whether the stack did the work the run names.
		busy func(a metrics.AdmissionStats, s metrics.AutoscaleStats) bool
	}{
		{name: "online-predicted-64", cfg: cfg, reqs: poisson, replicas: 64, policy: PredictedCost},
		{name: "online-least-work-64", cfg: cfg, reqs: poisson, replicas: 64, policy: LeastWork},
		{name: "online-round-robin-64", cfg: cfg, reqs: poisson, replicas: 64, policy: RoundRobin},
		{name: "online-random-64", cfg: cfg, reqs: poisson, replicas: 64, policy: Random},
		{name: "online-predicted-1000", cfg: cfg, reqs: big, replicas: 1000, policy: PredictedCost},
		{name: "breakers-predicted-64", cfg: tight, reqs: poisson, replicas: 64, policy: PredictedCost, stack: gated,
			busy: func(a metrics.AdmissionStats, s metrics.AutoscaleStats) bool {
				return a.BreakerTrips > 0 && a.BreakerSkips > 0 && s.ScaleUps > 0
			}},
		{name: "autoscaler-predicted-64", cfg: cfg, reqs: poisson, replicas: 64, policy: PredictedCost, stack: scaler,
			busy: func(_ metrics.AdmissionStats, s metrics.AutoscaleStats) bool {
				return s.ScaleUps > 0 && s.ScaleDowns > 0
			}},
		{name: "stack-round-robin-64", cfg: tight, reqs: tiers, replicas: 64, policy: RoundRobin, stack: stack,
			busy: func(a metrics.AdmissionStats, s metrics.AutoscaleStats) bool {
				return a.BreakerTrips > 0 && s.ScaleUps > 0
			}},
		{name: "priorities-least-work-64", cfg: tight, reqs: tiers, replicas: 64, policy: LeastWork, stack: preempting,
			busy: func(a metrics.AdmissionStats, _ metrics.AutoscaleStats) bool { return a.Preemptions > 0 }},
		{name: "admission-predicted-64", cfg: cfg, reqs: poisson, replicas: 64, policy: PredictedCost, stack: shedding,
			busy: func(a metrics.AdmissionStats, _ metrics.AutoscaleStats) bool { return a.Shed > 0 && a.Retries > 0 }},
	}
	var finishes, late atomic.Int64
	check := func(_ int, at, now sim.Time) {
		finishes.Add(1)
		if at < now {
			late.Add(1)
		}
	}
	defer func() { syncCheck = nil }()
	for _, r := range runs {
		for _, workers := range []int{1, 4} {
			setProcs(t, workers)
			var outs [2][]byte
			var rep metrics.Report
			for i, hook := range []func(int, sim.Time, sim.Time){nil, check} {
				syncCheck = hook
				finishes.Store(0)
				late.Store(0)
				sc := ServeConfig{Replicas: r.replicas, Policy: mustPolicy(t, r.policy, Options{Seed: 3})}
				if r.stack != nil {
					sc.Stack = r.stack()
				}
				res, err := Serve(r.cfg, r.reqs, sc)
				out := lazyOut{Golden: serveOut(t, res, err)}
				for _, sh := range res.Shards {
					out.Picks = append(out.Picks, sh.Origin)
				}
				if outs[i], err = json.Marshal(out); err != nil {
					t.Fatal(err)
				}
				rep = res.Report
			}
			syncCheck = nil
			if string(outs[0]) != string(outs[1]) {
				t.Errorf("%s workers=%d: lazy run differs from the forced one", r.name, workers)
			}
			if r.busy != nil && !r.busy(rep.Admission, rep.Autoscale) {
				t.Errorf("%s workers=%d: policy layer idle: %+v %+v", r.name, workers, rep.Admission, rep.Autoscale)
			}
			if n, want := finishes.Load(), int64(len(r.reqs)-rep.Admission.Dropped); n != want {
				t.Errorf("%s workers=%d: the hook saw %d finishes of %d", r.name, workers, n, want)
			}
			if n := late.Load(); n > 0 {
				t.Errorf("%s workers=%d: %d finishes fired after a control instant that should have seen them", r.name, workers, n)
			}
		}
	}

	b, err := os.ReadFile(routerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	syncCheck = check
	for _, g := range goldenRuns() {
		for _, workers := range []int{1, 4} {
			setProcs(t, workers)
			late.Store(0)
			b, err := json.Marshal(g.run(t))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if d := hex.EncodeToString(sum[:]); d != want[g.name] {
				t.Errorf("%s workers=%d under the forced schedule: digest %s, golden %s", g.name, workers, d, want[g.name])
			}
			if n := late.Load(); n > 0 {
				t.Errorf("%s workers=%d: %d finishes fired after a control instant that should have seen them", g.name, workers, n)
			}
		}
	}
}
