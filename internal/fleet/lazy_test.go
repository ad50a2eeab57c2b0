package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestLazyScope pins which pools advance lazily: a lone pool whose pick
// reads only the router's counters (the cost tree's argminCost,
// round-robin, random) with no layer attached. Probing policies, a
// policy stack, a fault plan and a split fleet keep every replica up to
// date at every control event.
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
		if build(&policy.Stack{Autoscaler: elasticStack(t, 4).Autoscaler}, nil, newPool("", 4, mustPolicy(t, name, Options{}))) {
			t.Errorf("%s pool under the autoscaler advances lazily", name)
		}
		if build(nil, plan, newPool("", 4, mustPolicy(t, name, Options{}))) {
			t.Errorf("%s pool under a fault plan advances lazily", name)
		}
	}
	if build(nil, nil, newPool("", 4, mustPolicy(t, PrefixAffinity, Options{}))) {
		t.Error("a probing pool advances lazily")
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
// reports and records must match at one worker and at four. Under the
// hook, a finish that fires at an instant before the latest pick (the
// finish bound let its replica lag past a finish the pick should have
// seen) fails the run. The router goldens must keep their committed
// digests under the hook too.
func TestLazyPicksMatchEager(t *testing.T) {
	cfg := fastConfig(2)
	poisson := goldenPoissonTrace()
	big := workload.StampArrivals(smallTrace(4000, 43), workload.Poisson{Rate: 40000}, 47)
	runs := []struct {
		name     string
		reqs     []workload.Request
		replicas int
		policy   string
	}{
		{"online-predicted-64", poisson, 64, PredictedCost},
		{"online-least-work-64", poisson, 64, LeastWork},
		{"online-round-robin-64", poisson, 64, RoundRobin},
		{"online-random-64", poisson, 64, Random},
		{"online-predicted-1000", big, 1000, PredictedCost},
	}
	var finishes, late atomic.Int64
	check := func(_ int, at, touched sim.Time) {
		finishes.Add(1)
		if at < touched {
			late.Add(1)
		}
	}
	defer func() { syncCheck = nil }()
	for _, r := range runs {
		for _, workers := range []int{1, 4} {
			var outs [2][]byte
			for i, hook := range []func(int, sim.Time, sim.Time){nil, check} {
				syncCheck = hook
				finishes.Store(0)
				late.Store(0)
				res, err := Serve(cfg, r.reqs, ServeConfig{Replicas: r.replicas, Policy: mustPolicy(t, r.policy, Options{Seed: 3}), Workers: workers})
				out := lazyOut{Golden: serveOut(t, res, err)}
				for _, sh := range res.Shards {
					out.Picks = append(out.Picks, sh.Origin)
				}
				if outs[i], err = json.Marshal(out); err != nil {
					t.Fatal(err)
				}
			}
			syncCheck = nil
			if string(outs[0]) != string(outs[1]) {
				t.Errorf("%s workers=%d: lazy run differs from the forced one", r.name, workers)
			}
			if n := finishes.Load(); n != int64(len(r.reqs)) {
				t.Errorf("%s workers=%d: the hook saw %d finishes of %d requests", r.name, workers, n, len(r.reqs))
			}
			if n := late.Load(); n > 0 {
				t.Errorf("%s workers=%d: %d finishes fired before a pick that should have seen them", r.name, workers, n)
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
			late.Store(0)
			b, err := json.Marshal(g.run(t, workers))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if d := hex.EncodeToString(sum[:]); d != want[g.name] {
				t.Errorf("%s workers=%d under the forced schedule: digest %s, golden %s", g.name, workers, d, want[g.name])
			}
			if n := late.Load(); n > 0 {
				t.Errorf("%s workers=%d: %d finishes fired before a pick that should have seen them", g.name, workers, n)
			}
		}
	}
}
