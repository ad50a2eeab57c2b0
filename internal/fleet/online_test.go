package fleet

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kvcache"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

func onlineTrace(n int, seed int64, rate float64) []workload.Request {
	return workload.StampArrivals(smallTrace(n, seed), workload.Poisson{Rate: rate}, seed+100)
}

// The online router must complete every request under every registered
// policy, conserve requests and tokens, and produce causally
// consistent merged records.
func TestRunOnlineConservation(t *testing.T) {
	reqs := onlineTrace(300, 4, 40)
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
			if !strings.Contains(rep.Scheduler, "FleetOnline") || !strings.Contains(rep.Scheduler, name) {
				t.Errorf("scheduler = %q", rep.Scheduler)
			}
			if len(res.Records) != len(reqs) {
				t.Fatalf("merged %d records for %d requests", len(res.Records), len(reqs))
			}
			if rep.Latency.Requests != len(reqs) {
				t.Errorf("digest covers %d of %d", rep.Latency.Requests, len(reqs))
			}
			for i, rec := range res.Records {
				if rec.ID != i {
					t.Fatalf("record %d has ID %d after merge", i, rec.ID)
				}
				if rec.Arrival != reqs[i].ArrivalTime {
					t.Fatalf("record %d arrival %v, stamped %v", i, rec.Arrival, reqs[i].ArrivalTime)
				}
				if rec.FirstToken < rec.Arrival || rec.Finish < rec.FirstToken {
					t.Fatalf("record %d not causal: %+v", i, rec)
				}
			}
		})
	}
}

// The co-simulation is single-threaded, so two runs with identical
// inputs must produce bit-identical reports and records.
func TestRunOnlineDeterministic(t *testing.T) {
	reqs := onlineTrace(200, 6, 30)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 3, Policy: mustPolicy(t, name, Options{Seed: 3})})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 3, Policy: mustPolicy(t, name, Options{Seed: 3})})
			if err != nil {
				t.Fatal(err)
			}
			if a.Report != b.Report {
				t.Errorf("reports differ:\n%+v\n%+v", a.Report, b.Report)
			}
			for i := range a.Records {
				if a.Records[i] != b.Records[i] {
					t.Fatalf("record %d differs across runs", i)
				}
			}
		})
	}
}

// Online routing must see live load: with greedy least-work dispatch no
// replica may sit unused while another queues the whole trace.
func TestRunOnlineSpreadsLoad(t *testing.T) {
	reqs := onlineTrace(400, 8, 60)
	res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range res.Shards {
		if len(sh.Origin) == 0 {
			t.Errorf("replica %d received no requests", i)
		}
	}
}

// Bad arguments and broken policies must be rejected, not deadlock the
// co-simulation.
func TestRunOnlineRejectsBadArgs(t *testing.T) {
	reqs := onlineTrace(10, 1, 10)
	if _, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 0, Policy: mustPolicy(t, RoundRobin, Options{})}); err == nil {
		t.Error("replicas=0 accepted")
	}
	if _, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 2, Policy: nil}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 2, Policy: outOfRange{}}); err == nil {
		t.Error("out-of-range pick accepted")
	}
}

// TestRouteSnapshotDoesNotAllocate pins one routing decision at zero
// allocations: a prefix-affinity pick from the prefix holders, each
// touched and probed, on engines whose prefix caches still hold the
// request's shared prefix warm; the same pick under breakers, which
// scans the candidate snapshot with its live KV probes of every replica
// and then asks the policy, consuming the breaker's probe slot; and on
// a disaggregated fleet with breakers, a prefill dispatch and a decode
// placement. A cost-ranked
// arrival is pinned too, as a lazy fabric serves it: the advance that
// takes a replica whose finish bound fell before the arrival from its
// tier's schedule, catches it up and re-keys it, the stale-leaf drain and the tree pick, the
// touch of the picked replica, the booking that re-keys the picked
// leaf, the finish that queues it stale again, and the re-key of the
// touched replica.
func TestRouteSnapshotDoesNotAllocate(t *testing.T) {
	reqs := prefixOnlineTrace(200, 41, 8000, 8, 512)
	r := reqs[len(reqs)-1]
	// The breakers never trip: with no TTFT objective every finish
	// counts as a failure.
	for _, gate := range []*policy.Stack{nil, {Breaker: &policy.BreakerConfig{FailureThreshold: math.MaxInt}}} {
		colo := newPool("", 8, mustPolicy(t, PrefixAffinity, Options{}))
		ro := drivenRouter(t, reqs, gate, colo)
		if indexed := colo.holders != nil; indexed != (gate == nil) || indexed != ro.fab.lazy {
			t.Fatalf("breakers %v: holders %v, lazy fabric %v", gate != nil, indexed, ro.fab.lazy)
		}
		now := float64(ro.ctl.Now())
		warm := 0
		route := func() {
			if k, ok := ro.route(colo, r, now); ok && k >= 0 {
				warm = colo.engines[k].PrefixWarmTokens(r)
			}
		}
		if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
			t.Errorf("breakers %v: routing one arrival allocates %v times per run, want 0", gate != nil, allocs)
		}
		if warm == 0 {
			t.Errorf("breakers %v: the pick found no warm prefix; the probe read no resident chain", gate != nil)
		}
	}

	pre := newPool("prefill ", 2, mustPolicy(t, LeastWork, Options{}))
	dec := newPool("decode ", 3, mustPolicy(t, DecodeAffinity, Options{}))
	ro := newTestRouter(t, reqs, &policy.Stack{Breaker: &policy.BreakerConfig{}}, pre, dec)
	// Keep the last hand-off's KV sequence: the transfer path frees an
	// item's slot once it is placed.
	var kv kvcache.ExportedSeq
	note := ro.fab.onNote
	ro.fab.onNote = func(replica int, h core.Handoff) { kv = h.KV; note(replica, h) }
	runToEnd(t, ro)
	if kv.Blocks() == 0 {
		t.Fatal("no hand-off exported KV")
	}
	now := float64(ro.ctl.Now())
	picked := 0
	split := func() {
		if _, ok := ro.pick(pre, r, ro.snapshot(pre, r, nil, now), now); ok {
			picked++
		}
		if _, ok := ro.pick(dec, r, ro.snapshot(dec, r, &kv, now), now); ok {
			picked++
		}
	}
	if allocs := testing.AllocsPerRun(100, split); allocs != 0 {
		t.Errorf("a prefill dispatch and a decode placement allocate %v times per run, want 0", allocs)
	}
	if picked == 0 || ro.err != nil {
		t.Errorf("split fleet picked %d times (err %v)", picked, ro.err)
	}

	ranked := newPool("", 8, mustPolicy(t, PredictedCost, Options{}))
	ro = drivenRouter(t, reqs, nil, ranked)
	now = float64(ro.ctl.Now())
	fab := ro.fab
	if !fab.lazy {
		t.Fatal("a predicted-cost pool without layers advances eagerly")
	}
	origin, routed, rekeyed := len(reqs)-1, 0, 0
	arrive := func() {
		// One replica's finish bound falls before the arrival: the
		// advance takes it from the root, catches it up and re-keys it.
		g := routed % len(ranked.engines)
		fab.sched[0].set(g, 0, 0, true)
		fab.advance(0, sim.Time(now), advBefore)
		k, ok := ro.route(ranked, r, now)
		if !ok || k < 0 {
			return
		}
		fab.touch(k)
		local := len(ranked.entries[k])
		ro.record(ranked, r, origin, k, local)
		ro.finished(ranked, k, local)
		// The hook re-keys the picked leaf in place.
		if ranked.tree.nodes[ranked.tree.size+k].key == ranked.out[k].CostTokens {
			rekeyed++
		}
		ranked.entries[k] = ranked.entries[k][:local]
		ranked.shards[k].Origin = ranked.shards[k].Origin[:local]
		fab.settle()
		routed++
	}
	if allocs := testing.AllocsPerRun(100, arrive); allocs != 0 {
		t.Errorf("a cost-ranked arrival allocates %v times per run, want 0", allocs)
	}
	if routed != 101 || rekeyed != routed {
		t.Errorf("routed %d of 101 arrivals, the finish hook re-keyed the picked leaf in %d", routed, rekeyed)
	}
	for g := range ranked.engines {
		if at := sim.Time(fab.sched[0].nodes[fab.sched[0].size+g].key); at != sim.Infinity {
			t.Errorf("drained replica %d keyed at %v after its catch-up, want Infinity", g, at)
		}
	}
}

// TestWarmestTies checks the holders' tie-break against prefix
// affinity's own: two equally warm holders of one group, listed with
// the higher index first, go to the lower index at equal cost and
// requests, to the one with fewer requests at equal cost, and to the
// cheaper one whatever their requests.
func TestWarmestTies(t *testing.T) {
	// Sixteen groups over eight replicas at saturation spread some groups
	// over two holders.
	reqs := prefixOnlineTrace(400, 41, 16000, 16, 512)
	colo := newPool("", 8, mustPolicy(t, PrefixAffinity, Options{}))
	ro := drivenRouter(t, reqs, nil, colo)
	now := float64(ro.ctl.Now())
	var r workload.Request
	lo, hi := -1, -1
	for _, q := range reqs {
		hs := colo.holders[q.PrefixGroup]
		for x, a := range hs {
			for _, b := range hs[x+1:] {
				if w := colo.engines[a].PrefixWarmTokens(q); lo < 0 && w > 0 && w == colo.engines[b].PrefixWarmTokens(q) {
					r, lo, hi = q, min(a, b), max(a, b)
				}
			}
		}
	}
	if lo < 0 {
		t.Fatal("no prefix group has two equally warm holders")
	}
	colo.holders[r.PrefixGroup] = []int{hi, lo}
	for _, c := range []struct {
		cost     [2]float64
		requests [2]int
		want     int
	}{
		{cost: [2]float64{100, 100}, requests: [2]int{3, 3}, want: lo},
		{cost: [2]float64{100, 100}, requests: [2]int{3, 2}, want: hi},
		{cost: [2]float64{100, 100}, requests: [2]int{2, 3}, want: lo},
		{cost: [2]float64{100, 90}, requests: [2]int{1, 5}, want: hi},
		{cost: [2]float64{90, 100}, requests: [2]int{5, 1}, want: lo},
	} {
		var loads [2]Load
		for j, k := range []int{lo, hi} {
			colo.out[k].CostTokens, colo.out[k].Requests = c.cost[j], c.requests[j]
			colo.fix(k)
			loads[j] = colo.out[k]
			loads[j].WarmTokens = colo.engines[k].PrefixWarmTokens(r)
		}
		if scan := []int{lo, hi}[prefixAffinity{}.Pick(r, loads[:])]; scan != c.want {
			t.Fatalf("cost %v requests %v: the scan picks %d, want %d", c.cost, c.requests, scan, c.want)
		}
		if k, ok := ro.route(colo, r, now); !ok || k != c.want {
			t.Errorf("cost %v requests %v: holders %v pick %d, the scan %d", c.cost, c.requests, colo.holders[r.PrefixGroup], k, c.want)
		}
	}
}

// drivenRouter runs reqs to the end on a router over pools and returns
// it with its engines still live, out of the fabric's tail, so that
// arrivals routed by hand book and retire as between control events.
func drivenRouter(t testing.TB, reqs []workload.Request, stack *policy.Stack, pools ...*pool) *router {
	t.Helper()
	ro := newTestRouter(t, reqs, stack, pools...)
	runToEnd(t, ro)
	ro.fab.tail = false
	return ro
}

// newTestRouter builds a router for reqs over pools, not yet driven.
func newTestRouter(t testing.TB, reqs []workload.Request, stack *policy.Stack, pools ...*pool) *router {
	t.Helper()
	ro, err := newRouter(fastConfig(2), reqs, 1, nil, stack, pools...)
	if err != nil {
		t.Fatal(err)
	}
	return ro
}

// runToEnd runs ro to the end and fails t on a router error.
func runToEnd(t testing.TB, ro *router) {
	t.Helper()
	ro.fab.run()
	if ro.err != nil {
		t.Fatal(ro.err)
	}
}

// Arrivals stream: the control timeline holds one first-time arrival at
// a time. A layer-free colocated fleet has no other control events, so
// at each arrival, once it scheduled the next, one event at most is
// pending; a split fleet under a fault plan starts with its first
// arrival and the plan's crashes and restarts alone.
func TestArrivalsStream(t *testing.T) {
	defer func() { arrivalCheck = nil }()
	for _, reqs := range [][]workload.Request{onlineTrace(200, 3, 400), smallTrace(120, 5)} {
		for _, name := range []string{LeastWork, RoundRobin, PrefixAffinity} {
			arrivals, most := 0, 0
			arrivalCheck = func(ro *router) {
				arrivals++
				most = max(most, ro.ctl.Pending())
			}
			serveRouter(t, fastConfig(2), reqs, nil, newPool("", 4, mustPolicy(t, name, Options{})))
			if arrivals != len(reqs) || most > 1 {
				t.Errorf("%s: %d arrivals of %d, up to %d control events pending at one", name, arrivals, len(reqs), most)
			}
		}
	}
	arrivalCheck = nil
	reqs := faultTrace(120, 19)
	plan, err := faults.NewPlan(faults.Config{Seed: 3, Horizon: 0.2, MTBF: 0.05, RestartDelay: 0.02}, 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Crashes) == 0 {
		t.Fatal("plan holds no crashes")
	}
	pre, dec := mustPolicy(t, LeastWork, Options{}), mustPolicy(t, DecodeAffinity, Options{})
	ro, err := newRouter(fastConfig(2), reqs, 1, plan, nil, newPool("prefill ", 1, pre), newPool("decode ", 2, dec))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ro.ctl.Pending(), 1+2*len(plan.Crashes); got != want {
		t.Fatalf("split fault router starts with %d control events, want %d", got, want)
	}
}
