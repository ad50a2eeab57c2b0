package fleet

import (
	"strings"
	"testing"

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
			res, err := RunOnlineWorkers(fastConfig(2), 4, mustPolicy(t, name, Options{Seed: 9}), reqs, 1)
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
			a, err := RunOnlineWorkers(fastConfig(2), 3, mustPolicy(t, name, Options{Seed: 3}), reqs, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunOnlineWorkers(fastConfig(2), 3, mustPolicy(t, name, Options{Seed: 3}), reqs, 1)
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
	res, err := RunOnlineWorkers(fastConfig(2), 4, mustPolicy(t, LeastWork, Options{}), reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range res.Shards {
		if len(sh.Reqs) == 0 {
			t.Errorf("replica %d received no requests", i)
		}
	}
}

// Bad arguments and broken policies must be rejected, not deadlock the
// co-simulation.
func TestRunOnlineRejectsBadArgs(t *testing.T) {
	reqs := onlineTrace(10, 1, 10)
	if _, err := RunOnlineWorkers(fastConfig(2), 0, mustPolicy(t, RoundRobin, Options{}), reqs, 1); err == nil {
		t.Error("replicas=0 accepted")
	}
	if _, err := RunOnlineWorkers(fastConfig(2), 2, nil, reqs, 1); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := RunOnlineWorkers(fastConfig(2), 2, outOfRange{}, reqs, 1); err == nil {
		t.Error("out-of-range pick accepted")
	}
}

// TestRouteSnapshotDoesNotAllocate pins one plain routed arrival's
// routing decision — the candidate snapshot with its live KV probes of
// every replica, then the policy pick — at zero allocations, on engines
// whose prefix caches still hold the request's shared prefix warm.
func TestRouteSnapshotDoesNotAllocate(t *testing.T) {
	reqs := prefixOnlineTrace(200, 41, 8000, 8, 512)
	ro, fab, err := newRouter(fastConfig(2), 8, mustPolicy(t, PrefixAffinity, Options{}), reqs, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fab.drive()
	if ro.err != nil {
		t.Fatal(ro.err)
	}
	r := reqs[len(reqs)-1]
	now := float64(ro.ctl.Now())
	warm := 0
	route := func() {
		loads := ro.snapshot(r, nil, now)
		if k, ok := ro.pick(r, loads); ok {
			warm = loads[k].WarmTokens
		}
	}
	if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
		t.Errorf("routing one arrival allocates %v times per run, want 0", allocs)
	}
	if warm == 0 {
		t.Error("the pick found no warm prefix; the probe walked no hash chain")
	}
	if _, err := finalize(ro.engines, nil); err != nil {
		t.Fatal(err)
	}
}
