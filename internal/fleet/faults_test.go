package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
)

// faultTrace is an arrival-stamped trace so crashes land mid-stream.
func faultTrace(n int, seed int64) []workload.Request {
	return workload.StampArrivals(smallTrace(n, seed), workload.Poisson{Rate: 2000}, seed+1)
}

// checkFaultConservation asserts the fault-run invariant from the
// outside: every trace request either finished (exactly one finished
// record, counted in Report.Requests) or was dropped with accounting in
// Report.Faults.Dropped — nothing lost silently.
func checkFaultConservation(t *testing.T, res *Result, n int) {
	t.Helper()
	if len(res.Records) != n {
		t.Fatalf("%d records for %d requests", len(res.Records), n)
	}
	finished := 0
	for _, rec := range res.Records {
		if rec.Finished() {
			finished++
		}
	}
	if finished != res.Report.Requests {
		t.Fatalf("%d finished records, report says %d", finished, res.Report.Requests)
	}
	if got := res.Report.Requests + res.Report.Faults.Dropped; got != n {
		t.Fatalf("finished %d + dropped %d = %d, want %d",
			res.Report.Requests, res.Report.Faults.Dropped, got, n)
	}
}

// An inactive plan must take the exact RunOnlineWorkers code path: reports and
// records bit-identical.
func TestRunOnlineFaultsInactivePlan(t *testing.T) {
	reqs := faultTrace(150, 3)
	cfg := fastConfig(2)
	p := mustPolicy(t, LeastWork, Options{})
	base, err := RunOnlineWorkers(cfg, 3, p, reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faults.Plan{nil, {Config: faults.Config{Seed: 9}, Replicas: 3}} {
		got, err := RunOnlineFaultsWorkers(cfg, 3, mustPolicy(t, LeastWork, Options{}), reqs, plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report != base.Report {
			t.Errorf("plan %v changed the report:\n%+v\n%+v", plan, got.Report, base.Report)
		}
		if !reflect.DeepEqual(got.Records, base.Records) {
			t.Errorf("plan %v changed the records", plan)
		}
	}
}

// The conservation property, across several seeds and aggressive MTBFs:
// crashes abort work mid-flight, recovery re-dispatches it, and every
// request ends exactly-once-finished xor dropped-with-reason. Run with
// -race in CI.
func TestRunOnlineFaultsConservation(t *testing.T) {
	cfg := fastConfig(2)
	const replicas = 3
	reqs := faultTrace(120, 7)
	base, err := RunOnlineWorkers(cfg, replicas, mustPolicy(t, LeastWork, Options{}), reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	horizon := base.Report.Elapsed
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, ckpt := range []float64{0, horizon / 6} {
			fc := faults.Config{
				Seed:               seed,
				Horizon:            horizon,
				MTBF:               horizon / 2,
				RestartDelay:       horizon / 10,
				CheckpointInterval: ckpt,
			}
			plan, err := faults.NewPlan(fc, replicas, fc.RestartDelay)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOnlineFaultsWorkers(cfg, replicas, mustPolicy(t, LeastWork, Options{}), reqs, plan, 1)
			if err != nil {
				t.Fatalf("seed %d ckpt %v: %v", seed, ckpt, err)
			}
			checkFaultConservation(t, res, len(reqs))
			f := res.Report.Faults
			if f.Crashes != len(plan.Crashes) {
				t.Errorf("seed %d: executed %d of %d planned crashes", seed, f.Crashes, len(plan.Crashes))
			}
			// Every abort is answered: recompute, checkpoint resume, or
			// a drop (end-of-run queue drops can add to the left side).
			if f.RecoveredRecompute+f.RecoveredCheckpoint+f.Dropped < f.AbortedRequests {
				t.Errorf("seed %d: %d aborts but only %d recoveries + %d drops",
					seed, f.AbortedRequests, f.RecoveredRecompute+f.RecoveredCheckpoint, f.Dropped)
			}
			if ckpt > 0 && len(plan.Crashes) > 0 && f.Checkpoints == 0 {
				t.Errorf("seed %d: checkpoint cadence %v took no checkpoints", seed, ckpt)
			}
		}
	}
}

// Fault runs are deterministic: the same seed, trace and config must
// produce byte-identical reports and records run-to-run.
func TestRunOnlineFaultsDeterministic(t *testing.T) {
	cfg := fastConfig(2)
	const replicas = 3
	reqs := faultTrace(100, 11)
	fc := faults.Config{
		Seed: 5, Horizon: 0.2, MTBF: 0.05, RestartDelay: 0.02,
		Stragglers: 1, StragglerFactor: 1.3,
		CheckpointInterval: 0.02,
	}
	plan, err := faults.NewPlan(fc, replicas, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for run := 0; run < 3; run++ {
		res, err := RunOnlineFaultsWorkers(cfg, replicas, mustPolicy(t, LeastWork, Options{}), reqs, plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Report  any
			Records any
		}{res.Report, res.Records})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && string(b) != string(prev) {
			t.Fatalf("run %d differs from run %d:\n%s\n%s", run, run-1, b, prev)
		}
		prev = b
	}
}

// Stragglers alone: no crashes, so nothing is dropped and everything
// finishes — just slower than the nominal fleet.
func TestRunOnlineFaultsStragglers(t *testing.T) {
	cfg := fastConfig(2)
	const replicas = 3
	reqs := faultTrace(100, 13)
	base, err := RunOnlineWorkers(cfg, replicas, mustPolicy(t, LeastWork, Options{}), reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.NewPlan(faults.Config{Seed: 2, Stragglers: 1, StragglerFactor: 2}, replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnlineFaultsWorkers(cfg, replicas, mustPolicy(t, LeastWork, Options{}), reqs, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != len(reqs) || res.Report.Faults.Dropped != 0 {
		t.Fatalf("straggler run lost requests: %+v", res.Report.Faults)
	}
	if res.Report.Elapsed <= base.Report.Elapsed {
		t.Errorf("a 2x straggler did not stretch the fleet makespan: %v vs %v",
			res.Report.Elapsed, base.Report.Elapsed)
	}
}

// An inactive plan on the disaggregated fleet takes the exact RunDisagg
// code path.
func TestRunDisaggFaultsInactivePlan(t *testing.T) {
	cfg := fastConfig(2)
	dc := DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 2}
	reqs := faultTrace(120, 17)
	base, err := RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDisaggFaults(cfg, dc, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report != base.Report {
		t.Errorf("nil plan changed the report:\n%+v\n%+v", got.Report, base.Report)
	}
	if !reflect.DeepEqual(got.Records, base.Records) {
		t.Error("nil plan changed the records")
	}
}

// Crash a decode replica while KV hand-offs are in flight: requests
// mid-hand-off must survive (they are resident nowhere during the
// transfer), decode-resident requests are aborted and recovered, and
// conservation holds across the whole episode. The plan is
// hand-crafted so the crash instant is guaranteed to sit inside the
// hand-off stream.
func TestRunDisaggFaultsCrashMidHandoff(t *testing.T) {
	cfg := fastConfig(2)
	dc := DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 2}
	reqs := faultTrace(120, 19)
	base, err := RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Handoffs == 0 {
		t.Fatal("trace produced no hand-offs")
	}
	mid := base.Report.Elapsed / 3
	for _, victim := range []int{1, 2} { // decode replicas (pool offset 1)
		plan := &faults.Plan{
			Config:   faults.Config{MaxRetries: 5},
			Replicas: dc.PrefillReplicas + dc.DecodeReplicas,
			Downtime: mid / 2,
			Crashes: []faults.Crash{
				{Replica: victim, At: mid, RestartAt: mid + mid/2},
			},
		}
		res, err := RunDisaggFaults(cfg, dc, reqs, plan)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if len(res.Records) != len(reqs) {
			t.Fatalf("victim %d: %d records for %d requests", victim, len(res.Records), len(reqs))
		}
		finished := 0
		for _, rec := range res.Records {
			if rec.Finished() {
				finished++
			}
		}
		if finished != res.Report.Requests {
			t.Fatalf("victim %d: %d finished records, report says %d", victim, finished, res.Report.Requests)
		}
		if got := res.Report.Requests + res.Report.Faults.Dropped; got != len(reqs) {
			t.Fatalf("victim %d: finished %d + dropped %d != %d",
				victim, res.Report.Requests, res.Report.Faults.Dropped, len(reqs))
		}
		if res.Report.Faults.Crashes != 1 {
			t.Fatalf("victim %d: %d crashes executed", victim, res.Report.Faults.Crashes)
		}
		if res.Report.Faults.AbortedRequests == 0 {
			t.Errorf("victim %d: crash at %v aborted nothing (crash later?)", victim, mid)
		}
	}
}

// Disagg fault runs are deterministic run-to-run, including KV-link
// degradation windows on the hand-off path.
func TestRunDisaggFaultsDeterministic(t *testing.T) {
	cfg := fastConfig(2)
	dc := DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 2}
	reqs := faultTrace(100, 23)
	base, err := RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	fc := faults.Config{
		Seed:              3,
		Horizon:           base.Report.Elapsed,
		MTBF:              base.Report.Elapsed / 2,
		RestartDelay:      base.Report.Elapsed / 10,
		LinkDegradeFrac:   0.3,
		LinkDegradeFactor: 4,
		LinkPartitionFrac: 0.2,
	}
	plan, err := faults.NewPlan(fc, dc.PrefillReplicas+dc.DecodeReplicas, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for run := 0; run < 3; run++ {
		res, err := RunDisaggFaults(cfg, dc, reqs, plan)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Report  any
			Records any
		}{res.Report, res.Records})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && string(b) != string(prev) {
			t.Fatalf("run %d differs", run)
		}
		prev = b
	}
}
