package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/workload"
)

// faultTrace is an arrival-stamped trace so crashes land mid-stream.
func faultTrace(n int, seed int64) []workload.Request {
	return workload.StampArrivals(smallTrace(n, seed), workload.Poisson{Rate: 2000}, seed+1)
}

// checkConservation asserts the routed-run invariant from the outside:
// every trace request either finished (exactly one finished record,
// counted in Report.Requests) or was dropped and counted in dropped —
// nothing lost silently.
func checkConservation(t *testing.T, res *Result, n, dropped int) {
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
	if got := res.Report.Requests + dropped; got != n {
		t.Fatalf("finished %d + dropped %d = %d, want %d", res.Report.Requests, dropped, got, n)
	}
}

// An inactive plan must take the exact layer-free Serve code path:
// reports and records bit-identical.
func TestRunOnlineFaultsInactivePlan(t *testing.T) {
	reqs := faultTrace(150, 3)
	cfg := fastConfig(2)
	p := mustPolicy(t, LeastWork, Options{})
	base, err := Serve(cfg, reqs, ServeConfig{Replicas: 3, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faults.Plan{nil, {Config: faults.Config{Seed: 9}, Replicas: 3}} {
		got, err := Serve(cfg, reqs, ServeConfig{Replicas: 3, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan})
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
	base, err := Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: mustPolicy(t, LeastWork, Options{})})
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
			res, err := Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan})
			if err != nil {
				t.Fatalf("seed %d ckpt %v: %v", seed, ckpt, err)
			}
			checkConservation(t, res, len(reqs), res.Report.Faults.Dropped)
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
		res, err := Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan})
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
	base, err := Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: mustPolicy(t, LeastWork, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.NewPlan(faults.Config{Seed: 2, Stragglers: 1, StragglerFactor: 2}, replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan})
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

// An inactive plan on the disaggregated fleet takes the exact
// fault-free split code path.
func TestRunDisaggFaultsInactivePlan(t *testing.T) {
	cfg := fastConfig(2)
	dc := ServeConfig{PrefillReplicas: 1, DecodeReplicas: 2}
	reqs := faultTrace(120, 17)
	base, err := Serve(cfg, reqs, dc)
	if err != nil {
		t.Fatal(err)
	}
	dc.Faults = &faults.Plan{Replicas: 3}
	got, err := Serve(cfg, reqs, dc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report != base.Report {
		t.Errorf("inactive plan changed the report:\n%+v\n%+v", got.Report, base.Report)
	}
	if !reflect.DeepEqual(got.Records, base.Records) {
		t.Error("inactive plan changed the records")
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
	dc := ServeConfig{PrefillReplicas: 1, DecodeReplicas: 2}
	reqs := faultTrace(120, 19)
	base, err := Serve(cfg, reqs, dc)
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
		dc.Faults = plan
		res, err := Serve(cfg, reqs, dc)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		checkConservation(t, res, len(reqs), res.Report.Faults.Dropped)
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
	dc := ServeConfig{PrefillReplicas: 1, DecodeReplicas: 2}
	reqs := faultTrace(100, 23)
	base, err := Serve(cfg, reqs, dc)
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
	dc.Faults = plan
	var prev []byte
	for run := 0; run < 3; run++ {
		res, err := Serve(cfg, reqs, dc)
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

// TestServeFaultsWithPolicy runs the fault and policy layers together
// on a colocated fleet whose breakers trip while crashes and rack
// outages hit it: a request with no candidate waits on the retry
// schedule unless every active replica is dead, so the run ends. Every
// request finishes exactly once or is dropped into one of the two
// layers' counters, and the bytes match at one worker and at four.
func TestServeFaultsWithPolicy(t *testing.T) {
	reqs, err := workload.StampPriorities(
		workload.StampArrivals(smallTrace(300, 1), workload.Poisson{Rate: 3000}, 2),
		workload.PriorityConfig{Tiers: 2, HighFraction: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(1)
	cfg.MemUtilization = 0.0005
	fc := faults.Config{
		Seed:               1,
		Horizon:            0.2,
		MTBF:               0.1,
		RestartDelay:       0.01,
		CheckpointInterval: 0.02,
		Topology:           hw.Topology{Racks: 2},
		DomainMTBF:         0.1,
		DomainKind:         faults.DomainMixed,
	}
	plan, err := faults.NewPlan(fc, 4, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		res, err := Serve(cfg, reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan, Stack: elasticStack(t, 4)})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		checkConservation(t, res, len(reqs), rep.Faults.Dropped+rep.Admission.Dropped)
		if workers == 1 && (rep.Faults.Crashes == 0 || rep.Admission.BreakerTrips == 0 || rep.Admission.Retries == 0) {
			t.Errorf("layers idle: %+v %+v", rep.Faults, rep.Admission)
		}
		if want := "FleetFaultsElastic(TD-Pipe/least-work)x4"; rep.Scheduler != want {
			t.Errorf("scheduler label = %q, want %q", rep.Scheduler, want)
		}
		b := fullJSON(t, rep, res.Records)
		if prev != nil && string(b) != string(prev) {
			t.Fatalf("workers=%d diverges from workers=1", workers)
		}
		prev = b
	}
}
