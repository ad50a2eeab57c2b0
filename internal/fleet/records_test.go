package fleet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workload"
)

// serveRouter runs a routed fleet of the given pools like serve does
// and returns the router with its replicas' results, so a test can
// query the engines after the run.
func serveRouter(t *testing.T, cfg core.Config, reqs []workload.Request, plan *faults.Plan, pools ...*pool) (*router, []*core.Result) {
	t.Helper()
	ro, err := newRouter(cfg, reqs, 1, plan, nil, pools...)
	if err != nil {
		t.Fatal(err)
	}
	_, results, _, err := ro.serve(cfg, "test")
	if err != nil {
		t.Fatal(err)
	}
	return ro, results
}

// checkTTFTRecords asserts that every replica's RequestTTFT agrees, for
// each local id whose record finished, with FirstToken - Arrival of that
// replica's Result.Records entry, and returns how many ids it checked.
func checkTTFTRecords(t *testing.T, ro *router, results []*core.Result) int {
	t.Helper()
	checked := 0
	for g, e := range ro.engines {
		for local, rec := range results[g].Records {
			if !rec.Finished() {
				continue
			}
			got, ok := e.RequestTTFT(local)
			if want := rec.FirstToken - rec.Arrival; !ok || got != want {
				t.Fatalf("replica %d local %d: RequestTTFT %v, %v; record says %v", g, local, got, ok, want)
			}
			checked++
		}
	}
	return checked
}

// RequestTTFT, asked after the run, answers every finished local id from
// the same instants its replica's records hold: on a colocated fleet
// whose crashes abort work that recovery resubmits by recompute and from
// checkpoints, and on a split fleet, whose prefill replicas retire each
// request at its hand-off.
func TestRequestTTFTMatchesRecords(t *testing.T) {
	cfg := fastConfig(2)
	reqs := faultTrace(100, 11)
	fc := faults.Config{Seed: 5, Horizon: 0.2, MTBF: 0.05, RestartDelay: 0.02, CheckpointInterval: 0.02}
	plan, err := faults.NewPlan(fc, 3, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	ro, results := serveRouter(t, cfg, reqs, plan, newPool("", 3, mustPolicy(t, LeastWork, Options{})))
	crashes := 0
	for _, e := range ro.engines {
		crashes += e.Crashes()
	}
	if f := ro.fstats; crashes == 0 || f.RecoveredRecompute == 0 || f.RecoveredCheckpoint == 0 {
		t.Fatalf("fault run crashed %d times with %d recompute and %d checkpoint recoveries", crashes, f.RecoveredRecompute, f.RecoveredCheckpoint)
	}
	if n := checkTTFTRecords(t, ro, results); n < len(reqs)/2 {
		t.Fatalf("colocated fault run: only %d finished records checked", n)
	}

	pre, dec := mustPolicy(t, LeastWork, Options{}), mustPolicy(t, DecodeAffinity, Options{})
	ro, results = serveRouter(t, cfg, faultTrace(120, 19), nil, newPool("prefill ", 1, pre), newPool("decode ", 2, dec))
	if ro.handoffs == 0 {
		t.Fatal("split run handed nothing off")
	}
	if n := checkTTFTRecords(t, ro, results); n < 120 {
		t.Fatalf("split run: only %d finished records checked", n)
	}
}
