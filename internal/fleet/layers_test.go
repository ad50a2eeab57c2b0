package fleet

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// layerRun is one fleet shape under test: it serves reqs with the given
// fault plan and policy stack (each may be nil) and returns the report
// and records.
type layerRun func(t *testing.T, reqs []workload.Request, plan *faults.Plan, stack *policy.Stack) (metrics.Report, []metrics.RequestRecord, error)

// layerFleets are a one-replica colocated fleet and a 1P+1D
// disaggregated one: replicas is the size fault plans index over, run
// serves through the public entry point and pools builds the router's
// pools for the same shape.
var layerFleets = []struct {
	name     string
	replicas int
	run      layerRun
	pools    func(t *testing.T) []*pool
}{
	{"colocated", 1, func(t *testing.T, reqs []workload.Request, plan *faults.Plan, stack *policy.Stack) (metrics.Report, []metrics.RequestRecord, error) {
		res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 1, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan, Stack: stack})
		if err != nil {
			return metrics.Report{}, nil, err
		}
		return res.Report, res.Records, nil
	}, func(t *testing.T) []*pool {
		return []*pool{newPool("", 1, mustPolicy(t, LeastWork, Options{}))}
	}},
	{"disagg", 2, func(t *testing.T, reqs []workload.Request, plan *faults.Plan, stack *policy.Stack) (metrics.Report, []metrics.RequestRecord, error) {
		res, err := Serve(fastConfig(2), reqs, ServeConfig{PrefillReplicas: 1, DecodeReplicas: 1, Faults: plan, Stack: stack})
		if err != nil {
			return metrics.Report{}, nil, err
		}
		return res.Report, res.Records, nil
	}, func(t *testing.T) []*pool {
		return []*pool{newPool("prefill ", 1, mustPolicy(t, LeastWork, Options{})), newPool("decode ", 1, mustPolicy(t, DecodeAffinity, Options{}))}
	}},
}

// A request too large for any replica's KV pool is dropped with a
// reason by a run that carries a fault plan or a policy stack, and
// fails a layer-free run, on both fleet shapes.
func TestOversizedRequestRule(t *testing.T) {
	reqs := faultTrace(40, 7)
	const big = 11
	reqs[big].InputLen = 1 << 26
	layers := []struct {
		name  string
		plan  *faults.Plan
		stack *policy.Stack
	}{
		{"no layer", nil, nil},
		{"plan", &faults.Plan{Config: faults.Config{CheckpointInterval: 0.05}}, nil},
		{"stack", nil, &policy.Stack{Breaker: &policy.BreakerConfig{}}},
	}
	for _, f := range layerFleets {
		for _, l := range layers {
			wantDrop := l.plan != nil || l.stack != nil
			rep, records, err := f.run(t, reqs, l.plan, l.stack)
			if !wantDrop {
				if !errors.Is(err, core.ErrRequestTooLarge) {
					t.Errorf("%s, %s: err = %v, want ErrRequestTooLarge", f.name, l.name, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s, %s: %v", f.name, l.name, err)
				continue
			}
			if records[big].Finished() {
				t.Errorf("%s, %s: the oversized request finished", f.name, l.name)
			}
			if rep.Requests != len(reqs)-1 || rep.Faults.Dropped+rep.Admission.Dropped != 1 {
				t.Errorf("%s, %s: %d finished, %d+%d dropped of %d", f.name, l.name,
					rep.Requests, rep.Faults.Dropped, rep.Admission.Dropped, len(reqs))
			}
		}
	}
}

// The crash retry budget is MaxRetries re-dispatches: a request whose
// replica crashes under it MaxRetries times still finishes, and one more
// crash drops it as "retry budget exhausted", with conservation intact,
// on both fleet shapes.
func TestRetryBudgetBoundary(t *testing.T) {
	reqs := []workload.Request{{ID: 0, InputLen: 64, OutputLen: 128}}
	const maxRetries = 2
	for _, f := range layerFleets {
		base, _, err := f.run(t, reqs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The last replica serves the request (its decode, on the split
		// fleet); each crash lands while the request is in flight there,
		// and the replica returns before the next one.
		e := base.Elapsed
		for crashes := maxRetries; crashes <= maxRetries+1; crashes++ {
			plan := &faults.Plan{Config: faults.Config{MaxRetries: maxRetries}, Replicas: f.replicas, Downtime: e / 20}
			for c := 0; c < crashes; c++ {
				at := e * (0.2 + 0.1*float64(c))
				plan.Crashes = append(plan.Crashes, faults.Crash{Replica: f.replicas - 1, At: at, RestartAt: at + e/20})
			}
			if err := faults.Validate(plan); err != nil {
				t.Fatal(err)
			}
			cfg := fastConfig(2)
			ro, err := newRouter(cfg, reqs, 1, plan, nil, f.pools(t)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, _, records, err := ro.serve(cfg, f.name)
			if err != nil {
				t.Fatalf("%s, %d crashes: %v", f.name, crashes, err)
			}
			if rep.Faults.AbortedRequests != crashes {
				t.Fatalf("%s, %d crashes aborted %d requests; the plan missed the request", f.name, crashes, rep.Faults.AbortedRequests)
			}
			wantDropped, wantReason := 0, ""
			if crashes > maxRetries {
				wantDropped, wantReason = 1, "retry budget exhausted"
			}
			if got := ro.led.droppedReason[0]; got != wantReason {
				t.Errorf("%s, %d crashes: drop reason %q, want %q", f.name, crashes, got, wantReason)
			}
			if records[0].Finished() != (wantDropped == 0) || rep.Faults.Dropped != wantDropped {
				t.Errorf("%s, %d crashes: finished=%v, dropped %d", f.name, crashes, records[0].Finished(), rep.Faults.Dropped)
			}
			if rep.Requests+rep.Faults.Dropped != len(reqs) {
				t.Errorf("%s, %d crashes: finished %d + dropped %d != %d", f.name, crashes, rep.Requests, rep.Faults.Dropped, len(reqs))
			}
		}
	}
}

// TestCrashEndsDrain crashes a draining replica: the crash loses its
// every resident request, so the drain is done at the crash instant and
// the replica's GPU-seconds stop there. Two replicas serve a burst; the
// first autoscaler tick drains replica 1 (the tie on outstanding work
// goes to the higher index) while it still holds work, the crash comes
// before that work could finish, and replica 0 serves to the end.
func TestCrashEndsDrain(t *testing.T) {
	cfg := fastConfig(1)
	reqs := smallTrace(64, 7)
	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
		Min: 1, Max: 2, Initial: 2, Interval: 0.01,
		ScaleUpQueue: 1e9, ScaleDownQueue: 1e8,
	})
	if err != nil {
		t.Fatal(err)
	}
	const crashAt = 0.015
	plan := &faults.Plan{Replicas: 2, Crashes: []faults.Crash{{Replica: 1, At: crashAt, RestartAt: crashAt + 0.01}}}
	res, err := Serve(cfg, reqs, ServeConfig{Replicas: 2, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan, Stack: &policy.Stack{Autoscaler: as}})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	checkConservation(t, res, len(reqs), rep.Faults.Dropped+rep.Admission.Dropped)
	if rep.Autoscale.ScaleDowns != 1 || rep.Faults.AbortedRequests == 0 {
		t.Fatalf("scenario did not crash a draining replica holding work: %+v %+v", rep.Autoscale, rep.Faults)
	}
	want := float64(cfg.World) * (rep.Elapsed + crashAt)
	if got := rep.Autoscale.GPUSeconds; math.Abs(got-want) > 1e-9*want {
		t.Errorf("GPU-seconds = %v, want %v (replica 0 to the end at %v, replica 1 to its crash at %v)", got, want, rep.Elapsed, crashAt)
	}
}
