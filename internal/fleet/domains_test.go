package fleet

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/policy"
)

// marshalRun serializes the comparable surface of a fleet result for
// byte-identity assertions.
func marshalRun(t *testing.T, report, records any) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Report  any
		Records any
	}{report, records})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A correlated power-outage plan on the online fault router: whole
// racks crash together, recovery re-dispatches the aborted work, and
// the exactly-once invariant holds — byte-identically across worker
// counts.
func TestRunOnlineFaultsDomainPower(t *testing.T) {
	cfg := fastConfig(2)
	const replicas = 4
	reqs := faultTrace(120, 37)
	base, err := Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: mustPolicy(t, LeastWork, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	horizon := base.Report.Elapsed
	fc := faults.Config{
		Seed:         11,
		Horizon:      horizon,
		RestartDelay: horizon / 10,
		Topology:     hw.Topology{Racks: 2},
		DomainMTBF:   horizon / 3,
		DomainKind:   faults.DomainPower,
	}
	plan, err := faults.NewPlan(fc, replicas, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) == 0 {
		t.Fatal("seed drew no domain outages; pick another seed")
	}
	var prev []byte
	for _, workers := range []int{1, 4} {
		res, err := Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: mustPolicy(t, LeastWork, Options{}), Workers: workers, Faults: plan})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		checkConservation(t, res, len(reqs), res.Report.Faults.Dropped)
		f := res.Report.Faults
		if f.DomainOutages != len(plan.Domains) {
			t.Errorf("workers %d: report carries %d domain outages, plan has %d",
				workers, f.DomainOutages, len(plan.Domains))
		}
		if f.Crashes != len(plan.Crashes) {
			t.Errorf("workers %d: executed %d of %d materialized crashes",
				workers, f.Crashes, len(plan.Crashes))
		}
		b := marshalRun(t, res.Report, res.Records)
		if prev != nil && string(b) != string(prev) {
			t.Fatalf("workers %d diverged from workers 1", workers)
		}
		prev = b
	}
}

// A network domain outage on the disaggregated fleet: members survive
// (nothing crashes, nothing drops) but their KV links partition, so
// hand-offs stall until the outage lifts and the makespan stretches.
func TestRunDisaggFaultsDomainNetwork(t *testing.T) {
	cfg := fastConfig(2)
	dc := DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2}
	reqs := faultTrace(120, 41)
	base, err := RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Handoffs == 0 {
		t.Fatal("trace produced no hand-offs")
	}
	horizon := base.Report.Elapsed
	fc := faults.Config{
		Seed:       7,
		Horizon:    horizon,
		Topology:   hw.Topology{Racks: 2},
		DomainMTBF: horizon / 3,
		DomainKind: faults.DomainNetwork,
	}
	plan, err := faults.NewPlan(fc, dc.PrefillReplicas+dc.DecodeReplicas, horizon/4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) == 0 {
		t.Fatal("seed drew no domain outages; pick another seed")
	}
	dc.Faults = plan
	var prev []byte
	for run := 0; run < 2; run++ {
		res, err := RunDisagg(cfg, dc, reqs)
		if err != nil {
			t.Fatal(err)
		}
		f := res.Report.Faults
		if f.Crashes != 0 || f.Dropped != 0 {
			t.Fatalf("network outages crashed %d / dropped %d; they must only partition links", f.Crashes, f.Dropped)
		}
		if res.Report.Requests != len(reqs) {
			t.Fatalf("finished %d of %d under a pure network outage", res.Report.Requests, len(reqs))
		}
		if f.DomainOutages != len(plan.Domains) {
			t.Errorf("report carries %d domain outages, plan has %d", f.DomainOutages, len(plan.Domains))
		}
		if res.Report.Elapsed < base.Report.Elapsed {
			t.Errorf("partitioned run finished earlier than the clean run: %v < %v",
				res.Report.Elapsed, base.Report.Elapsed)
		}
		b := marshalRun(t, res.Report, res.Records)
		if prev != nil && string(b) != string(prev) {
			t.Fatal("network-domain run not deterministic")
		}
		prev = b
	}
}

// A breaker-carrying stack without any failure source must not perturb
// the disaggregated run: no breaker ever opens, so routing, records
// and the report match the stackless run (Admission stays zero).
func TestRunDisaggBreakerFaultFree(t *testing.T) {
	cfg := fastConfig(2)
	reqs := faultTrace(120, 43)
	base, err := RunDisagg(cfg, DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 2}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	dc := DisaggConfig{
		PrefillReplicas: 1, DecodeReplicas: 2,
		Stack: &policy.Stack{Breaker: &policy.BreakerConfig{}},
	}
	res, err := RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != base.Report {
		t.Errorf("idle breakers changed the report:\n%+v\n%+v", res.Report, base.Report)
	}
}

// Repeated crashes of one decode replica open its breaker: routing
// stops offering it hand-offs (skips accounted), the trip lands in the
// admission stats, and conservation still holds.
func TestRunDisaggBreakerTripsOnCrashes(t *testing.T) {
	cfg := fastConfig(2)
	dc := DisaggConfig{
		PrefillReplicas: 1, DecodeReplicas: 2,
		Stack: &policy.Stack{Breaker: &policy.BreakerConfig{
			FailureThreshold: 2,
			Cooldown:         1000, // virtual seconds: stays open for the whole run
		}},
	}
	reqs := faultTrace(120, 19)
	base, err := RunDisagg(cfg, DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 2}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	e := base.Report.Elapsed
	victim := 2 // decode replica 1 (pool offset 1)
	plan := &faults.Plan{
		Config:   faults.Config{MaxRetries: 5},
		Replicas: 3,
		Downtime: e / 20,
		Crashes: []faults.Crash{
			{Replica: victim, At: e / 4, RestartAt: e/4 + e/20},
			{Replica: victim, At: e/4 + e/10, RestartAt: e/4 + e/10 + e/20},
		},
	}
	if err := faults.Validate(plan); err != nil {
		t.Fatal(err)
	}
	dc.Faults = plan
	res, err := RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report.Requests + res.Report.Faults.Dropped; got != len(reqs) {
		t.Fatalf("finished %d + dropped %d != %d", res.Report.Requests, res.Report.Faults.Dropped, len(reqs))
	}
	adm := res.Report.Admission
	if adm.BreakerTrips == 0 {
		t.Error("two crashes under FailureThreshold 2 tripped no breaker")
	}
	if adm.BreakerSkips == 0 {
		t.Error("an open breaker was never skipped in routing")
	}
}
