package faults_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Chaos harness: randomized-but-seeded fault plans swept across domain
// shapes, outage kinds, checkpoint cadences and (in long mode) retry
// budgets, served by the fleet router's fault layer on a colocated and a
// disaggregated fleet, and by the fault layer together with a policy
// stack of every component (admission, retry, breakers, autoscaler,
// preemption) on a colocated fleet, with the parallel fabric at one and
// four workers. Every run must satisfy the exactly-once invariant —
// each trace request finished exactly once XOR carries a drop reason,
// counted in Report.Faults.Dropped or Report.Admission.Dropped — and
// every (scenario, fleet) pair must produce byte-identical reports
// run-to-run and across worker counts. The harness lives outside
// package faults (faults cannot import fleet), which also means it
// exercises only the exported surface.
//
// The short sweep runs in CI (`make chaos`); TDPIPE_CHAOS_LONG=1 widens
// the seed set and varies the retry budget.

// chaosConfig mirrors the fleet test configuration: Tiny model on the
// L20 node, milliseconds of wall time per run.
func chaosConfig() core.Config {
	cfg := core.DefaultConfig(hw.L20, model.Tiny, 2)
	cfg.ReserveGB = 0
	cfg.MaxPrefillTokens = 512
	cfg.PeakProfileBatch = 128
	return cfg
}

// chaosTrace is an arrival-stamped trace so outages land mid-stream.
func chaosTrace(n int, seed int64) []workload.Request {
	wc := workload.DefaultConfig(n, seed)
	wc.MaxInputLen = 255
	wc.MaxOutputLen = 128
	wc.InputLogMean = 4.0
	return workload.StampArrivals(workload.MustGenerate(wc), workload.Poisson{Rate: 2000}, seed+1)
}

// chaosScenario is one cell of the sweep.
type chaosScenario struct {
	name     string
	topo     hw.Topology
	kind     string
	zoneFrac float64
	ckptFrac float64 // checkpoint cadence as a fraction of the horizon (0 = off)
	retries  int
}

// chaosScenarios enumerates the sweep: domain shapes x outage kinds x
// checkpoint cadences, with retry budgets added in long mode.
func chaosScenarios(long bool) []chaosScenario {
	shapes := []struct {
		label string
		topo  hw.Topology
		zf    float64
	}{
		{"rack2", hw.Topology{Racks: 2}, 0},
		{"zone", hw.Topology{Racks: 4, RacksPerZone: 2}, 0.5},
	}
	kinds := []string{faults.DomainPower, faults.DomainNetwork, faults.DomainMixed}
	cadences := []float64{0, 1.0 / 8}
	budgets := []int{3}
	if long {
		budgets = []int{1, 3}
	}
	var out []chaosScenario
	for _, sh := range shapes {
		for _, kind := range kinds {
			for _, ck := range cadences {
				for _, budget := range budgets {
					ckLabel := "off"
					if ck > 0 {
						ckLabel = "h/8"
					}
					out = append(out, chaosScenario{
						name:     fmt.Sprintf("%s-%s-ckpt_%s-retry%d", sh.label, kind, ckLabel, budget),
						topo:     sh.topo,
						kind:     kind,
						zoneFrac: sh.zf,
						ckptFrac: ck,
						retries:  budget,
					})
				}
			}
		}
	}
	return out
}

// marshalChaos serializes the comparable surface of a run.
func marshalChaos(t *testing.T, report metrics.Report, records []metrics.RequestRecord) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Report  metrics.Report
		Records []metrics.RequestRecord
	}{report, records})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// chaosStack is a policy stack with every component, paced to a run of
// the given horizon; it is stateful, so every run builds its own.
func chaosStack(t *testing.T, horizon float64) *policy.Stack {
	t.Helper()
	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
		Min: 1, Max: 4, Interval: horizon / 8, ScaleUpQueue: 4, ScaleDownQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &policy.Stack{
		Admission:  policy.NewTokenBucket(1500, 16),
		Retry:      policy.NewBackoff(policy.BackoffConfig{Base: horizon / 20, Max: horizon / 4, Jitter: 0.2, Seed: 3}),
		Breaker:    &policy.BreakerConfig{FailureThreshold: 4, Cooldown: horizon / 4, HalfOpenSuccesses: 2},
		Autoscaler: as,
		Preemption: &policy.PreemptionConfig{},
	}
}

// checkChaosConservation asserts exactly-once finished-xor-dropped
// from the outside: the record count matches the trace, finished
// records match the report, and finished + dropped covers everything.
func checkChaosConservation(t *testing.T, label string, report metrics.Report, records []metrics.RequestRecord, n, dropped int) {
	t.Helper()
	if len(records) != n {
		t.Fatalf("%s: %d records for %d requests", label, len(records), n)
	}
	finished := 0
	for _, rec := range records {
		if rec.Finished() {
			finished++
		}
	}
	if finished != report.Requests {
		t.Fatalf("%s: %d finished records, report says %d", label, finished, report.Requests)
	}
	if got := report.Requests + dropped; got != n {
		t.Fatalf("%s: finished %d + dropped %d = %d, want %d", label, report.Requests, dropped, got, n)
	}
}

// TestChaosSweep is the harness core: every scenario's plan is drawn
// seeded, layered over light independent crash pressure, and served on
// the colocated fleet without and with a full policy stack and on the
// disaggregated fleet, at one and four workers.
func TestChaosSweep(t *testing.T) {
	long := os.Getenv("TDPIPE_CHAOS_LONG") == "1"
	cfg := chaosConfig()
	const replicas = 4
	dc := fleet.DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2}
	reqs := chaosTrace(100, 47)
	n := len(reqs)

	policy := func() fleet.Policy {
		p, err := fleet.New(fleet.LeastWork, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, err := fleet.Serve(cfg, reqs, fleet.ServeConfig{Replicas: replicas, Policy: policy()})
	if err != nil {
		t.Fatal(err)
	}
	horizon := base.Report.Elapsed

	seeds := []int64{101}
	if long {
		seeds = []int64{101, 202, 303}
	}
	for _, sc := range chaosScenarios(long) {
		for _, seed := range seeds {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				fc := faults.Config{
					Seed:               seed,
					Horizon:            horizon,
					MTBF:               horizon, // light independent pressure under the domains
					RestartDelay:       horizon / 10,
					CheckpointInterval: sc.ckptFrac * horizon,
					MaxRetries:         sc.retries,
					Topology:           sc.topo,
					DomainMTBF:         horizon / 3,
					DomainKind:         sc.kind,
					ZoneFrac:           sc.zoneFrac,
				}
				plan, err := faults.NewPlan(fc, replicas, fc.RestartDelay)
				if err != nil {
					t.Fatal(err)
				}
				if err := faults.Validate(plan); err != nil {
					t.Fatalf("generated plan invalid: %v", err)
				}

				// Each leg runs twice at one worker (run-to-run identity)
				// and once at four (cross-worker identity): the colocated
				// fault router, the same plan under a policy stack of every
				// component, and the disaggregated fault router. dropped
				// sums the drop counters the leg's layers report.
				type outcome struct {
					report  metrics.Report
					records []metrics.RequestRecord
					dropped int
				}
				legs := []struct {
					name string
					run  func(workers int) (outcome, error)
				}{
					{"online", func(workers int) (outcome, error) {
						res, err := fleet.Serve(cfg, reqs, fleet.ServeConfig{Replicas: replicas, Policy: policy(), Workers: workers, Faults: plan})
						if err != nil {
							return outcome{}, err
						}
						return outcome{res.Report, res.Records, res.Report.Faults.Dropped}, nil
					}},
					{"online+policy", func(workers int) (outcome, error) {
						res, err := fleet.Serve(cfg, reqs, fleet.ServeConfig{Replicas: replicas, Policy: policy(), Workers: workers, Faults: plan, Stack: chaosStack(t, horizon)})
						if err != nil {
							return outcome{}, err
						}
						return outcome{res.Report, res.Records, res.Report.Faults.Dropped + res.Report.Admission.Dropped}, nil
					}},
					{"disagg", func(workers int) (outcome, error) {
						d := dc
						d.Workers, d.Faults = workers, plan
						res, err := fleet.RunDisagg(cfg, d, reqs)
						if err != nil {
							return outcome{}, err
						}
						return outcome{res.Report, res.Records, res.Report.Faults.Dropped}, nil
					}},
				}
				for _, leg := range legs {
					var first string
					for i, workers := range []int{1, 1, 4} {
						label := fmt.Sprintf("%s workers=%d", leg.name, workers)
						out, err := leg.run(workers)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						checkChaosConservation(t, label, out.report, out.records, n, out.dropped)
						if got := out.report.Faults.DomainOutages; got != len(plan.Domains) {
							t.Errorf("%s: %d domain outages reported, plan has %d", label, got, len(plan.Domains))
						}
						b := marshalChaos(t, out.report, out.records)
						if i > 0 && b != first {
							t.Fatalf("%s diverged from the first run", label)
						}
						first = b
					}
				}
			})
		}
	}
}

// TestChaosInactivePlan pins the fault-free contract: a plan that
// draws nothing (or nil) must reproduce the clean run bit for bit on
// both routers.
func TestChaosInactivePlan(t *testing.T) {
	cfg := chaosConfig()
	const replicas = 4
	dc := fleet.DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2}
	reqs := chaosTrace(100, 53)

	policy := func() fleet.Policy {
		p, err := fleet.New(fleet.LeastWork, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	inactive, err := faults.NewPlan(faults.Config{Seed: 9}, replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inactive.Active() {
		t.Fatal("empty config produced an active plan")
	}

	obase, err := fleet.Serve(cfg, reqs, fleet.ServeConfig{Replicas: replicas, Policy: policy()})
	if err != nil {
		t.Fatal(err)
	}
	dbase, err := fleet.RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faults.Plan{nil, inactive} {
		ores, err := fleet.Serve(cfg, reqs, fleet.ServeConfig{Replicas: replicas, Policy: policy(), Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalChaos(t, ores.Report, ores.Records), marshalChaos(t, obase.Report, obase.Records); got != want {
			t.Errorf("inactive plan %v perturbed the online run", plan)
		}
		pdc := dc
		pdc.Faults = plan
		dres, err := fleet.RunDisagg(cfg, pdc, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalChaos(t, dres.Report, dres.Records), marshalChaos(t, dbase.Report, dbase.Records); got != want {
			t.Errorf("inactive plan %v perturbed the disagg run", plan)
		}
	}
}
