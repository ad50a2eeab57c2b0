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
	"repro/internal/workload"
)

// Chaos harness: randomized-but-seeded fault plans swept across domain
// shapes, outage kinds, checkpoint cadences and (in long mode) retry
// budgets, served by both fleet fault routers with the parallel fabric
// at one and four workers. Every run must satisfy the exactly-once
// invariant — each trace request finished exactly once XOR carries a
// drop reason — and every (scenario, router) pair must produce
// byte-identical reports run-to-run and across worker counts. The
// harness lives outside package faults (faults cannot import fleet),
// which also means it exercises only the exported surface.
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

// checkChaosConservation asserts exactly-once finished-xor-dropped
// from the outside: the record count matches the trace, finished
// records match the report, and finished + dropped covers everything.
func checkChaosConservation(t *testing.T, label string, report metrics.Report, records []metrics.RequestRecord, n int) {
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
	if got := report.Requests + report.Faults.Dropped; got != n {
		t.Fatalf("%s: finished %d + dropped %d = %d, want %d",
			label, report.Requests, report.Faults.Dropped, got, n)
	}
}

// TestChaosSweep is the harness core: every scenario's plan is drawn
// seeded, layered over light independent crash pressure, and served by
// the online and disaggregated fault routers at one and four workers.
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
	base, err := fleet.RunOnlineWorkers(cfg, replicas, policy(), reqs, 1)
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

				// Online fault router: two runs at one worker (run-to-run
				// identity), one at four (cross-worker identity).
				var online string
				for i, workers := range []int{1, 1, 4} {
					res, err := fleet.RunOnlineFaultsWorkers(cfg, replicas, policy(), reqs, plan, workers)
					if err != nil {
						t.Fatalf("online workers=%d: %v", workers, err)
					}
					label := fmt.Sprintf("online workers=%d", workers)
					checkChaosConservation(t, label, res.Report, res.Records, n)
					if got := res.Report.Faults.DomainOutages; got != len(plan.Domains) {
						t.Errorf("%s: %d domain outages reported, plan has %d", label, got, len(plan.Domains))
					}
					b := marshalChaos(t, res.Report, res.Records)
					if i > 0 && b != online {
						t.Fatalf("%s diverged from the first run", label)
					}
					online = b
				}

				// Disaggregated fault router, same sweep.
				var disagg string
				for i, workers := range []int{1, 1, 4} {
					d := dc
					d.Workers = workers
					res, err := fleet.RunDisaggFaults(cfg, d, reqs, plan)
					if err != nil {
						t.Fatalf("disagg workers=%d: %v", workers, err)
					}
					label := fmt.Sprintf("disagg workers=%d", workers)
					checkChaosConservation(t, label, res.Report, res.Records, n)
					b := marshalChaos(t, res.Report, res.Records)
					if i > 0 && b != disagg {
						t.Fatalf("%s diverged from the first run", label)
					}
					disagg = b
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

	obase, err := fleet.RunOnlineWorkers(cfg, replicas, policy(), reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	dbase, err := fleet.RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faults.Plan{nil, inactive} {
		ores, err := fleet.RunOnlineFaultsWorkers(cfg, replicas, policy(), reqs, plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalChaos(t, ores.Report, ores.Records), marshalChaos(t, obase.Report, obase.Records); got != want {
			t.Errorf("inactive plan %v perturbed the online run", plan)
		}
		dres, err := fleet.RunDisaggFaults(cfg, dc, reqs, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalChaos(t, dres.Report, dres.Records), marshalChaos(t, dbase.Report, dbase.Records); got != want {
			t.Errorf("inactive plan %v perturbed the disagg run", plan)
		}
	}
}
