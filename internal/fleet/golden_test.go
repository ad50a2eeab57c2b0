package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/fleet/testdata golden digests")

const routerGoldenPath = "testdata/router_golden.json"

// goldenRun is one router configuration of TestParallelRouterGolden: run
// executes it at a worker count and returns the report and records, and
// check asserts that the run really exercised the layers it names.
type goldenRun struct {
	name  string
	run   func(t *testing.T, workers int) (metrics.Report, []metrics.RequestRecord)
	check func(t *testing.T, rep metrics.Report)
}

// goldenFaultPlan draws crashes, checkpoints, stragglers and rack-scoped
// power and network domain outages over a fleet of n replicas.
func goldenFaultPlan(t *testing.T, n int, horizon float64) *faults.Plan {
	t.Helper()
	fc := faults.Config{
		Seed:               7,
		Horizon:            horizon,
		MTBF:               horizon / 2,
		RestartDelay:       horizon / 20,
		Stragglers:         2,
		StragglerFactor:    1.4,
		LinkDegradeFrac:    0.25,
		LinkDegradeFactor:  3,
		LinkPartitionFrac:  0.125,
		CheckpointInterval: horizon / 12,
		Topology:           hw.Topology{Racks: 2},
		DomainMTBF:         horizon / 3,
		DomainKind:         faults.DomainMixed,
	}
	plan, err := faults.NewPlan(fc, n, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, d := range plan.Domains {
		kinds[d.Kind] = true
	}
	if !kinds[faults.DomainPower] || !kinds[faults.DomainNetwork] {
		t.Fatalf("plan over %d replicas lacks a power or a network domain outage: %+v", n, plan.Domains)
	}
	return plan
}

func goldenRuns() []goldenRun {
	cfg := fastConfig(2)
	prefix := prefixOnlineTrace(300, 41, 8000, 32, 512)
	faultReqs := faultTrace(240, 29)
	const faultHorizon = 0.2
	return []goldenRun{
		{name: "online-prefix-8", run: func(t *testing.T, workers int) (metrics.Report, []metrics.RequestRecord) {
			res, err := RunOnlineWorkers(cfg, 8, mustPolicy(t, PrefixAffinity, Options{}), prefix, workers)
			if err != nil {
				t.Fatal(err)
			}
			return res.Report, res.Records
		}, check: func(t *testing.T, rep metrics.Report) {
			if rep.PrefixCachedTokens == 0 {
				t.Error("no prefix reuse")
			}
		}},
		{name: "online-prefix-1", run: func(t *testing.T, workers int) (metrics.Report, []metrics.RequestRecord) {
			res, err := RunOnlineWorkers(cfg, 1, mustPolicy(t, PrefixAffinity, Options{}), prefix, workers)
			if err != nil {
				t.Fatal(err)
			}
			return res.Report, res.Records
		}},
		{name: "online-faults", run: func(t *testing.T, workers int) (metrics.Report, []metrics.RequestRecord) {
			plan := goldenFaultPlan(t, 6, faultHorizon)
			res, err := RunOnlineFaultsWorkers(cfg, 6, mustPolicy(t, LeastWork, Options{}), faultReqs, plan, workers)
			if err != nil {
				t.Fatal(err)
			}
			return res.Report, res.Records
		}, check: func(t *testing.T, rep metrics.Report) {
			f := rep.Faults
			if f.Crashes == 0 || f.DomainOutages == 0 || f.RecoveredCheckpoint == 0 || f.RecoveredRecompute == 0 {
				t.Errorf("fault layer idle: %+v", f)
			}
		}},
		{name: "online-elastic", run: func(t *testing.T, workers int) (metrics.Report, []metrics.RequestRecord) {
			reqs, err := workload.StampPriorities(
				workload.StampArrivals(smallTrace(300, 5), workload.Poisson{Rate: 4000}, 17),
				workload.PriorityConfig{Tiers: 2, HighFraction: 0.3, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			pcfg := fastConfig(1)
			pcfg.MemUtilization = 0.0005
			stack := elasticStack(t, 4)
			stack.Admission = policy.NewTokenBucket(2500, 32)
			res, err := RunOnlineElasticWorkers(pcfg, 4, mustPolicy(t, LeastWork, Options{}), reqs, stack, workers)
			if err != nil {
				t.Fatal(err)
			}
			return res.Report, res.Records
		}, check: func(t *testing.T, rep metrics.Report) {
			a, s := rep.Admission, rep.Autoscale
			if a.Shed == 0 || a.Retries == 0 || a.Preemptions == 0 || s.ScaleUps == 0 {
				t.Errorf("policy layer idle: %+v %+v", a, s)
			}
		}},
		{name: "disagg", run: func(t *testing.T, workers int) (metrics.Report, []metrics.RequestRecord) {
			res, err := RunDisagg(cfg, DisaggConfig{PrefillReplicas: 3, DecodeReplicas: 5, Workers: workers}, faultReqs)
			if err != nil {
				t.Fatal(err)
			}
			return res.Report, res.Records
		}},
		{name: "disagg-faults-policy", run: func(t *testing.T, workers int) (metrics.Report, []metrics.RequestRecord) {
			stack := decodeScalerStack(t, 5)
			stack.Breaker = &policy.BreakerConfig{FailureThreshold: 2, Cooldown: faultHorizon / 4}
			dc := DisaggConfig{PrefillReplicas: 3, DecodeReplicas: 5, Workers: workers, Stack: stack}
			res, err := RunDisaggFaults(cfg, dc, faultReqs, goldenFaultPlan(t, 8, faultHorizon))
			if err != nil {
				t.Fatal(err)
			}
			return res.Report, res.Records
		}, check: func(t *testing.T, rep metrics.Report) {
			if rep.Faults.Crashes == 0 || rep.Admission.BreakerTrips == 0 || rep.Autoscale.ScaleUps == 0 {
				t.Errorf("layers idle: %+v %+v %+v", rep.Faults, rep.Admission, rep.Autoscale)
			}
		}},
	}
}

// TestParallelRouterGolden pins every online and disaggregated router
// configuration to a committed digest: the SHA-256 of the JSON report
// and per-request records, identical at one worker and at four. The
// configurations cover plain routing with prefix affinity (8 replicas
// and a lone one), the fault layer (crashes, checkpoints, stragglers,
// power and network domain outages), the policy layer (autoscaler,
// admission, retry, breakers, preemption) and both disaggregated
// modes. Regenerate with `go test ./internal/fleet -run
// TestParallelRouterGolden -update` only when a change is meant to
// alter simulated output.
func TestParallelRouterGolden(t *testing.T) {
	got := map[string]string{}
	for _, g := range goldenRuns() {
		for _, workers := range []int{1, 4} {
			rep, records := g.run(t, workers)
			if g.check != nil && workers == 1 {
				g.check(t, rep)
			}
			b, err := json.Marshal(struct {
				Report  any
				Records any
			}{rep, records})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			digest := hex.EncodeToString(sum[:])
			if prev, ok := got[g.name]; ok && prev != digest {
				t.Errorf("%s: workers=%d diverges from workers=1", g.name, workers)
			}
			got[g.name] = digest
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(routerGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routerGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(routerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, golden %s", name, d, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, test ran %d", len(want), len(got))
	}
}
