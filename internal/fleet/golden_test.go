package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
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
// executes it at a worker count and returns what the digest covers, and
// check asserts that the run really exercised the layers it names.
type goldenRun struct {
	name  string
	run   func(t *testing.T) goldenOut
	check func(t *testing.T, out goldenOut)
}

// goldenOut is the digested outcome of one golden run: the report, the
// per-request records and, for a disaggregated run, its hand-off
// accounting and both pools' routing.
type goldenOut struct {
	Report  metrics.Report
	Records []metrics.RequestRecord
	Disagg  *goldenDisagg `json:",omitempty"`
}

// goldenDisagg is the part of a split fleet's Result the report does
// not carry.
type goldenDisagg struct {
	Handoffs, QueuedHandoffs    int
	TransferredBytes            float64
	PrefillOrigin, DecodeOrigin [][]int
}

func serveOut(t *testing.T, res *Result, err error) goldenOut {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return goldenOut{Report: res.Report, Records: res.Records}
}

func disaggOut(t *testing.T, res *Result, err error) goldenOut {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	origins := func(shards []Shard) [][]int {
		o := make([][]int, len(shards))
		for i, sh := range shards {
			o[i] = sh.Origin
		}
		return o
	}
	return goldenOut{Report: res.Report, Records: res.Records, Disagg: &goldenDisagg{
		Handoffs:         res.Handoffs,
		QueuedHandoffs:   res.QueuedHandoffs,
		TransferredBytes: res.TransferredBytes,
		PrefillOrigin:    origins(res.Shards[:res.PrefillReplicas]),
		DecodeOrigin:     origins(res.Shards[res.PrefillReplicas:]),
	}}
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

// goldenPriorityTrace is a two-tier priority-stamped Poisson trace
// dense enough to shed, retry and trip breakers under elasticStack.
func goldenPriorityTrace(t *testing.T) []workload.Request {
	t.Helper()
	reqs, err := workload.StampPriorities(
		workload.StampArrivals(smallTrace(300, 5), workload.Poisson{Rate: 4000}, 17),
		workload.PriorityConfig{Tiers: 2, HighFraction: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// goldenPoissonTrace is a Poisson trace fast enough that most arrivals
// find every one of 64 replicas busy, so predicted-cost ranks live,
// unequal loads.
func goldenPoissonTrace() []workload.Request {
	return workload.StampArrivals(smallTrace(1500, 31), workload.Poisson{Rate: 6000}, 37)
}

func goldenRuns() []goldenRun {
	cfg := fastConfig(2)
	prefix := prefixOnlineTrace(300, 41, 8000, 32, 512)
	faultReqs := faultTrace(240, 29)
	closed := smallTrace(400, 23)
	closedPrefix := prefixClosedTrace(300, 43, 32, 512)
	noCache := cfg
	noCache.DisablePrefixCache = true
	const faultHorizon = 0.2
	return []goldenRun{
		{name: "offline-predicted-8", run: func(t *testing.T) goldenOut {
			res, err := Serve(cfg, closed, ServeConfig{Replicas: 8, Policy: mustPolicy(t, PredictedCost, Options{Seed: 1})})
			return serveOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			rep := out.Report
			if !strings.HasPrefix(rep.Scheduler, "Fleet(") {
				t.Errorf("closed-loop run without layers lost its Fleet label: %s", rep.Scheduler)
			}
		}},
		{name: "offline-prefix-4", run: func(t *testing.T) goldenOut {
			res, err := Serve(cfg, closedPrefix, ServeConfig{Replicas: 4, Policy: mustPolicy(t, PrefixAffinity, Options{})})
			return serveOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			if rep := out.Report; !strings.HasPrefix(rep.Scheduler, "Fleet(") || rep.PrefixCachedTokens == 0 {
				t.Errorf("closed-loop prefix run: %s, %d cached tokens", rep.Scheduler, rep.PrefixCachedTokens)
			}
		}},
		{name: "offline-prefix-nocache-4", run: func(t *testing.T) goldenOut {
			res, err := Serve(noCache, closedPrefix, ServeConfig{Replicas: 4, Policy: mustPolicy(t, PrefixAffinity, Options{})})
			return serveOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			if rep := out.Report; rep.PrefixCachedTokens != 0 {
				t.Errorf("prefix cache off, yet %d cached tokens", rep.PrefixCachedTokens)
			}
		}},
		{name: "offline-decode-affinity-2", run: func(t *testing.T) goldenOut {
			res, err := Serve(cfg, closedPrefix, ServeConfig{Replicas: 2, Policy: mustPolicy(t, DecodeAffinity, Options{})})
			return serveOut(t, res, err)
		}},
		{name: "offline-least-work-1", run: func(t *testing.T) goldenOut {
			res, err := Serve(cfg, closedPrefix, ServeConfig{Replicas: 1, Policy: mustPolicy(t, LeastWork, Options{})})
			return serveOut(t, res, err)
		}},
		{name: "online-prefix-8", run: func(t *testing.T) goldenOut {
			res, err := Serve(cfg, prefix, ServeConfig{Replicas: 8, Policy: mustPolicy(t, PrefixAffinity, Options{})})
			return serveOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			rep := out.Report
			if rep.PrefixCachedTokens == 0 {
				t.Error("no prefix reuse")
			}
		}},
		{name: "online-predicted-64", run: func(t *testing.T) goldenOut {
			res, err := Serve(cfg, goldenPoissonTrace(), ServeConfig{Replicas: 64, Policy: mustPolicy(t, PredictedCost, Options{})})
			return serveOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			if rep := out.Report; !strings.HasPrefix(rep.Scheduler, "FleetOnline(") {
				t.Errorf("Poisson run left the plain router: %s", rep.Scheduler)
			}
		}},
		{name: "online-prefix-1", run: func(t *testing.T) goldenOut {
			res, err := Serve(cfg, prefix, ServeConfig{Replicas: 1, Policy: mustPolicy(t, PrefixAffinity, Options{})})
			return serveOut(t, res, err)
		}},
		{name: "online-faults", run: func(t *testing.T) goldenOut {
			plan := goldenFaultPlan(t, 6, faultHorizon)
			res, err := Serve(cfg, faultReqs, ServeConfig{Replicas: 6, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan})
			return serveOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			rep := out.Report
			f := rep.Faults
			if f.Crashes == 0 || f.DomainOutages == 0 || f.RecoveredCheckpoint == 0 || f.RecoveredRecompute == 0 {
				t.Errorf("fault layer idle: %+v", f)
			}
		}},
		{name: "online-elastic", run: func(t *testing.T) goldenOut {
			pcfg := fastConfig(1)
			pcfg.MemUtilization = 0.0005
			stack := elasticStack(t, 4)
			stack.Admission = policy.NewTokenBucket(2500, 32)
			res, err := Serve(pcfg, goldenPriorityTrace(t), ServeConfig{Replicas: 4, Policy: mustPolicy(t, LeastWork, Options{}), Stack: stack})
			return serveOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			rep := out.Report
			a, s := rep.Admission, rep.Autoscale
			if a.Shed == 0 || a.Retries == 0 || a.Preemptions == 0 || a.BreakerTrips == 0 || a.BreakerSkips == 0 || s.ScaleUps == 0 {
				t.Errorf("policy layer idle: %+v %+v", a, s)
			}
		}},
		{name: "online-faults-elastic", run: func(t *testing.T) goldenOut {
			plan := goldenFaultPlan(t, 6, faultHorizon)
			res, err := Serve(cfg, goldenPriorityTrace(t), ServeConfig{Replicas: 6, Policy: mustPolicy(t, LeastWork, Options{}), Faults: plan, Stack: elasticStack(t, 6)})
			return serveOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			f, a, s := out.Report.Faults, out.Report.Admission, out.Report.Autoscale
			if f.Crashes == 0 || f.RecoveredCheckpoint == 0 || a.Shed == 0 || a.Retries == 0 || a.BreakerTrips == 0 || s.ScaleUps == 0 {
				t.Errorf("layers idle: %+v %+v %+v", f, a, s)
			}
		}},
		{name: "disagg", run: func(t *testing.T) goldenOut {
			res, err := Serve(cfg, faultReqs, ServeConfig{PrefillReplicas: 3, DecodeReplicas: 5})
			return disaggOut(t, res, err)
		}},
		{name: "disagg-faults", run: func(t *testing.T) goldenOut {
			sc := ServeConfig{PrefillReplicas: 3, DecodeReplicas: 5, Faults: goldenFaultPlan(t, 8, faultHorizon)}
			res, err := Serve(cfg, faultReqs, sc)
			return disaggOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			f := out.Report.Faults
			if f.Crashes == 0 || f.DomainOutages == 0 || f.RecoveredCheckpoint == 0 || f.RecoveredRecompute == 0 || out.Disagg.Handoffs == 0 {
				t.Errorf("fault layer idle: %+v, %d hand-offs", f, out.Disagg.Handoffs)
			}
		}},
		{name: "disagg-faults-breakers", run: func(t *testing.T) goldenOut {
			stack := &policy.Stack{Breaker: &policy.BreakerConfig{FailureThreshold: 2, Cooldown: faultHorizon / 4}}
			sc := ServeConfig{PrefillReplicas: 3, DecodeReplicas: 5, Stack: stack, Faults: goldenFaultPlan(t, 8, faultHorizon)}
			res, err := Serve(cfg, faultReqs, sc)
			return disaggOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			a := out.Report.Admission
			if out.Report.Faults.Crashes == 0 || a.BreakerTrips == 0 || a.BreakerSkips == 0 {
				t.Errorf("crash-fed breakers idle: %+v %+v", out.Report.Faults, a)
			}
		}},
		{name: "disagg-faults-policy", run: func(t *testing.T) goldenOut {
			stack := decodeScalerStack(t, 5)
			stack.Breaker = &policy.BreakerConfig{FailureThreshold: 2, Cooldown: faultHorizon / 4}
			sc := ServeConfig{PrefillReplicas: 3, DecodeReplicas: 5, Stack: stack, Faults: goldenFaultPlan(t, 8, faultHorizon)}
			res, err := Serve(cfg, faultReqs, sc)
			return disaggOut(t, res, err)
		}, check: func(t *testing.T, out goldenOut) {
			rep := out.Report
			if rep.Faults.Crashes == 0 || rep.Admission.BreakerTrips == 0 || rep.Autoscale.ScaleUps == 0 {
				t.Errorf("layers idle: %+v %+v %+v", rep.Faults, rep.Admission, rep.Autoscale)
			}
		}},
	}
}

// TestParallelRouterGolden pins every fleet router configuration to a
// committed digest: the SHA-256 of the JSON report and per-request
// records (plus, for a disaggregated run, its hand-off accounting and
// both pools' shard origins), identical at one worker and at four. The
// configurations cover closed-loop traces (predicted-cost at 8
// replicas; on a shared-prefix trace, prefix-affinity at 4 with the
// prefix cache on and off, decode-affinity at 2 and least-work alone),
// plain routing with prefix affinity (8 replicas and a lone one) and
// with predicted-cost (64 replicas), the fault layer (crashes, checkpoints, stragglers, power and network
// domain outages), the policy layer (autoscaler, admission, retry,
// breakers, preemption), both layers together on one colocated fleet,
// and the disaggregated fleet plain, under
// faults, under faults with crash-fed breakers, and under faults with
// breakers and the decode autoscaler. Regenerate with `go test ./internal/fleet -run
// TestParallelRouterGolden -update` only when a change is meant to
// alter simulated output.
func TestParallelRouterGolden(t *testing.T) {
	got := map[string]string{}
	for _, g := range goldenRuns() {
		for _, workers := range []int{1, 4} {
			setProcs(t, workers)
			out := g.run(t)
			if g.check != nil && workers == 1 {
				g.check(t, out)
			}
			b, err := json.Marshal(out)
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
