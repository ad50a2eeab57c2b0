package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/predictor"
	"repro/internal/workload"
)

// scenario is one fixed serving workload. Its fields are the tdpipe-sim
// flags that reproduce it (see cmdline); zero fields are flags left at
// their defaults. Every scenario runs Llama2-70B on A100 x 4 replicas
// under a TTFT 5 s / TPOT 0.25 s SLO with the trained length predictor.
type scenario struct {
	name string
	why  string

	requests int
	replicas int // > 1: online fleet
	policy   string
	arrivals string
	rate     float64
	workers  int

	prefixGroups, prefixLen, prefixTurns int

	autoscaleMin, autoscaleMax int
	admitRate                  float64
	admitBurst                 int
	retryAttempts              int
	breakerFailures            int
	priorityTiers              int

	prefillReplicas, decodeReplicas int // > 0: disaggregated

	mtbf            float64 // fault horizon is the mean arrival span
	ckptInterval    float64
	faultDomains    int
	domainMTBF      float64
	domainKind      string
	linkDegradeFrac float64
}

// The tdpipe-sim defaults the scenarios inherit for flags they leave
// unset.
const (
	restartDelay      = 2.0
	stragglerFactor   = 1.3
	linkDegradeFactor = 4.0
)

var slo = metrics.SLO{TTFT: 5, TPOT: 0.25}

// scenarios are the benchmark's workloads. Each one is bound by a
// different layer, so a change to one layer moves one workload's wall
// time and leaves the others as a control.
var scenarios = []scenario{
	{
		name: "offline-deep-queue",
		why:  "one replica, 30k requests queued at t=0 (the paper's offline throughput setting): core's queue scans and Algorithm 1 do most of the work",

		requests: 30000,
		arrivals: workload.ArrivalInstant,
	},
	{
		name: "online-fleet-1k",
		why:  "1000 replicas at Poisson 1000/s on 2 workers: O(replicas) router snapshot, 1000-engine kernel, one barrier epoch per arrival; engine queues stay short",

		requests: 10000,
		replicas: 1000,
		policy:   fleet.PredictedCost,
		arrivals: workload.ArrivalPoisson,
		rate:     1000,
		workers:  2,
	},
	{
		name: "prefix-chat",
		why:  "64 replicas, 256 groups of 1024-token prefixes over 8 turns: shared-prefix hash chains, ref-counts, LRU reclaim and warmth probes load kvcache",

		requests:     6000,
		replicas:     64,
		policy:       fleet.PrefixAffinity,
		arrivals:     workload.ArrivalPoisson,
		rate:         80,
		prefixGroups: 256,
		prefixLen:    1024,
		prefixTurns:  8,
	},
	{
		name: "elastic-diurnal",
		why:  "64 replicas under a diurnal load with autoscaling, admission, retries, breakers and priority tiers: the only run of the elastic router and internal/policy",

		requests:        20000,
		replicas:        64,
		policy:          fleet.PredictedCost,
		arrivals:        workload.ArrivalDiurnal,
		rate:            60,
		autoscaleMin:    8,
		autoscaleMax:    64,
		admitRate:       90,
		admitBurst:      64,
		retryAttempts:   3,
		breakerFailures: 8,
		priorityTiers:   2,
	},
	{
		name: "disagg-chaos",
		why:  "24 prefill + 40 decode replicas under crashes, rack outages and degraded links: KV export/import, hand-offs, crash recovery and crash-fed breakers",

		requests:        60000,
		arrivals:        workload.ArrivalBursty,
		rate:            100,
		breakerFailures: 4,
		prefillReplicas: 24,
		decodeReplicas:  40,
		mtbf:            600,
		ckptInterval:    30,
		faultDomains:    8,
		domainMTBF:      1500,
		domainKind:      "mixed",
		linkDegradeFrac: 0.1,
	},
}

// lookup returns the scenario called name.
func lookup(name string) (scenario, error) {
	var names []string
	for _, s := range scenarios {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return scenario{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// scaled returns the scenario with its request count multiplied by f
// (at least one request); the fault horizon follows the arrival span.
func (s scenario) scaled(f float64) scenario {
	s.requests = max(1, int(math.Round(float64(s.requests)*f)))
	return s
}

func (s scenario) disagg() bool { return s.prefillReplicas > 0 }

// faultHorizon is the mean arrival span, so crashes can land over the
// whole run.
func (s scenario) faultHorizon() float64 { return float64(s.requests) / s.rate }

// cmdline renders the tdpipe-sim invocation that runs the same
// simulation at seed 1.
func (s scenario) cmdline() string {
	args := []string{"tdpipe-sim"}
	add := func(flag string, v any) {
		var str string
		switch v := v.(type) {
		case float64:
			str = strconv.FormatFloat(v, 'g', -1, 64)
		default:
			str = fmt.Sprint(v)
		}
		args = append(args, "-"+flag, str)
	}
	addIf := func(flag string, v any, set bool) {
		if set {
			add(flag, v)
		}
	}
	if s.disagg() {
		args = append(args, "-disagg")
		add("prefill-replicas", s.prefillReplicas)
		add("decode-replicas", s.decodeReplicas)
	}
	addIf("replicas", s.replicas, s.replicas > 1)
	addIf("policy", s.policy, s.policy != "")
	add("requests", s.requests)
	addIf("arrivals", s.arrivals, s.arrivals != workload.ArrivalInstant)
	addIf("rate", s.rate, s.rate > 0)
	addIf("prefix-groups", s.prefixGroups, s.prefixGroups > 0)
	addIf("prefix-len", s.prefixLen, s.prefixGroups > 0)
	addIf("prefix-turns", s.prefixTurns, s.prefixGroups > 0)
	add("slo-ttft", slo.TTFT)
	add("slo-tpot", slo.TPOT)
	addIf("autoscale-min", s.autoscaleMin, s.autoscaleMax > 0)
	addIf("autoscale-max", s.autoscaleMax, s.autoscaleMax > 0)
	addIf("admit-rate", s.admitRate, s.admitRate > 0)
	addIf("admit-burst", s.admitBurst, s.admitRate > 0)
	addIf("retry-attempts", s.retryAttempts, s.retryAttempts > 0)
	addIf("breaker-failures", s.breakerFailures, s.breakerFailures > 0)
	addIf("priority-tiers", s.priorityTiers, s.priorityTiers > 0)
	if s.mtbf > 0 {
		add("mtbf", s.mtbf)
		add("fault-horizon", s.faultHorizon())
		add("ckpt-interval", s.ckptInterval)
		add("fault-domains", s.faultDomains)
		add("domain-mtbf", s.domainMTBF)
		add("domain-kind", s.domainKind)
		add("link-degrade-frac", s.linkDegradeFrac)
	}
	addIf("workers", s.workers, s.workers > 0)
	return strings.Join(args, " ")
}

// inputs is everything a scenario's run call consumes, built by setup
// exactly as tdpipe-sim builds it for the same flags.
type inputs struct {
	cfg   core.Config
	reqs  []workload.Request
	pol   fleet.Policy
	stack *policy.Stack
	plan  *faults.Plan

	genS, trainS float64

	// Set when setup wrapped the policy and predictor for tracing.
	timedPol  *timedPolicy
	timedPred *timedPredictor
}

// setup generates the trace, trains the predictor and builds the
// policy, policy stack and fault plan, with tdpipe-sim's seed offsets.
// With wrap, the policy and predictor are timed by the tracing
// wrappers.
func (s scenario) setup(seed int64, wrap bool) (*inputs, error) {
	in := &inputs{}
	start := time.Now()
	pool, err := workload.Generate(workload.DefaultConfig(max(s.requests, 20000), seed))
	if err != nil {
		return nil, err
	}
	reqs := workload.Sample(pool, s.requests, seed+1000)
	if s.prefixGroups > 0 {
		reqs, err = workload.StampPrefixes(reqs, workload.PrefixConfig{
			Groups: s.prefixGroups, PrefixLen: s.prefixLen, Turns: s.prefixTurns, Seed: seed + 3000,
		})
		if err != nil {
			return nil, err
		}
	}
	if s.arrivals != workload.ArrivalInstant {
		reqs, err = workload.ArrivalConfig{Kind: s.arrivals, Rate: s.rate, Seed: seed + 2000}.Stamp(reqs)
		if err != nil {
			return nil, err
		}
	}
	if s.priorityTiers > 0 {
		reqs, err = workload.StampPriorities(reqs, workload.PriorityConfig{
			Tiers: s.priorityTiers, HighFraction: 0.2, Seed: seed + 6000,
		})
		if err != nil {
			return nil, err
		}
	}
	in.reqs = reqs
	in.genS = time.Since(start).Seconds()

	start = time.Now()
	train, _, _, err := workload.Split(pool, 0.6, 0.2)
	if err != nil {
		return nil, err
	}
	clf, err := predictor.Train(train, predictor.DefaultTrainConfig())
	if err != nil {
		return nil, err
	}
	in.trainS = time.Since(start).Seconds()

	node, spec, gpus := hw.A100, model.Llama2_70B, 4
	in.cfg = core.DefaultConfig(node, spec, gpus)
	in.cfg.SLO = slo
	in.cfg.Predictor = clf
	if wrap {
		in.timedPred = &timedPredictor{inner: clf}
		in.cfg.Predictor = in.timedPred
	}
	if s.replicas <= 1 && !s.disagg() {
		in.cfg.RecordKV = true // as tdpipe-sim's single-engine path
	}
	if s.policy != "" {
		if in.pol, err = fleet.New(s.policy, fleet.Options{Seed: seed, Predictor: in.cfg.Predictor}); err != nil {
			return nil, err
		}
		if wrap {
			in.timedPol = &timedPolicy{Policy: in.pol}
			in.pol = in.timedPol
		}
	}
	if in.stack, err = s.policyStack(seed); err != nil {
		return nil, err
	}
	if s.mtbf > 0 {
		fc := faults.Config{
			Seed:               seed + 4000,
			Horizon:            s.faultHorizon(),
			MTBF:               s.mtbf,
			RestartDelay:       restartDelay,
			StragglerFactor:    stragglerFactor,
			LinkDegradeFrac:    s.linkDegradeFrac,
			LinkDegradeFactor:  linkDegradeFactor,
			CheckpointInterval: s.ckptInterval,
			Topology:           hw.Topology{Racks: s.faultDomains},
			DomainMTBF:         s.domainMTBF,
			DomainKind:         s.domainKind,
		}
		if err := fc.Validate(); err != nil {
			return nil, err
		}
		downtime := restartDelay + faults.WeightReloadTime(node, spec, gpus)
		if in.plan, err = faults.NewPlan(fc, s.prefillReplicas+s.decodeReplicas+s.replicas, downtime); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// policyStack mirrors tdpipe-sim's front-door stack for the scenario's
// flags; nil when none is set.
func (s scenario) policyStack(seed int64) (*policy.Stack, error) {
	st := &policy.Stack{}
	if s.admitRate > 0 {
		st.Admission = policy.NewTokenBucket(s.admitRate, float64(s.admitBurst))
	}
	if s.retryAttempts > 0 {
		st.Retry = policy.NewBackoff(policy.BackoffConfig{MaxAttempts: s.retryAttempts, Seed: seed + 5000})
	}
	if s.breakerFailures > 0 {
		st.Breaker = &policy.BreakerConfig{FailureThreshold: s.breakerFailures}
	}
	if s.priorityTiers > 0 {
		st.Preemption = &policy.PreemptionConfig{}
	}
	if s.autoscaleMax > 0 {
		as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
			Min:            s.autoscaleMin,
			Max:            s.autoscaleMax,
			Interval:       1,
			ScaleUpQueue:   4,
			ScaleDownQueue: 1,
			TTFTTarget:     slo.TTFT / 2,
		})
		if err != nil {
			return nil, err
		}
		st.Autoscaler = as
	}
	if !st.Active() {
		return nil, nil
	}
	return st, nil
}

// outcome is what one run call returns, whichever entry point served
// it.
type outcome struct {
	report         metrics.Report
	records        []metrics.RequestRecord
	steps          uint64
	handoffs       int
	queuedHandoffs int
	movedBytes     float64
}

// run is the timed call: one simulation of the prepared inputs on the
// scenario's entry point. workers overrides the scenario's worker count
// when positive.
func (s scenario) run(in *inputs, workers int) (*outcome, error) {
	if workers <= 0 {
		workers = s.workers
	}
	switch {
	case s.disagg():
		dc := fleet.DisaggConfig{PrefillReplicas: s.prefillReplicas, DecodeReplicas: s.decodeReplicas, Workers: workers, Stack: in.stack}
		res, err := fleet.RunDisaggFaults(in.cfg, dc, in.reqs, in.plan)
		if err != nil {
			return nil, err
		}
		return &outcome{res.Report, res.Records, res.Steps, res.Handoffs, res.QueuedHandoffs, res.TransferredBytes}, nil
	case s.replicas > 1:
		var res *fleet.Result
		var err error
		if in.stack != nil {
			res, err = fleet.RunOnlineElasticWorkers(in.cfg, s.replicas, in.pol, in.reqs, in.stack, workers)
		} else {
			res, err = fleet.RunOnlineWorkers(in.cfg, s.replicas, in.pol, in.reqs, workers)
		}
		if err != nil {
			return nil, err
		}
		return &outcome{report: res.Report, records: res.Records, steps: res.Steps}, nil
	default:
		res, err := core.Run(in.cfg, in.reqs)
		if err != nil {
			return nil, err
		}
		return &outcome{report: res.Report, records: res.Records, steps: res.Steps}, nil
	}
}
