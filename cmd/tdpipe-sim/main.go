// Command tdpipe-sim runs a single simulated deployment and prints its
// report, optionally exporting timelines for external plotting.
//
// Usage:
//
//	tdpipe-sim -node A100 -model 70B -gpus 4 -sched tdpipe -requests 2000
//	tdpipe-sim -sched pp+hb -node L20 -model 32B -out run/   # CSV + JSON
//	tdpipe-sim -replicas 4 -policy predicted-cost            # fleet mode
//	tdpipe-sim -arrivals poisson -rate 3 -slo 120            # open-loop
//	tdpipe-sim -disagg -prefill-replicas 1 -decode-replicas 3 -arrivals bursty -rate 3
//
// Schedulers: tdpipe, tp+sb, tp+hb, pp+sb, pp+hb, offload. With
// -replicas N > 1 the trace is sharded across N data-parallel TD-Pipe
// replicas under the -policy dispatch policy (round-robin, random,
// least-work, predicted-cost); fleet mode requires -sched tdpipe and
// exports only the aggregate run.json with -out.
//
// Open-loop serving: -arrivals picks the arrival process (instant,
// poisson, bursty, diurnal) and -rate its mean requests/s. Engines
// admit requests only once virtual time reaches their arrival, and the
// report gains TTFT/TPOT/E2E percentiles plus goodput under the SLO
// set by -slo (E2E seconds), -slo-ttft and -slo-tpot. In fleet mode an
// arrival-stamped trace is served by the online router: one shared
// virtual clock, per-arrival dispatch on live load snapshots.
//
// Disaggregated serving: -disagg splits the fleet into a prefill pool
// (-prefill-replicas) and a decode pool (-decode-replicas); each
// request prefills in the first pool, its KV migrates over the modeled
// hand-off link (-kv-bw GB/s, -kv-lat seconds override the node's
// defaults) and decoding resumes in the second pool. Requires -sched
// tdpipe; composes with -arrivals and the prefix flags.
//
// Shared prefixes: -prefix-groups N stamps the trace with N shared
// prefix groups (system prompts / multi-turn conversations) of mean
// length -prefix-len and depth -prefix-turns. Engines reuse resident
// prefix KV and skip the cached prefill work; -no-prefix-cache is the
// ablation. The prefix-affinity policy routes each group to the
// replica with the warmest matching prefix.
//
// Autoscaling & policies: -autoscale-max N turns on elastic
// provisioning — an SLO-watching controller scales the active replica
// count between -autoscale-min and N mid-run, each scale-up paying the
// node's modeled weight-load cold start. In fleet mode the whole fleet
// breathes; with -disagg the decode pool does. The front-door flags
// compose on the fleet router: -admit-rate/-admit-burst (token-bucket
// admission), -retry-attempts (seeded exponential backoff for shed
// requests), -breaker-failures (per-replica circuit breaking on TTFT
// SLO misses, with half-open probes; needs -slo-ttft) and
// -priority-tiers (priority-stamped traffic; high tiers preempt low
// tiers' KV under pressure via the eviction-recompute path). All
// policies are deterministic for a fixed seed and byte-identical at
// every GOMAXPROCS, which sizes the fleet simulation's worker pool:
//
//	tdpipe-sim -replicas 4 -arrivals diurnal -rate 3 -slo-ttft 10 \
//	    -autoscale-max 4 -autoscale-min 1 -admit-rate 6 -retry-attempts 3
//
// Fault injection: a seeded fault plan can be layered onto fleet or
// disaggregated runs (the recovery path needs a router, so -replicas >
// 1 or -disagg is required). -mtbf sets each replica's mean time
// between failures over -fault-horizon virtual seconds; each crash
// aborts the replica's in-flight requests, which are re-dispatched to
// live replicas — resumed from their last periodic KV checkpoint when
// -ckpt-interval is set, re-prefilled from scratch otherwise — until
// -max-retries is exhausted and the request is dropped with a reason.
// -stragglers/-straggler-factor slow seeded replicas; the -link-*
// flags impair the disagg KV hand-off link with degraded or
// partitioned windows. The fault flags compose with the policy flags
// on one fleet run, each layer spending its own retry budget
// (-max-retries for crash re-dispatches, -retry-attempts for
// re-admissions). The report gains a fault/recovery accounting line,
// and runs are deterministic for a fixed seed:
//
//	tdpipe-sim -replicas 4 -arrivals poisson -rate 3 \
//	    -mtbf 120 -fault-horizon 600 -ckpt-interval 60
//
// Profiling: -cpuprofile/-memprofile write pprof profiles of the run,
// so hot-path regressions can be diagnosed against the simulator
// binary itself (go tool pprof tdpipe-sim cpu.out). The tdpipe
// scheduler also prints the kernel event rate (steps/s). An event is
// a unit of kernel work, not of served work: a TD-Pipe pipeline pass
// costs one event however many stages it has (the baselines' blocking
// passes cost one per stage hop), so compare runs by wall time, and
// steps/s only between builds that count events the same way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/policy"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// options collects the flag values for one invocation.
type options struct {
	node     string
	model    string
	gpus     int
	sched    string
	requests int
	pool     int
	seed     int64
	outDir   string
	oracle   bool
	replicas int
	policy   string
	arrivals string
	rate     float64
	slo      metrics.SLO

	disagg          bool
	prefillReplicas int
	decodeReplicas  int
	kvBW            float64
	kvLat           float64

	prefixGroups  int
	prefixLen     int
	prefixTurns   int
	noPrefixCache bool

	autoscaleMin      int
	autoscaleMax      int
	autoscaleInterval float64
	admitRate         float64
	admitBurst        int
	breakerFailures   int
	retryAttempts     int
	priorityTiers     int

	mtbf              float64
	faultHorizon      float64
	restartDelay      float64
	stragglers        int
	stragglerFactor   float64
	ckptInterval      float64
	linkDegradeFrac   float64
	linkDegradeFactor float64
	linkPartitionFrac float64
	maxRetries        int
	faultDomains      int
	domainMTBF        float64
	domainKind        string

	cpuprofile string
	memprofile string
}

// faultConfig assembles the seeded fault plan configuration from the
// flag group; the zero value (no fault flags) is fault-free.
func (o options) faultConfig() faults.Config {
	return faults.Config{
		Seed:               o.seed + 4000,
		Horizon:            o.faultHorizon,
		MTBF:               o.mtbf,
		RestartDelay:       o.restartDelay,
		MaxRetries:         o.maxRetries,
		Stragglers:         o.stragglers,
		StragglerFactor:    o.stragglerFactor,
		LinkDegradeFrac:    o.linkDegradeFrac,
		LinkDegradeFactor:  o.linkDegradeFactor,
		LinkPartitionFrac:  o.linkPartitionFrac,
		CheckpointInterval: o.ckptInterval,
		Topology:           hw.Topology{Racks: o.faultDomains},
		DomainMTBF:         o.domainMTBF,
		DomainKind:         o.domainKind,
	}
}

// policyStack assembles the front-door policy stack from the flag
// group; nil when no policy flag is set. The autoscaler's TTFT target
// is half the TTFT SLO so scale-ups start before the SLO is breached.
func (o options) policyStack() (*policy.Stack, error) {
	st := &policy.Stack{}
	if o.admitRate > 0 {
		st.Admission = policy.NewTokenBucket(o.admitRate, float64(o.admitBurst))
	}
	if o.retryAttempts > 0 {
		st.Retry = policy.NewBackoff(policy.BackoffConfig{MaxAttempts: o.retryAttempts, Seed: o.seed + 5000})
	}
	if o.breakerFailures > 0 {
		st.Breaker = &policy.BreakerConfig{FailureThreshold: o.breakerFailures}
	}
	if o.priorityTiers > 0 {
		st.Preemption = &policy.PreemptionConfig{}
	}
	if o.autoscaleMax > 0 {
		as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
			Min:            o.autoscaleMin,
			Max:            o.autoscaleMax,
			Interval:       o.autoscaleInterval,
			ScaleUpQueue:   4,
			ScaleDownQueue: 1,
			TTFTTarget:     o.slo.TTFT / 2,
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

// printPolicy shows the autoscale and admission accounting when any
// policy activity was recorded.
func printPolicy(rep metrics.Report) {
	if a := rep.Autoscale; a.Any() {
		fmt.Printf("autoscale: %d ticks, %d up / %d down, peak %d replicas, %.0f GPU-s provisioned, %.0f s cold start\n",
			a.Ticks, a.ScaleUps, a.ScaleDowns, a.PeakReplicas, a.GPUSeconds, a.ColdStartSeconds)
	}
	if ad := rep.Admission; ad.Any() {
		fmt.Printf("admission: %d shed, %d retries, %d dropped, %d breaker trips (%d routing skips), %d preemptions\n",
			ad.Shed, ad.Retries, ad.Dropped, ad.BreakerTrips, ad.BreakerSkips, ad.Preemptions)
	}
}

// printFaults shows the fault/recovery accounting when any fault
// activity was recorded.
func printFaults(rep metrics.Report) {
	f := rep.Faults
	if !f.Any() {
		return
	}
	fmt.Printf("faults: %d crashes, %d aborted, %d/%d recovered (recompute/checkpoint), %d dropped, %d output tokens lost\n",
		f.Crashes, f.AbortedRequests, f.RecoveredRecompute, f.RecoveredCheckpoint, f.Dropped, f.LostOutputTokens)
	if f.DomainOutages > 0 {
		fmt.Printf("domains: %d correlated rack/zone outages\n", f.DomainOutages)
	}
	if f.Checkpoints > 0 {
		fmt.Printf("checkpoints: %d rounds, %.2f GB serialized\n", f.Checkpoints, f.CheckpointBytes/1e9)
	}
}

// main defers to realMain so profile finalizers (StopCPUProfile, file
// closes) run even when the run fails — os.Exit here would truncate
// the very profile needed to diagnose the failure.
func main() {
	os.Exit(realMain())
}

// registerFlags binds every tdpipe-sim flag to the options struct on
// the given set. The README flag-reference table is checked against
// this registration by a test, so the two cannot drift.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.node, "node", "A100", "node: L20 or A100")
	fs.StringVar(&o.model, "model", "70B", "model: 13B, 32B, 70B")
	fs.IntVar(&o.gpus, "gpus", 4, "number of GPUs")
	fs.StringVar(&o.sched, "sched", "tdpipe", "scheduler: tdpipe, tp+sb, tp+hb, pp+sb, pp+hb, offload")
	fs.IntVar(&o.requests, "requests", 2000, "number of requests")
	fs.IntVar(&o.pool, "pool", 20000, "corpus size for predictor training")
	fs.Int64Var(&o.seed, "seed", 1, "trace seed")
	fs.StringVar(&o.outDir, "out", "", "directory for CSV/JSON export (optional)")
	fs.BoolVar(&o.oracle, "oracle", false, "use the oracle length predictor instead of the trained classifier (-sched tdpipe only)")
	fs.IntVar(&o.replicas, "replicas", 1, "data-parallel TD-Pipe replicas (fleet mode when > 1)")
	fs.StringVar(&o.policy, "policy", fleet.RoundRobin, "fleet dispatch policy: "+strings.Join(fleet.Names(), ", "))
	fs.StringVar(&o.arrivals, "arrivals", workload.ArrivalInstant,
		"arrival process: "+strings.Join(workload.ArrivalKinds(), ", "))
	fs.Float64Var(&o.rate, "rate", 0, "mean arrival rate in requests/s (required unless -arrivals instant, and refused with it)")
	fs.Float64Var(&o.slo.E2E, "slo", 0, "end-to-end latency SLO in seconds (0 disables)")
	fs.Float64Var(&o.slo.TTFT, "slo-ttft", 0, "time-to-first-token SLO in seconds (0 disables)")
	fs.Float64Var(&o.slo.TPOT, "slo-tpot", 0, "time-per-output-token SLO in seconds (0 disables)")
	fs.BoolVar(&o.disagg, "disagg", false, "disaggregated mode: dedicated prefill and decode pools with KV hand-off (requires -sched tdpipe)")
	fs.IntVar(&o.prefillReplicas, "prefill-replicas", 1, "prefill-pool replicas in -disagg mode")
	fs.IntVar(&o.decodeReplicas, "decode-replicas", 3, "decode-pool replicas in -disagg mode")
	fs.Float64Var(&o.kvBW, "kv-bw", 0, "KV hand-off link bandwidth in GB/s (0 keeps the node default)")
	fs.Float64Var(&o.kvLat, "kv-lat", 0, "KV hand-off link latency in seconds (0 keeps the node default)")
	fs.IntVar(&o.autoscaleMax, "autoscale-max", 0, "elastic autoscaling: max active replicas (0 disables; scales the fleet, or the decode pool with -disagg)")
	fs.IntVar(&o.autoscaleMin, "autoscale-min", 1, "elastic autoscaling: min active replicas (needs -autoscale-max)")
	fs.Float64Var(&o.autoscaleInterval, "autoscale-interval", 1, "elastic autoscaling: evaluation cadence in virtual seconds (needs -autoscale-max)")
	fs.Float64Var(&o.admitRate, "admit-rate", 0, "token-bucket admission rate in requests/s (0 disables admission control)")
	fs.IntVar(&o.admitBurst, "admit-burst", 16, "token-bucket admission burst size (needs -admit-rate)")
	fs.IntVar(&o.breakerFailures, "breaker-failures", 0, "consecutive failures that trip a replica's circuit breaker: TTFT SLO misses online (needs -slo-ttft), aborted requests with -disagg (0 disables)")
	fs.IntVar(&o.retryAttempts, "retry-attempts", 0, "admission retries per request under seeded exponential backoff, counting only the policy layer's re-admissions (0 disables retry; shed requests are then dropped)")
	fs.IntVar(&o.priorityTiers, "priority-tiers", 0, "stamp the trace with priority tiers and preempt low tiers under KV pressure (0 disables; >= 2 tiers)")
	fs.IntVar(&o.prefixGroups, "prefix-groups", 0, "shared-prefix groups to stamp on the trace (0 disables prefix structure)")
	fs.IntVar(&o.prefixLen, "prefix-len", 256, "mean shared-prefix length in tokens (needs -prefix-groups)")
	fs.IntVar(&o.prefixTurns, "prefix-turns", 4, "conversation depth: turns over which a group's prefix grows (needs -prefix-groups)")
	fs.BoolVar(&o.noPrefixCache, "no-prefix-cache", false, "disable shared-prefix KV reuse (ablation)")
	fs.Float64Var(&o.mtbf, "mtbf", 0, "mean time between replica failures in virtual seconds (0 disables crashes; needs -fault-horizon)")
	fs.Float64Var(&o.faultHorizon, "fault-horizon", 0, "virtual-time horizon bounding fault activity in seconds")
	fs.IntVar(&o.maxRetries, "max-retries", 0, "re-dispatches per crash-lost request before it is dropped, counting only the fault layer's crash retries (0 = default 3; needs -mtbf or -domain-mtbf)")
	fs.Float64Var(&o.restartDelay, "restart-delay", 2, "process-restart seconds added to each crash outage (weight reload is modeled on top; needs -mtbf or -domain-mtbf)")
	fs.IntVar(&o.stragglers, "stragglers", 0, "replicas (chosen by the fault seed) slowed by -straggler-factor")
	fs.Float64Var(&o.stragglerFactor, "straggler-factor", 1.3, "pass-duration multiplier for straggler replicas (needs -stragglers)")
	fs.Float64Var(&o.ckptInterval, "ckpt-interval", 0, "periodic KV checkpoint cadence in virtual seconds (0 disables; crash recovery then recomputes)")
	fs.Float64Var(&o.linkDegradeFrac, "link-degrade-frac", 0, "fraction of KV-link windows running degraded (-disagg only)")
	fs.Float64Var(&o.linkDegradeFactor, "link-degrade-factor", 4, "KV transfer slowdown inside degraded windows (needs -link-degrade-frac)")
	fs.Float64Var(&o.linkPartitionFrac, "link-partition-frac", 0, "fraction of KV-link windows fully partitioned (-disagg only)")
	fs.IntVar(&o.faultDomains, "fault-domains", 0, "racks in the fleet topology for correlated domain outages (0 disables; needs -domain-mtbf)")
	fs.Float64Var(&o.domainMTBF, "domain-mtbf", 0, "each rack's mean time between correlated outages in virtual seconds (needs -fault-domains and -fault-horizon)")
	fs.StringVar(&o.domainKind, "domain-kind", "power", "what a correlated domain outage does: power, network, or mixed (needs -fault-domains)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (pprof format)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit (pprof format)")
}

func realMain() int {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdpipe-sim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tdpipe-sim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	code := 0
	if err := run(o, flag.Visit); err != nil {
		fmt.Fprintln(os.Stderr, "tdpipe-sim:", err)
		code = 1
	}
	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdpipe-sim:", err)
			return 1
		}
		defer f.Close()
		goruntime.GC() // settle allocations so the heap profile is stable
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tdpipe-sim:", err)
			return 1
		}
	}
	return code
}

func pickNode(name string) (hw.Node, error) {
	switch strings.ToUpper(name) {
	case "L20":
		return hw.L20, nil
	case "A100":
		return hw.A100, nil
	}
	return hw.Node{}, fmt.Errorf("unknown node %q (L20, A100)", name)
}

func pickModel(name string) (model.Spec, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "13B", "LLAMA2-13B", "LLAMA2-13B-CHAT":
		return model.Llama2_13B, nil
	case "32B", "QWEN2.5-32B", "QWEN2.5-32B-INSTRUCT":
		return model.Qwen2_5_32B, nil
	case "70B", "LLAMA2-70B", "LLAMA2-70B-CHAT":
		return model.Llama2_70B, nil
	}
	return model.Spec{}, fmt.Errorf("unknown model %q (13B, 32B, 70B)", name)
}

// trainedPredictor fits the classifier on the corpus's 60% historical
// split, the same recipe the single-engine path uses.
func trainedPredictor(pool []workload.Request) (core.LenPredictor, error) {
	train, _, _, err := workload.Split(pool, 0.6, 0.2)
	if err != nil {
		return nil, err
	}
	return predictor.Train(train, predictor.DefaultTrainConfig())
}

// printLatency shows the per-request latency digest when it carries
// information (always under open-loop arrivals or an SLO).
func printLatency(rep metrics.Report, open bool) {
	if open || rep.Latency.SLO.Enabled() {
		fmt.Println("latency:", rep.Latency)
	}
}

// printPrefix shows prefix-cache reuse when any happened.
func printPrefix(rep metrics.Report) {
	if rep.PrefixCachedTokens > 0 {
		fmt.Printf("prefix cache: %d input tokens reused (%.1f%% hit rate)\n",
			rep.PrefixCachedTokens, 100*rep.PrefixHitRate())
	}
}

// engineConfig is the TD-Pipe engine configuration a run shares across
// its replicas, with the classifier trained on the corpus unless
// -oracle is set.
func engineConfig(o options, node hw.Node, spec model.Spec, pool []workload.Request) (core.Config, error) {
	cfg := core.DefaultConfig(node, spec, o.gpus)
	cfg.SLO = o.slo
	cfg.DisablePrefixCache = o.noPrefixCache
	if !o.oracle {
		clf, err := trainedPredictor(pool)
		if err != nil {
			return cfg, err
		}
		cfg.Predictor = clf
	}
	return cfg, nil
}

// faultPlan draws the seeded fault plan over a fleet of replicas; nil
// when no fault flag is set. Each outage lasts -restart-delay plus the
// modeled weight reload.
func (o options) faultPlan(node hw.Node, spec model.Spec, replicas int) (*faults.Plan, error) {
	fc := o.faultConfig()
	if !fc.Enabled() {
		return nil, nil
	}
	return faults.NewPlan(fc, replicas, o.restartDelay+faults.WeightReloadTime(node, spec, o.gpus))
}

// printKernel shows the simulation kernel's event rate; workers > 0
// adds the fabric's worker count.
func printKernel(steps uint64, wall time.Duration, workers int) {
	if steps == 0 || wall <= 0 {
		return
	}
	suffix := ""
	if workers > 0 {
		suffix = fmt.Sprintf(", %d workers", workers)
	}
	fmt.Printf("kernel: %d events in %v (%.0f steps/s%s)\n",
		steps, wall.Round(time.Millisecond), float64(steps)/wall.Seconds(), suffix)
}

// printReport shows the report line and its throughput.
func printReport(rep metrics.Report) {
	fmt.Println(rep)
	fmt.Printf("output throughput: %.0f tokens/s, total: %.0f tokens/s\n", rep.OutputThroughput(), rep.TotalThroughput())
}

// printAccounting shows the latency digest and every accounting line
// that carries information.
func printAccounting(rep metrics.Report, open bool) {
	printLatency(rep, open)
	printPrefix(rep)
	printFaults(rep)
	printPolicy(rep)
}

// exportAggregate writes a fleet run's aggregate report to dir as
// run.json; per-GPU timelines belong to per-replica simulations and are
// not exported. An empty dir exports nothing.
func exportAggregate(dir string, rep metrics.Report) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j, err := os.Create(filepath.Join(dir, "run.json"))
	if err != nil {
		return err
	}
	defer j.Close()
	if err := trace.WriteRunJSON(j, trace.Run{Report: rep}); err != nil {
		return err
	}
	fmt.Printf("exported aggregate report to %s\n", dir)
	return nil
}

// runFleet serves the sample through fleet.Serve's shared-clock router:
// on data-parallel TD-Pipe replicas, or with -disagg on a prefill pool
// feeding a decode pool through the modeled KV hand-off link.
func runFleet(o options, node hw.Node, spec model.Spec, pool, reqs []workload.Request, open bool) error {
	cfg, err := engineConfig(o, node, spec, pool)
	if err != nil {
		return err
	}
	var sc fleet.ServeConfig
	if o.disagg {
		sc.PrefillReplicas, sc.DecodeReplicas = o.prefillReplicas, o.decodeReplicas
	} else {
		sc.Replicas = o.replicas
		if sc.Policy, err = fleet.New(o.policy, fleet.Options{Seed: o.seed, Predictor: cfg.Predictor}); err != nil {
			return err
		}
	}
	if sc.Stack, err = o.policyStack(); err != nil {
		return err
	}
	if sc.Faults, err = o.faultPlan(node, spec, sc.Replicas+sc.PrefillReplicas+sc.DecodeReplicas); err != nil {
		return err
	}
	start := time.Now()
	res, err := fleet.Serve(cfg, reqs, sc)
	if err != nil {
		return err
	}
	printKernel(res.Steps, time.Since(start), res.Workers)
	for i, rr := range res.Replicas {
		r := rr.Report
		switch p := res.PrefillReplicas; {
		case i < p:
			fmt.Printf("prefill %d: %d reqs, %.1fs, %.0f tok/s total, util %.1f%%\n",
				i, r.Requests, r.Elapsed, r.TotalThroughput(), 100*r.MeanUtilization)
		case p > 0:
			fmt.Printf("decode %d: %d reqs, %.1fs, %.0f tok/s out, util %.1f%%\n",
				i-p, r.Requests, r.Elapsed, r.OutputThroughput(), 100*r.MeanUtilization)
		default:
			fmt.Printf("replica %d: %d reqs, %.1fs, %.0f tok/s out, util %.1f%%\n",
				i, r.Requests, r.Elapsed, r.OutputThroughput(), 100*r.MeanUtilization)
		}
	}
	printReport(res.Report)
	if o.disagg {
		fmt.Printf("hand-offs: %d (%d queued for headroom), %.2f GB KV migrated\n",
			res.Handoffs, res.QueuedHandoffs, res.TransferredBytes/1e9)
	}
	printAccounting(res.Report, open)
	return exportAggregate(o.outDir, res.Report)
}

// errReplicas rejects a fleet size below one replica.
var errReplicas = errors.New("-replicas must be at least 1 (fleet mode engages above 1)")

// errPolicyNoFleet rejects an explicit dispatch policy on a run that
// dispatches nothing: a single engine, without fleet mode.
var errPolicyNoFleet = errors.New("-policy picks a replica per request and needs fleet mode (-replicas > 1)")

// The errors for a flag that does nothing in the invocation's mode or
// tunes a feature it leaves off, which would otherwise be quietly
// ignored.
var (
	errDisaggOnly        = errors.New("-prefill-replicas, -decode-replicas, -kv-* and the -link-* impairments only take effect with -disagg")
	errFleetFlagsDisagg  = errors.New("-disagg sizes its pools with -prefill-replicas/-decode-replicas and fixes their policies: it takes no -replicas or -policy")
	errFrontDisagg       = errors.New("admission, retries and priority tiers ride the online fleet router; with -disagg only -breaker-failures and the -autoscale-* flags compose")
	errBurstNoAdmission  = errors.New("-admit-burst sizes the admission token bucket: set -admit-rate")
	errScaleNoMax        = errors.New("-autoscale-min and -autoscale-interval tune the autoscaler: set -autoscale-max")
	errFactorNoStraggler = errors.New("-straggler-factor slows straggler replicas: set -stragglers")
	errFactorNoDegrade   = errors.New("-link-degrade-factor slows degraded KV-link windows: set -link-degrade-frac")
	errPrefixNoGroups    = errors.New("-prefix-len and -prefix-turns shape shared-prefix groups: set -prefix-groups")
	errDomainsNoTopology = errors.New("-domain-mtbf draws correlated outages over a fleet topology: set -fault-domains")
	errTopologyNoDomains = errors.New("-fault-domains declares the topology for correlated outages: set -domain-mtbf")
	errKindNoDomains     = errors.New("-domain-kind picks what a rack outage does: set -fault-domains")
	errRecoveryNoCrashes = errors.New("-max-retries and -restart-delay tune crash recovery: set -mtbf or -domain-mtbf")
	errRateInstant       = errors.New("-rate paces open-loop arrivals: pick an -arrivals process other than instant")
	errOracleBaseline    = errors.New("-oracle replaces TD-Pipe's output-length predictor: it needs -sched tdpipe")
)

// dependentFlags lists flags that take effect only in some mode or
// under another setting: off reports that they would do nothing, and
// err names the mismatch.
var dependentFlags = []struct {
	flags []string
	off   func(o options) bool
	err   error
}{
	{[]string{"prefill-replicas", "decode-replicas", "kv-bw", "kv-lat", "link-degrade-frac", "link-partition-frac"},
		func(o options) bool { return !o.disagg }, errDisaggOnly},
	{[]string{"replicas", "policy"}, func(o options) bool { return o.disagg }, errFleetFlagsDisagg},
	{[]string{"admit-rate", "admit-burst", "retry-attempts", "priority-tiers"}, func(o options) bool { return o.disagg }, errFrontDisagg},
	{[]string{"admit-burst"}, func(o options) bool { return o.admitRate <= 0 }, errBurstNoAdmission},
	{[]string{"autoscale-min", "autoscale-interval"}, func(o options) bool { return o.autoscaleMax <= 0 }, errScaleNoMax},
	{[]string{"straggler-factor"}, func(o options) bool { return o.stragglers <= 0 }, errFactorNoStraggler},
	{[]string{"link-degrade-factor"}, func(o options) bool { return o.linkDegradeFrac <= 0 }, errFactorNoDegrade},
	{[]string{"prefix-len", "prefix-turns"}, func(o options) bool { return o.prefixGroups <= 0 }, errPrefixNoGroups},
	{[]string{"domain-mtbf"}, func(o options) bool { return o.faultDomains <= 0 }, errDomainsNoTopology},
	{[]string{"fault-domains"}, func(o options) bool { return o.domainMTBF <= 0 }, errTopologyNoDomains},
	{[]string{"domain-kind"}, func(o options) bool { return o.faultDomains <= 0 }, errKindNoDomains},
	{[]string{"max-retries", "restart-delay"}, func(o options) bool { return o.mtbf <= 0 && o.domainMTBF <= 0 }, errRecoveryNoCrashes},
	{[]string{"rate"}, func(o options) bool { return strings.EqualFold(o.arrivals, workload.ArrivalInstant) }, errRateInstant},
	{[]string{"oracle"}, func(o options) bool { return o.oracle && !tdpipeSched(o.sched) }, errOracleBaseline},
}

// tdpipeSched reports whether sched names the TD-Pipe scheduler.
func tdpipeSched(sched string) bool {
	s := strings.ToLower(sched)
	return s == "tdpipe" || s == "td-pipe"
}

// run executes one invocation. visit enumerates the flags set on the
// command line (flag.Visit, or a test's FlagSet.Visit), which the
// mode checks use to reject flags the chosen mode would ignore.
func run(o options, visit func(func(*flag.Flag))) error {
	set := map[string]bool{}
	visit(func(f *flag.Flag) { set[f.Name] = true })
	if o.replicas < 1 {
		return fmt.Errorf("%w, got -replicas %d", errReplicas, o.replicas)
	}
	if set["policy"] && o.replicas == 1 && !o.disagg {
		return fmt.Errorf("%w, got -policy %s with -replicas 1", errPolicyNoFleet, o.policy)
	}
	for _, d := range dependentFlags {
		for _, name := range d.flags {
			if set[name] && d.off(o) {
				return fmt.Errorf("%w (got -%s)", d.err, name)
			}
		}
	}
	open := !strings.EqualFold(o.arrivals, workload.ArrivalInstant)
	// The policy stack rides the online fleet router, except that with
	// -disagg the breakers attach to both pools and the autoscaler
	// scales the decode pool (dependentFlags refuses the rest there).
	// Online breakers classify completions against the TTFT SLO.
	stackSet := false
	for _, name := range []string{"admit-rate", "admit-burst", "retry-attempts", "priority-tiers",
		"breaker-failures", "autoscale-max", "autoscale-min", "autoscale-interval"} {
		stackSet = stackSet || set[name]
	}
	if stackSet && !o.disagg && (o.replicas <= 1 || !open) {
		return fmt.Errorf("the policy stack needs the online fleet router: -replicas > 1 with open-loop -arrivals (or -disagg for -breaker-failures and the -autoscale-* flags)")
	}
	if o.breakerFailures > 0 && o.slo.TTFT <= 0 && !o.disagg {
		return fmt.Errorf("-breaker-failures classifies completions against the TTFT SLO: set -slo-ttft (with -disagg breakers are crash-fed instead)")
	}
	fc := o.faultConfig()
	if (fc.MTBF > 0 || fc.LinkDegradeFrac > 0 || fc.LinkPartitionFrac > 0 || fc.DomainMTBF > 0) && fc.Horizon <= 0 {
		return fmt.Errorf("-mtbf, -domain-mtbf and the -link-* impairments need -fault-horizon to bound when failures can land")
	}
	if err := fc.Validate(); err != nil {
		return err
	}
	if fc.Enabled() && !o.disagg && o.replicas <= 1 {
		return fmt.Errorf("fault injection needs a router to recover through: use fleet mode (-replicas > 1) or -disagg")
	}
	node, err := pickNode(o.node)
	if err != nil {
		return err
	}
	spec, err := pickModel(o.model)
	if err != nil {
		return err
	}
	if o.requests > o.pool {
		o.pool = o.requests
	}
	pool, err := workload.Generate(workload.DefaultConfig(o.pool, o.seed))
	if err != nil {
		return err
	}
	reqs := workload.Sample(pool, o.requests, o.seed+1000)

	if o.prefixGroups > 0 {
		reqs, err = workload.StampPrefixes(reqs, workload.PrefixConfig{
			Groups: o.prefixGroups, PrefixLen: o.prefixLen, Turns: o.prefixTurns, Seed: o.seed + 3000,
		})
		if err != nil {
			return err
		}
	}

	acfg := workload.ArrivalConfig{Kind: o.arrivals, Rate: o.rate, Seed: o.seed + 2000}
	if err := acfg.Validate(); err != nil {
		return err
	}
	if open {
		if reqs, err = acfg.Stamp(reqs); err != nil {
			return err
		}
	}

	if o.priorityTiers > 0 {
		reqs, err = workload.StampPriorities(reqs, workload.PriorityConfig{
			Tiers: o.priorityTiers, HighFraction: 0.2, Seed: o.seed + 6000,
		})
		if err != nil {
			return err
		}
	}

	if o.disagg {
		if !tdpipeSched(o.sched) {
			return fmt.Errorf("disaggregated mode (-disagg) requires -sched tdpipe, got %q", o.sched)
		}
		if o.kvBW > 0 {
			node.KVLinkGBps = o.kvBW
		}
		if o.kvLat > 0 {
			node.KVLinkLatency = o.kvLat
		}
		return runFleet(o, node, spec, pool, reqs, open)
	}
	if o.replicas > 1 {
		if !tdpipeSched(o.sched) {
			return fmt.Errorf("fleet mode (-replicas %d) requires -sched tdpipe, got %q", o.replicas, o.sched)
		}
		return runFleet(o, node, spec, pool, reqs, open)
	}

	var rep metrics.Report
	var rec *metrics.Recorder
	var kv []metrics.KVPoint

	switch strings.ToLower(o.sched) {
	case "tdpipe", "td-pipe":
		cfg, err := engineConfig(o, node, spec, pool)
		if err != nil {
			return err
		}
		cfg.RecordKV = true
		cfg.RecordBusy = o.outDir != "" // utilization.csv and busy_intervals.csv
		start := time.Now()
		res, err := core.Run(cfg, reqs)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		rep, rec = res.Report, res.Rec
		if res.KV != nil {
			kv = res.KV.Points
		}
		printKernel(res.Steps, wall, 0)
	case "tp+sb", "tp+hb", "pp+sb", "pp+hb":
		var m baselines.Method
		switch strings.ToLower(o.sched) {
		case "tp+sb":
			m = baselines.TPSB
		case "tp+hb":
			m = baselines.TPHB
		case "pp+sb":
			m = baselines.PPSB
		default:
			m = baselines.PPHB
		}
		bcfg := baselines.DefaultConfig(node, spec, o.gpus, m)
		bcfg.SLO = o.slo
		res, err := baselines.Run(bcfg, reqs)
		if err != nil {
			return err
		}
		rep, rec = res.Report, res.Rec
	case "offload":
		if open {
			return fmt.Errorf("the offload scheduler is offline-only; use -arrivals instant")
		}
		res, err := offload.Run(offload.DefaultConfig(node, spec, o.gpus), reqs)
		if err != nil {
			return err
		}
		rep = res.Report
	default:
		return fmt.Errorf("unknown scheduler %q", o.sched)
	}

	printReport(rep)
	printLatency(rep, open)
	printPrefix(rep)

	if o.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var util []metrics.UtilPoint
	if rec != nil {
		util = rec.Timeline(rep.Elapsed/200, rep.Elapsed)
		f, err := os.Create(filepath.Join(o.outDir, "utilization.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteUtilizationCSV(f, util); err != nil {
			return err
		}
		g, err := os.Create(filepath.Join(o.outDir, "busy_intervals.csv"))
		if err != nil {
			return err
		}
		defer g.Close()
		if err := trace.WriteBusyIntervalsCSV(g, rec); err != nil {
			return err
		}
	}
	if kv != nil {
		f, err := os.Create(filepath.Join(o.outDir, "kv_usage.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteKVCSV(f, kv); err != nil {
			return err
		}
	}
	j, err := os.Create(filepath.Join(o.outDir, "run.json"))
	if err != nil {
		return err
	}
	defer j.Close()
	if err := trace.WriteRunJSON(j, trace.Run{Report: rep, Utilization: util, KV: kv}); err != nil {
		return err
	}
	fmt.Printf("exported timelines to %s\n", o.outDir)
	return nil
}
