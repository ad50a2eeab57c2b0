// Package tdpipe is the public facade of the TD-Pipe reproduction: a
// temporally-disaggregated pipeline-parallelism engine for
// high-throughput offline LLM inference (Zhang et al., ICPP 2025),
// together with the simulated multi-GPU substrate it runs on and the
// four vLLM-style baselines it is evaluated against.
//
// The typical flow is:
//
//	trace := tdpipe.NewTrace(5000, 1)                  // ShareGPT-like requests
//	clf := tdpipe.TrainPredictor(trace.Train)          // output-length predictor
//	cfg := tdpipe.NewConfig(tdpipe.A100, tdpipe.Llama2_70B, 4)
//	cfg.Predictor = clf
//	res, err := tdpipe.Run(cfg, trace.Sample(5000))
//	fmt.Println(res.Report)
//
// Baselines run through RunBaseline, and the paper's full evaluation is
// reproduced by the cmd/tdpipe binary (see EXPERIMENTS.md).
package tdpipe

import (
	"repro/internal/baselines"
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

// Re-exported hardware and model catalogs (paper Tables 1 and 2).
var (
	// L20 is the 4x NVIDIA L20 PCIe node.
	L20 = hw.L20
	// A100 is the 4x NVIDIA A100 PCIe node.
	A100 = hw.A100
	// Llama2_13B is Llama2-13B-chat.
	Llama2_13B = model.Llama2_13B
	// Qwen2_5_32B is Qwen2.5-32B-Instruct.
	Qwen2_5_32B = model.Qwen2_5_32B
	// Llama2_70B is Llama2-70B-chat.
	Llama2_70B = model.Llama2_70B
)

// Core aliases: the engine configuration and results.
type (
	// ArrivalProcess generates open-loop arrival times.
	ArrivalProcess = workload.ArrivalProcess
	// ArrivalConfig selects an arrival process by name (flag-friendly).
	ArrivalConfig = workload.ArrivalConfig
	// PrefixConfig describes shared-prefix trace structure (system
	// prompts, multi-turn conversations) for StampPrefixes.
	PrefixConfig = workload.PrefixConfig
	// SLO is a latency objective (TTFT/TPOT/E2E bounds) for goodput.
	SLO = metrics.SLO
	// LatencyDigest summarizes per-request latency percentiles.
	LatencyDigest = metrics.LatencyDigest
	// RequestRecord is one request's lifecycle timestamps.
	RequestRecord = metrics.RequestRecord
	// Node describes a multi-GPU server.
	Node = hw.Node
	// ModelSpec describes a transformer model.
	ModelSpec = model.Spec
	// Config parameterizes the TD-Pipe engine.
	Config = core.Config
	// Result is a TD-Pipe run outcome.
	Result = core.Result
	// Report summarizes any run.
	Report = metrics.Report
	// Request is one inference request.
	Request = workload.Request
	// Predictor estimates output lengths for the greedy prefill.
	Predictor = core.LenPredictor
	// BaselineMethod selects one of the paper's comparison systems.
	BaselineMethod = baselines.Method
	// BaselineResult is a baseline run outcome.
	BaselineResult = baselines.Result
)

// Baseline methods (paper §4.1).
const (
	TPSB = baselines.TPSB
	TPHB = baselines.TPHB
	PPSB = baselines.PPSB
	PPHB = baselines.PPHB
)

// Built-in arrival process kinds for ArrivalConfig.
const (
	ArrivalInstant = workload.ArrivalInstant
	ArrivalPoisson = workload.ArrivalPoisson
	ArrivalBursty  = workload.ArrivalBursty
	ArrivalDiurnal = workload.ArrivalDiurnal
)

// DefaultSLO returns the default serving objective used by the online
// experiments.
func DefaultSLO() SLO { return metrics.DefaultSLO() }

// StampArrivals returns a copy of reqs with open-loop arrival times
// drawn from the configured process. Engines admit a request only once
// virtual time reaches its arrival; unstamped traces (all arrivals at
// t=0) reproduce the offline-batch behavior exactly.
func StampArrivals(reqs []Request, cfg ArrivalConfig) ([]Request, error) {
	return cfg.Stamp(reqs)
}

// HasArrivals reports whether the trace is open-loop (any request
// arrives after t=0).
func HasArrivals(reqs []Request) bool { return workload.HasArrivals(reqs) }

// StampPrefixes returns a copy of reqs carrying shared-prefix
// structure: each request joins a prefix group whose leading tokens
// are shared, so engines can reuse resident KV and skip the cached
// prefill work. Composes with StampArrivals in either order; unstamped
// traces behave exactly as before.
func StampPrefixes(reqs []Request, cfg PrefixConfig) ([]Request, error) {
	return workload.StampPrefixes(reqs, cfg)
}

// HasPrefixes reports whether the trace carries shared-prefix
// structure.
func HasPrefixes(reqs []Request) bool { return workload.HasPrefixes(reqs) }

// NewConfig returns a paper-faithful TD-Pipe configuration for world
// GPUs of the node running the model. The default predictor is the
// oracle; install a trained classifier for realistic behaviour.
func NewConfig(node Node, spec ModelSpec, world int) Config {
	return core.DefaultConfig(node, spec, world)
}

// Run executes the trace under TD-Pipe in virtual time.
func Run(cfg Config, reqs []Request) (*Result, error) {
	return core.Run(cfg, reqs)
}

// Fleet aliases: the data-parallel multi-replica serving layer.
type (
	// FleetResult is the merged outcome of a multi-replica run.
	FleetResult = fleet.Result
	// FleetPolicy dispatches requests across replicas.
	FleetPolicy = fleet.Policy
	// FleetOptions parameterize policy construction (seed, predictor).
	FleetOptions = fleet.Options
	// FleetConfig describes a fleet for RunFleet: a colocated one
	// (replica count and dispatch policy) or a prefill/decode split
	// (the two pool sizes), and the optional fault plan and policy
	// stack, alone or together. Build the policy with
	// NewFleetPolicy, fresh for every run: round-robin and random carry
	// state from one run into the next.
	FleetConfig = fleet.ServeConfig
)

// Built-in fleet dispatch policies.
const (
	FleetRoundRobin     = fleet.RoundRobin
	FleetRandom         = fleet.Random
	FleetLeastWork      = fleet.LeastWork
	FleetPredictedCost  = fleet.PredictedCost
	FleetPrefixAffinity = fleet.PrefixAffinity
	FleetDecodeAffinity = fleet.DecodeAffinity
)

// FleetPolicies lists the registered dispatch policies.
func FleetPolicies() []string { return fleet.Names() }

// NewFleetPolicy builds a registered dispatch policy by name.
func NewFleetPolicy(name string, opts FleetOptions) (FleetPolicy, error) {
	return fleet.New(name, opts)
}

// RunFleet serves the trace on the fleet fc describes and merges the
// per-replica reports (including per-request latency records) into one
// fleet report. Results are deterministic for a given trace, config and
// policy seed (FleetOptions.Seed), and byte-identical at every
// GOMAXPROCS, which sizes the simulation's worker pool.
//
// Every run goes through the online router: all replicas share one
// virtual clock and each request is dispatched at its arrival instant
// on a live snapshot of per-replica outstanding work. A closed-loop
// trace (every arrival at t=0) is routed before any replica starts, so
// each replica's first prefill batch holds its whole share.
//
// A colocated fleet runs fc.Replicas TD-Pipe engines under fc.Policy.
// A phase-disaggregated one (fc.PrefillReplicas and fc.DecodeReplicas
// set, Replicas and Policy left unset) dispatches arrivals least-work
// across its prefill pool and hands each request's finished prefix KV
// to its decode pool over the node's modeled KV link (transfer time =
// blocks x block bytes / bandwidth + latency, overlapping decode-side
// queueing), onto the decode replica with the warmest resident KV, then
// the most free-KV headroom. Compare the two shapes on the same trace
// to measure what the split buys (TTFT tails under bursts) and costs
// (transfer time, decode slots); the result's Handoffs,
// QueuedHandoffs and TransferredBytes carry the split's accounting. A
// split fleet always runs on one worker.
//
// fc.Faults executes a fault plan (see NewFaultPlan): crashed replicas
// abort their in-flight requests, routing skips dead replicas, and
// aborted work is re-dispatched — by recompute, or from the latest
// periodic KV checkpoint when the plan sets a CheckpointInterval —
// under the plan's retry budget. A split fleet's plan indexes the
// prefill pool first, then decode, and its KV-link windows stretch or
// cut the hand-off transfers. fc.Stack attaches the policy stack:
// admission shedding and retry, breaker-aware routing, priority
// preemption, and autoscaling between the autoscaler's bounds (each
// scale-up pays the node's modeled weight-load cold start;
// Report.Autoscale carries the provisioned GPU-second bill); a split
// fleet takes only breakers and a decode-pool autoscaler. The two
// layers compose: a request with no candidate waits for a restart only
// when crashes killed every active replica and re-enters admission
// otherwise, crash re-dispatches and re-admissions each spend their own
// layer's budget, and a drop by the retry schedule counts in
// Report.Admission, any other in Report.Faults when a plan runs. Under
// any layer every trace request ends exactly once finished or dropped,
// so Requests + Faults.Dropped + Admission.Dropped is the trace length.
// An inactive plan or stack (nil, or one that schedules nothing) takes
// the exact layer-free code path.
func RunFleet(cfg Config, reqs []Request, fc FleetConfig) (*FleetResult, error) {
	return fleet.Serve(cfg, reqs, fc)
}

// Policy aliases: the elastic autoscaler and the composable front-door
// serving policies (see FleetConfig.Stack).
type (
	// PolicyStack composes the front-door policies for an elastic fleet
	// run: token-bucket admission, retry backoff, per-replica circuit
	// breaking, priority preemption and the autoscaler. Every field is
	// optional; a nil or empty stack is inactive and takes the exact
	// layer-free RunFleet code path.
	PolicyStack = policy.Stack
	// AutoscalerConfig parameterizes the elastic autoscaler: replica
	// bounds, evaluation cadence, SLO targets and cooldowns.
	AutoscalerConfig = policy.AutoscalerConfig
	// BackoffConfig parameterizes seeded exponential retry backoff.
	BackoffConfig = policy.BackoffConfig
	// BreakerConfig parameterizes per-replica circuit breaking
	// (closed -> open -> half-open on TTFT SLO misses).
	BreakerConfig = policy.BreakerConfig
	// PreemptionConfig parameterizes priority preemption: high-tier
	// arrivals evict low-tier KV through the recompute path.
	PreemptionConfig = policy.PreemptionConfig
	// PriorityConfig stamps priority tiers on a trace (StampPriorities).
	PriorityConfig = workload.PriorityConfig
	// AutoscaleStats is the scaling accounting in Report.Autoscale.
	AutoscaleStats = metrics.AutoscaleStats
	// AdmissionStats is the front-door accounting in Report.Admission.
	AdmissionStats = metrics.AdmissionStats
)

// NewAutoscaler builds the elastic replica controller; cfg must
// validate. Leave AutoscalerConfig.ColdStart zero to let the fleet
// router charge the node's modeled weight-load time per scale-up.
func NewAutoscaler(cfg AutoscalerConfig) (*policy.Autoscaler, error) {
	return policy.NewAutoscaler(cfg)
}

// NewTokenBucket builds a token-bucket admission limiter: rate
// requests/s refill with the given burst capacity.
func NewTokenBucket(rate, burst float64) *policy.TokenBucket {
	return policy.NewTokenBucket(rate, burst)
}

// NewBackoff builds the seeded retry-delay schedule used for shed
// requests.
func NewBackoff(cfg BackoffConfig) *policy.Backoff { return policy.NewBackoff(cfg) }

// StampPriorities returns a copy of reqs carrying priority tiers (0 is
// most important). With a PolicyStack whose Preemption is set, tier-0
// arrivals evict lower tiers' KV under memory pressure; unstamped
// traces behave exactly as before.
func StampPriorities(reqs []Request, cfg PriorityConfig) ([]Request, error) {
	return workload.StampPriorities(reqs, cfg)
}

// HasPriorities reports whether the trace carries priority structure.
func HasPriorities(reqs []Request) bool { return workload.HasPriorities(reqs) }

// Fault-injection aliases: seeded failure plans for fleet runs.
type (
	// FaultConfig parameterizes a seeded fault plan: crash MTBF and
	// restart delay, straggler count and slowdown, KV-link impairment
	// windows, the periodic KV checkpoint cadence, and (with a Topology
	// and DomainMTBF) correlated rack/zone domain outages.
	FaultConfig = faults.Config
	// FaultPlan is a fully materialized, deterministic failure schedule
	// drawn from a FaultConfig seed.
	FaultPlan = faults.Plan
	// FaultStats is the recovery accounting attached to Report.Faults.
	FaultStats = metrics.FaultStats
	// Topology maps fleet replicas onto racks and zones; set it on a
	// FaultConfig (with DomainMTBF) to draw correlated domain outages
	// on top of the independent per-replica schedule.
	Topology = hw.Topology
	// DomainOutage is one materialized correlated failure event in
	// FaultPlan.Domains: a rack or zone losing power (members crash
	// together) or network (members serve but their KV links partition).
	DomainOutage = faults.DomainOutage
)

// Correlated-outage kinds for FaultConfig.DomainKind.
const (
	// DomainPower crashes every domain member together.
	DomainPower = faults.DomainPower
	// DomainNetwork partitions every member's KV links while the
	// members keep serving.
	DomainNetwork = faults.DomainNetwork
	// DomainMixed draws power or network per event.
	DomainMixed = faults.DomainMixed
)

// NewFaultPlan draws the deterministic failure schedule for a fleet of
// replicas: per-replica crash instants (each outage lasting downtime),
// straggler assignments and KV-link impairment windows. The same config
// and replica count always yield the same plan.
func NewFaultPlan(cfg FaultConfig, replicas int, downtime float64) (*FaultPlan, error) {
	return faults.NewPlan(cfg, replicas, downtime)
}

// FaultWeightReloadTime models the per-crash weight-reload cost: the
// time to pull the largest pipeline stage's weights back over the
// node's host link. Add it to the process restart delay to size a
// plan's downtime.
func FaultWeightReloadTime(node Node, spec ModelSpec, world int) float64 {
	return faults.WeightReloadTime(node, spec, world)
}

// NewBaselineConfig returns a vLLM-like configuration for one of the
// four baselines.
func NewBaselineConfig(node Node, spec ModelSpec, world int, m BaselineMethod) baselines.Config {
	return baselines.DefaultConfig(node, spec, world, m)
}

// RunBaseline executes the trace under a baseline scheduler.
func RunBaseline(cfg baselines.Config, reqs []Request) (*BaselineResult, error) {
	return baselines.Run(cfg, reqs)
}

// Trace bundles a generated corpus with its train/val/test split.
type Trace struct {
	All        []Request
	Train, Val []Request
	Test       []Request
}

// NewTrace generates a seeded ShareGPT-like corpus of n requests and
// splits it 60/20/20 as in the paper.
func NewTrace(n int, seed int64) (*Trace, error) {
	reqs, err := workload.Generate(workload.DefaultConfig(n, seed))
	if err != nil {
		return nil, err
	}
	tr, val, test, err := workload.Split(reqs, 0.6, 0.2)
	if err != nil {
		return nil, err
	}
	return &Trace{All: reqs, Train: tr, Val: val, Test: test}, nil
}

// Sample draws k requests (deterministically re-seeded from the trace)
// renumbered for direct use with Run.
func (t *Trace) Sample(k int, seed int64) []Request {
	return workload.Sample(t.All, k, seed)
}

// TrainPredictor fits the µ-Serve-style five-bin output-length
// classifier on historical requests.
func TrainPredictor(train []Request) (*predictor.Classifier, error) {
	return predictor.Train(train, predictor.DefaultTrainConfig())
}

// TraceConfig controls synthetic trace generation for custom workloads
// (prompt/output length distributions, topic structure, noise).
type TraceConfig = workload.Config

// DefaultTraceConfig returns ShareGPT-like generation settings.
func DefaultTraceConfig(n int, seed int64) TraceConfig {
	return workload.DefaultConfig(n, seed)
}

// GenerateTrace produces a deterministic trace from a custom config and
// splits it 60/20/20.
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	reqs, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	tr, val, test, err := workload.Split(reqs, 0.6, 0.2)
	if err != nil {
		return nil, err
	}
	return &Trace{All: reqs, Train: tr, Val: val, Test: test}, nil
}
