// Package fleet is the data-parallel serving layer: it serves a request
// trace on N TD-Pipe engine replicas and merges their per-replica
// reports into one fleet-level report. Serve is the one entry point,
// for colocated and prefill/decode-split fleets alike (ServeConfig
// describes either). Every routed run goes through one router
// (online.go) over one pool of replicas, or a prefill and a decode pool
// joined by the KV hand-off path (disagg.go), with an optional fault
// layer (faults.go) and policy layer (elastic.go) that compose on any
// run. Every mode runs its replicas on the conservative co-simulation
// fabric (parallel.go), whose workers take only per-replica work that
// no control event separates (a prefill/decode split leaves them none,
// and runs on one), so reports are byte-identical across worker
// counts.
//
// Routing is pluggable: a Policy picks a replica per request
// (round-robin, seeded random, least known work, or predicted-cost
// using the paper's output-length classifier), and policies are
// registered by name so binaries can select them via a flag.
package fleet

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Shard is the portion of a trace routed to one replica.
type Shard struct {
	// Origin[i] is the index in the routed trace of the replica's
	// request i.
	Origin []int
}

// Result is the outcome of a fleet run.
type Result struct {
	// Report is the fleet-level aggregate: token counts summed,
	// Elapsed the slowest replica (replicas run concurrently), and
	// utilization averaged over all GPU-seconds of the fleet makespan.
	// Report.Latency digests the merged per-request records.
	Report metrics.Report
	// Replicas holds per-replica engine results in replica order, the
	// prefill pool first on a split fleet.
	Replicas []*core.Result
	// Shards records the dispatch; Shards[i].Origin maps replica i's
	// requests back to indices in the dispatched trace. On a split
	// fleet every request appears in one prefill shard, and every
	// hand-off in one decode shard (a single-token output finishes at
	// prefill and appears in none).
	Shards []Shard
	// Records holds the merged per-request records, indexed by the
	// request's position in the dispatched trace (record ID == trace
	// index). The merge is deterministic and conservation-checked:
	// every trace position is covered by exactly one replica record,
	// on a split fleet the decode replica's for a handed-off request
	// (it carries the original arrival and first-token instants).
	Records []metrics.RequestRecord
	// Policy is the dispatch policy name; empty on a split fleet,
	// whose pools' policies are fixed.
	Policy string
	// PrefillReplicas is the split fleet's prefill pool size:
	// Replicas[:PrefillReplicas] and Shards[:PrefillReplicas] are the
	// prefill pool, the rest the decode pool. 0 on a colocated fleet.
	PrefillReplicas int
	// Handoffs counts requests a split fleet migrated to its decode
	// pool, QueuedHandoffs those that waited for decode-pool KV
	// headroom after their transfer, and TransferredBytes the KV that
	// hand-offs and checkpoint reloads moved.
	Handoffs, QueuedHandoffs int
	TransferredBytes         float64
	// Steps counts the simulation events processed across the run's
	// engines (router timeline included for online runs). Dividing by
	// wall-clock time yields the simulator's steps/sec rate.
	Steps uint64
	// Workers is the number of fabric workers the run used.
	Workers int
}

// ServeConfig describes one fleet deployment for Serve: a colocated
// fleet (Replicas and Policy) or a prefill/decode split
// (PrefillReplicas and DecodeReplicas), never both.
type ServeConfig struct {
	// Replicas is the number of data-parallel copies of the run's
	// core.Config; under an autoscaler, the provisioned pool it scales
	// inside (it must cover the autoscaler's Max).
	Replicas int
	// Policy picks a replica per request (see New).
	Policy Policy
	// PrefillReplicas and DecodeReplicas size a split fleet's two
	// pools. Arrivals go least-work across the prefill pool; each
	// hand-off goes to the decode replica the decode-affinity pick
	// ranks first. Under an autoscaler, DecodeReplicas is the
	// provisioned decode pool it scales inside.
	PrefillReplicas, DecodeReplicas int
	// Workers budgets the fabric's worker pool, which runs replicas
	// only where no control event separates them: 0 or 1 is
	// sequential, WorkersAuto GOMAXPROCS for fleets of at least
	// AutoWorkerThreshold replicas (see ResolveWorkers). Every run
	// builds and finalizes its engines on the pool and runs its
	// replicas there after the last control event (for a closed-loop
	// trace without layers, after the t=0 arrivals). A split fleet's
	// coordinator advances both pools through the last hand-off,
	// which leaves a pool nothing to run, so it always runs on one
	// worker.
	Workers int
	// Faults and Stack attach the fault and policy layers, alone or
	// together; nil or inactive attaches none. A split fleet's plan
	// indexes the prefill pool first, then decode: crashes hit both
	// pools and hand-offs cross its impaired-link windows. A split
	// fleet's stack may carry only a Breaker, which every replica of
	// both pools gets, fed by crashes and finishes, and an Autoscaler,
	// which scales the decode pool.
	Faults *faults.Plan
	Stack  *policy.Stack
}

// DisaggConfig is ServeConfig, kept for its only caller, the
// end-to-end benchmark harness (cmd/tdpipe-bench).
type DisaggConfig = ServeConfig

// The errors ServeConfig.Validate wraps, one per bad mix.
var (
	// ErrShapeConflict reports Replicas and a prefill/decode split set
	// at once.
	ErrShapeConflict = errors.New("fleet: set Replicas or a prefill/decode split, not both")
	// ErrPoolSize reports a pool of fewer than one replica.
	ErrPoolSize = errors.New("fleet: every pool needs at least one replica")
	// ErrNilPolicy reports a colocated fleet without a dispatch policy.
	ErrNilPolicy = errors.New("fleet: nil policy")
	// ErrSplitPolicy reports a Policy on a split fleet, whose pools'
	// policies are fixed.
	ErrSplitPolicy = errors.New("fleet: a split fleet's dispatch policies are fixed; leave Policy unset")
	// ErrSplitStack reports a split fleet's stack carrying Admission,
	// Retry or Preemption, which a split cannot honor.
	ErrSplitStack = errors.New("fleet: a split fleet's stack takes only Breaker and Autoscaler")
	// ErrAutoscaleMax reports an autoscaler Max above the pool it
	// scales.
	ErrAutoscaleMax = errors.New("fleet: autoscaler Max exceeds the provisioned pool")
)

// split reports whether sc describes a prefill/decode split.
func (sc ServeConfig) split() bool { return sc.PrefillReplicas != 0 || sc.DecodeReplicas != 0 }

// Validate reports a configuration error, if any.
func (sc ServeConfig) Validate() error {
	scaled := sc.Replicas
	if sc.split() {
		scaled = sc.DecodeReplicas
		switch {
		case sc.Replicas != 0:
			return fmt.Errorf("%w: Replicas %d with %dP+%dD", ErrShapeConflict, sc.Replicas, sc.PrefillReplicas, sc.DecodeReplicas)
		case sc.PrefillReplicas <= 0 || sc.DecodeReplicas <= 0:
			return fmt.Errorf("%w: %dP+%dD", ErrPoolSize, sc.PrefillReplicas, sc.DecodeReplicas)
		case sc.Policy != nil:
			return fmt.Errorf("%w, got %q", ErrSplitPolicy, sc.Policy.Name())
		case sc.Stack != nil && (sc.Stack.Admission != nil || sc.Stack.Retry != nil || sc.Stack.Preemption != nil):
			return ErrSplitStack
		}
	} else {
		switch {
		case sc.Replicas <= 0:
			return fmt.Errorf("%w: replicas = %d", ErrPoolSize, sc.Replicas)
		case sc.Policy == nil:
			return ErrNilPolicy
		}
	}
	if sc.Stack != nil && sc.Stack.Autoscaler != nil {
		if m := sc.Stack.Autoscaler.Config().Max; m > scaled {
			return fmt.Errorf("%w: Max %d, %d provisioned", ErrAutoscaleMax, m, scaled)
		}
	}
	return nil
}

// Serve runs reqs on the fleet sc describes, every replica a copy of
// cfg, deterministically for a fixed trace, config and policy seed,
// and byte-identically at every sc.Workers count.
//
// Every run goes through the router: all engines share one virtual
// clock and each request is routed at its arrival instant on a live,
// incrementally kept load snapshot (outstanding work, resident prefix,
// free KV). A closed-loop trace (every arrival at t=0) is routed
// before any replica starts, so each replica's first prefill batch
// holds every request routed to it, and the prefix warmth policies
// read is that of the requests routed so far
// (core.Engine.PrefixWarmTokens).
//
// A colocated fleet is one pool under sc.Policy. A split fleet routes
// arrivals to its prefill pool; when a prefill completes, the engine
// exports the finished prefix KV (core.Handoff) and the router moves it
// over the node's KV link (blocks x block bytes / bandwidth + latency)
// to a decode replica, where generation resumes. The transfer overlaps
// decode-side queueing, and a transferred hand-off waits only while no
// decode replica has the KV headroom to import it.
//
// The fault layer crashes and restarts replicas on the plan's schedule;
// routing skips dead replicas, and crash-lost requests are
// re-dispatched, resuming from a periodic KV checkpoint when one
// exists. The policy layer adds token-bucket admission with seeded
// retry backoff, per-replica circuit breakers, priority preemption and
// the autoscaler, whose scale-ups pay ColdStart or, when that is zero,
// the modeled weight load of one replica.
//
// The two layers compose under three rules. A request with no
// candidate waits for a restart or an activation only when the fault
// layer has killed every replica the autoscaler keeps active, and on
// the retry schedule otherwise. Each layer spends its own per-request
// budget: crash re-dispatches count against the plan's MaxRetries,
// re-admissions against the retry policy's MaxAttempts. A request the
// retry schedule gives up on counts in Report.Admission.Dropped, any
// other drop in Report.Faults.Dropped when a plan runs and in
// Report.Admission.Dropped otherwise. Under any layer every request
// finishes exactly once XOR is dropped with a reason (one too large
// for any replica included; a plain run fails on it), so Requests +
// Faults.Dropped + Admission.Dropped is the trace length.
func Serve(cfg core.Config, reqs []workload.Request, sc ServeConfig) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := validateArrivals(reqs); err != nil {
		return nil, err
	}
	var pools []*pool
	workers := sc.Workers
	if sc.split() {
		pre, err := New(LeastWork, Options{Predictor: cfg.Predictor})
		if err != nil {
			return nil, err
		}
		dec, err := New(DecodeAffinity, Options{Predictor: cfg.Predictor})
		if err != nil {
			return nil, err
		}
		pools = []*pool{newPool("prefill ", sc.PrefillReplicas, pre), newPool("decode ", sc.DecodeReplicas, dec)}
		// The coordinator advances both pools through the last
		// hand-off, which leaves a worker pool nothing to run.
		workers = 1
	} else {
		pools = []*pool{newPool("", sc.Replicas, sc.Policy)}
	}
	ro, err := newRouter(cfg, reqs, workers, sc.Faults, sc.Stack, pools...)
	if err != nil {
		return nil, err
	}
	rep, results, records, err := ro.serve(cfg, ro.scheduler(sc))
	if err != nil {
		return nil, err
	}
	res := &Result{Report: rep, Replicas: results, Shards: pools[0].shards, Records: records,
		Handoffs: ro.handoffs, QueuedHandoffs: ro.queuedHandoffs, TransferredBytes: ro.moved,
		Steps: ro.fab.Steps(), Workers: ro.fab.workers}
	if sc.split() {
		res.PrefillReplicas = sc.PrefillReplicas
		res.Shards = append(res.Shards[:sc.PrefillReplicas:sc.PrefillReplicas], pools[1].shards...)
	} else {
		res.Policy = sc.Policy.Name()
	}
	return res, nil
}

// RunOnlineWorkers is Serve without layers, kept for its only caller,
// the end-to-end benchmark harness (cmd/tdpipe-bench).
func RunOnlineWorkers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, workers int) (*Result, error) {
	return Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: p, Workers: workers})
}

// RunOnlineElasticWorkers is Serve with a policy stack, kept for its
// only caller, the end-to-end benchmark harness (cmd/tdpipe-bench).
func RunOnlineElasticWorkers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, stack *policy.Stack, workers int) (*Result, error) {
	return Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: p, Workers: workers, Stack: stack})
}

// RunDisaggFaults is Serve on a split fleet under plan, kept for its
// only caller, the end-to-end benchmark harness (cmd/tdpipe-bench).
func RunDisaggFaults(cfg core.Config, dc DisaggConfig, reqs []workload.Request, plan *faults.Plan) (*Result, error) {
	dc.Faults = plan
	return Serve(cfg, reqs, dc)
}

// foldReport builds a fleet-level report, the one fold every fleet mode
// shares. Request and input-token counts cover the trace minus its
// dropped requests (dropped[origin] != ""), output tokens sum the
// merged records, per-replica counters sum, Elapsed and KVPeakUsage
// take the slowest and fullest replica, and utilization averages over
// all GPU-seconds of the fleet makespan. The replicas' crash and
// checkpoint accounting folds too (all zero without a fault plan).
func foldReport(cfg core.Config, scheduler string, reqs []workload.Request, dropped []string,
	results []*core.Result, records []metrics.RequestRecord) metrics.Report {
	rep := metrics.Report{
		Scheduler: scheduler,
		Node:      cfg.Node.Name,
		Model:     cfg.Spec.Name,
		GPUs:      cfg.World * len(results),
	}
	for origin, r := range reqs {
		if dropped[origin] == "" {
			rep.Requests++
			rep.InputTokens += r.InputLen
		}
	}
	for _, rec := range records {
		rep.OutputTokens += rec.OutputTokens
	}
	var busy float64
	for _, r := range results {
		rr := r.Report
		rep.PhaseSwitches += rr.PhaseSwitches
		rep.Recomputes += rr.Recomputes
		rep.PrefixCachedTokens += rr.PrefixCachedTokens
		rep.Faults.Add(rr.Faults)
		if rr.Elapsed > rep.Elapsed {
			rep.Elapsed = rr.Elapsed
		}
		if rr.KVPeakUsage > rep.KVPeakUsage {
			rep.KVPeakUsage = rr.KVPeakUsage
		}
		busy += rr.MeanUtilization * rr.Elapsed * float64(rr.GPUs)
	}
	if len(results) == 1 {
		// A single-replica fleet is the lone engine; copy its
		// utilization rather than round-tripping through the weighted
		// average (which costs one ulp).
		rep.MeanUtilization = results[0].Report.MeanUtilization
	} else if rep.Elapsed > 0 && rep.GPUs > 0 {
		rep.MeanUtilization = busy / (rep.Elapsed * float64(rep.GPUs))
	}
	rep.BubbleRatio = 1 - rep.MeanUtilization
	rep.Latency = metrics.Digest(records, cfg.SLO)
	return rep
}

// recRef locates the record of a request's final owner: the replica
// (indexed across every pool of the run) and its replica-local id.
type recRef struct{ replica, local int }

// ledger is the exactly-once bookkeeping of a routed run: who owns each
// request's record, how often it finished terminally and why it was
// dropped. Conservation is exactly one terminal finish XOR a drop
// reason for every trace request.
type ledger struct {
	reqs []workload.Request
	// final[origin] locates the record of origin's last owner.
	final []recRef
	// fin[origin] counts terminal finishes.
	fin []int
	// droppedReason[origin] is non-empty once origin is abandoned.
	droppedReason []string
	dropped       int
	// finished counts terminal finishes outside the fabric's tail.
	finished int
}

func newLedger(reqs []workload.Request) *ledger {
	return &ledger{
		reqs:          reqs,
		final:         make([]recRef, len(reqs)),
		fin:           make([]int, len(reqs)),
		droppedReason: make([]string, len(reqs)),
	}
}

// drop abandons a request with a reason (idempotent).
func (l *ledger) drop(origin int, reason string) {
	if l.droppedReason[origin] == "" {
		l.droppedReason[origin] = reason
		l.dropped++
	}
}

// assemble runs the exactly-once-XOR-dropped conservation check, merges
// each request's final record into trace order and folds the report
// (see foldReport). results are indexed like recRef.replica.
func (l *ledger) assemble(cfg core.Config, scheduler string, results []*core.Result) (metrics.Report, []metrics.RequestRecord, error) {
	records := make([]metrics.RequestRecord, len(l.reqs))
	for origin, ref := range l.final {
		switch f, dropped := l.fin[origin], l.droppedReason[origin] != ""; {
		case f == 1 && !dropped:
			rec := results[ref.replica].Records[ref.local]
			rec.ID = origin
			records[origin] = rec
		case f == 0 && dropped:
			// An unfinished zero record keeps the request in the
			// digest's denominator, so goodput pays for the loss.
			records[origin] = metrics.RequestRecord{ID: origin, Arrival: l.reqs[origin].ArrivalTime}
		case f > 1:
			return metrics.Report{}, nil, fmt.Errorf("fleet: request %d finished %d times", origin, f)
		case dropped:
			return metrics.Report{}, nil, fmt.Errorf("fleet: request %d both finished and dropped (%s)", origin, l.droppedReason[origin])
		default:
			return metrics.Report{}, nil, fmt.Errorf("fleet: request %d lost without a drop reason (fin=%d)", origin, f)
		}
	}
	return foldReport(cfg, scheduler, l.reqs, l.droppedReason, results, records), records, nil
}

// CheckConservation verifies that each of n dispatched requests was
// assigned to exactly one replica of each pool it passed through and
// completed there: every replica reports exactly its shard size, the
// first pool's shard origins partition 0..n-1, and on a split fleet no
// origin appears in two decode shards.
func (r *Result) CheckConservation(n int) error {
	if len(r.Shards) != len(r.Replicas) {
		return fmt.Errorf("fleet: %d shards but %d replica results", len(r.Shards), len(r.Replicas))
	}
	// seen[o] counts origin o's shards in the first pool and the decode
	// pool.
	seen := make([][2]int, n)
	for i, sh := range r.Shards {
		if got := r.Replicas[i].Report.Requests; got != len(sh.Origin) {
			return fmt.Errorf("fleet: replica %d completed %d of %d requests", i, got, len(sh.Origin))
		}
		pool := 0
		if r.PrefillReplicas > 0 && i >= r.PrefillReplicas {
			pool = 1
		}
		for _, o := range sh.Origin {
			if o < 0 || o >= n {
				return fmt.Errorf("fleet: replica %d has origin %d outside trace of %d", i, o, n)
			}
			seen[o][pool]++
		}
	}
	for idx, c := range seen {
		if c[0] != 1 {
			return fmt.Errorf("fleet: request %d dispatched %d times", idx, c[0])
		}
		if c[1] > 1 {
			return fmt.Errorf("fleet: request %d handed off %d times", idx, c[1])
		}
	}
	return nil
}
