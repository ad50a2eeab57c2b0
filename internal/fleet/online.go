package fleet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/kvcache"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrInvalidArrival reports a trace whose arrival stamps cannot be
// scheduled: negative (before simulation start) or NaN. Every online
// router validates the trace up front and returns this error (wrapped
// with the offending trace index) before any engine is built — a bad
// stamp is a workload bug, and silently clamping it to t=0 would
// reorder the trace behind the caller's back.
var ErrInvalidArrival = errors.New("fleet: invalid arrival time")

// validateArrivals rejects traces with negative or NaN arrival stamps.
// Closed-loop traces (all zeros) pass: zero is a valid instant.
func validateArrivals(reqs []workload.Request) error {
	for i := range reqs {
		if at := reqs[i].ArrivalTime; at < 0 || math.IsNaN(at) {
			return fmt.Errorf("%w: request %d arrives at %v; stamp traces with workload arrival processes or shift them to start at t >= 0", ErrInvalidArrival, i, at)
		}
	}
	return nil
}

// RunOnlineWorkers serves an arrival-stamped trace as an online router:
// every replica engine runs on ONE shared virtual clock, and each
// request is routed at its arrival instant. Unlike the offline
// pre-shard (Dispatch), policies see the arrival order and a live load
// snapshot — the work each replica still has outstanding at that
// moment, not the whole-trace totals — through the same Policy
// interface and registry. The snapshot is maintained incrementally:
// submissions add to per-replica counters and each engine's finish
// hook subtracts, so routing one arrival costs O(replicas) instead of
// rescanning every outstanding request.
//
// workers budgets the conservative parallel fabric: 0 or 1 runs
// sequentially, WorkersAuto picks GOMAXPROCS for fleets of at least
// AutoWorkerThreshold replicas. The co-simulation is deterministic for
// a fixed trace, config and policy seed, and reports are byte-identical
// across worker counts. Use Run for closed-loop (all-at-t=0) traces,
// where the pre-shard is equivalent and replicas can simulate in
// parallel.
func RunOnlineWorkers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, workers int) (*Result, error) {
	return runOnline(cfg, replicas, p, reqs, workers, nil, nil)
}

// RunOnlineFaultsWorkers is RunOnlineWorkers under a fault plan: the
// plan schedules replica crashes and restarts, the router
// health-checks every dispatch (dead replicas receive nothing), aborts
// and re-dispatches crash-lost requests — resuming from a periodic KV
// checkpoint when one exists, re-prefilling input+generated tokens
// otherwise — and drops a request only after its retry budget is
// exhausted or no live replica remains, always with a recorded reason.
// Every trace request finishes terminally exactly once XOR carries a
// drop reason. Crash, restore and checkpoint-resume interventions all
// execute on the control timeline, so fault runs stay byte-identical
// across worker counts. An inactive (or nil) plan takes the exact
// RunOnlineWorkers path.
func RunOnlineFaultsWorkers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, plan *faults.Plan, workers int) (*Result, error) {
	return runOnline(cfg, replicas, p, reqs, workers, plan, nil)
}

// RunOnlineElasticWorkers is RunOnlineWorkers under a policy stack
// (package policy): token-bucket admission sheds arrivals, a seeded
// backoff schedule retries them, per-replica circuit breakers take
// SLO-violating replicas out of routing, priority preemption evicts low
// tiers under KV pressure, and the autoscaler breathes the active
// replica set between its Min and Max, paying a modeled cold start on
// every scale-up. replicas is the provisioned fleet — the pool the
// autoscaler may grow into — and must cover the autoscaler's Max. An
// autoscaler whose ColdStart is zero gets the modeled weight-load time
// of one replica (faults.WeightReloadTime for the run's node, model and
// world size). Every intervention executes on the control timeline, so
// reports are byte-identical across worker counts. An inactive (or nil)
// stack takes the exact RunOnlineWorkers path.
func RunOnlineElasticWorkers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, stack *policy.Stack, workers int) (*Result, error) {
	return runOnline(cfg, replicas, p, reqs, workers, nil, stack)
}

// router is the online fleet router. The base routes each request at
// its arrival instant, keeps the per-replica load counters and records
// ownership in the ledger. Two optional layers attach through nil-able
// pointers and hook in at arrival, candidate filter, finish, crash and
// assemble: fault (crash recovery) and pol (the policy stack). A nil
// layer means no hook call. Every intervention executes on the fabric's
// control timeline; only the engines' finish hooks run on shard
// goroutines, and those touch replica-indexed slots exclusively.
type router struct {
	ctl     *sim.Engine
	policy  Policy
	engines []*core.Engine
	reqs    []workload.Request
	books
	led *ledger
	// loads and cand are the per-pick snapshot, reused across picks:
	// loads[j] is the view of replica cand[j].
	loads []Load
	cand  []int

	fault *faultLayer
	pol   *policyLayer
	err   error
}

func runOnline(cfg core.Config, replicas int, p Policy, reqs []workload.Request, workers int, plan *faults.Plan, stack *policy.Stack) (*Result, error) {
	ro, fab, err := newRouter(cfg, replicas, p, reqs, workers, plan, stack)
	if err != nil {
		return nil, err
	}
	fab.drive()
	if ro.err == nil && ro.fault != nil {
		for _, q := range ro.fault.queued {
			ro.led.drop(q.origin, "no live replica")
		}
	}
	results, err := finalize(ro.engines, ro.err)
	if err != nil {
		return nil, err
	}
	mode := "FleetOnline"
	switch {
	case ro.fault != nil:
		mode = "FleetFaults"
	case ro.pol != nil:
		mode = "FleetElastic"
	}
	rep, records, err := ro.led.assemble(cfg, fmt.Sprintf("%s(TD-Pipe/%s)x%d", mode, p.Name(), replicas),
		results, ro.fault != nil || ro.pol != nil)
	if err != nil {
		return nil, err
	}
	if ro.fault != nil {
		ro.fault.assemble(&rep, ro.led)
	}
	if ro.pol != nil {
		ro.pol.assemble(&rep, ro.led)
	}
	return &Result{Report: rep, Replicas: results, Shards: ro.shards, Records: records, Policy: p.Name(), Steps: fab.Steps()}, nil
}

// newRouter validates a run, attaches the layers an active plan or
// stack asks for, starts the engines on a fresh fabric and schedules
// every arrival, crash and autoscale tick on its control timeline.
func newRouter(cfg core.Config, replicas int, p Policy, reqs []workload.Request, workers int, plan *faults.Plan, stack *policy.Stack) (*router, *fabric, error) {
	if replicas <= 0 {
		return nil, nil, fmt.Errorf("fleet: replicas = %d", replicas)
	}
	if p == nil {
		return nil, nil, fmt.Errorf("fleet: nil policy")
	}
	if err := validateArrivals(reqs); err != nil {
		return nil, nil, err
	}
	ro := &router{
		policy: p,
		reqs:   reqs,
		books:  newBooks(replicas),
		led:    newLedger(reqs),
		loads:  make([]Load, replicas),
		cand:   make([]int, replicas),
	}
	if plan.Active() {
		ro.fault = &faultLayer{plan: plan}
		ro.fault.blockBytes, ro.fault.xferTime = kvLink(cfg)
	} else {
		plan = nil
	}
	if stack.Active() {
		var err error
		if ro.pol, err = newPolicyLayer(cfg, stack, replicas); err != nil {
			return nil, nil, err
		}
	}
	fab := newFabric(ResolveWorkers(workers, replicas))
	fab.addTier(0, replicas)
	engines, err := startEngines(fab, cfg, plan)
	if err != nil {
		return nil, nil, err
	}
	ro.ctl, ro.engines = fab.ctl, engines
	for i := range engines {
		i := i
		engines[i].SetOnFinish(func(local int) { ro.finished(i, local) })
	}
	// One control event per request at its arrival instant, scheduled
	// in (arrival, trace index) order so simultaneous arrivals route in
	// trace order. AtFunc carries the trace index, so arrivals cost no
	// closure.
	for _, idx := range workload.SortByArrival(reqs) {
		fab.ctl.AtFunc(sim.Time(reqs[idx].ArrivalTime), arriveEvent, ro, idx, 0)
	}
	if ro.fault != nil {
		ro.scheduleCrashes()
	}
	if ro.pol != nil && ro.pol.pool != nil {
		fab.ctl.AtFunc(ro.pol.pool.tickInterval(), tickEvent, ro, 0, 0)
	}
	return ro, fab, nil
}

// pendingRec is one dispatchable unit: a fresh arrival or a crash-lost
// request awaiting re-dispatch (its checkpoint, if any, rides along).
type pendingRec struct {
	origin int
	fresh  bool
	lost   core.Lost
}

// arriveEvent fires at a request's arrival instant, and again at each
// admission retry the policy layer schedules (AtFunc: ctx is the
// router, a the trace index).
func arriveEvent(ctx any, idx, _ int) {
	ro := ctx.(*router)
	switch {
	case ro.pol != nil:
		ro.admit(idx)
	case ro.err == nil:
		ro.dispatch(idx, pendingRec{origin: idx, fresh: true})
	}
}

// dispatch routes one request to a replica: a fresh arrival submits
// normally, a crash-lost one resumes by recompute (SubmitRecovered).
// Only a layer can leave no candidate: the policy layer then retries
// on its backoff schedule, the fault layer queues the request until a
// restart. A layered run drops a request too large for any replica; a
// plain run fails on it.
func (ro *router) dispatch(origin int, pr pendingRec) {
	r := ro.reqs[origin]
	now := float64(ro.ctl.Now())
	loads := ro.snapshot(r, nil, now)
	if len(loads) == 0 {
		if ro.pol != nil {
			ro.requeue(origin, "no routable replica")
		} else {
			ro.fault.queued = append(ro.fault.queued, pr)
		}
		return
	}
	k, ok := ro.pick(r, loads)
	if !ok {
		return
	}
	if ro.pol != nil && ro.pol.breakers != nil {
		// Consume the half-open probe slot if the pick is probing.
		ro.pol.breakers[k].Allow(now)
	}
	var local int
	var err error
	if pr.fresh {
		local, err = ro.engines[k].Submit(r)
	} else {
		local, err = ro.engines[k].SubmitRecovered(r, pr.lost.Generated, pr.lost.FirstTokenAt)
	}
	if err != nil {
		if errors.Is(err, core.ErrRequestTooLarge) && (ro.fault != nil || ro.pol != nil) {
			ro.led.drop(origin, err.Error())
			return
		}
		ro.err = fmt.Errorf("fleet: replica %d rejected request %d: %w", k, origin, err)
		return
	}
	if ro.pol != nil {
		ro.preempt(k, r)
	}
	ro.record(r, origin, k, local)
}

// snapshot fills the reusable load view for routing r right now, one
// row per candidate replica: the live replicas (under the fault layer)
// that the policy layer (if any) lets through. Each row is the
// incrementally maintained outstanding counters plus two live probes
// of the replica's KV pool — how much of r's shared prefix is resident
// (warm blocks included, so affinity survives request completion) and
// the free-KV headroom pool-aware policies rank on. With a checkpoint ck the candidates must also be
// able to import its KV over an unpartitioned link, and warmth is the
// checkpoint's resident share instead.
//
//det:hotpath
func (ro *router) snapshot(r workload.Request, ck *core.Checkpoint, now float64) []Load {
	n := 0
	for i, e := range ro.engines {
		// Only the fault layer kills replicas, so only it pays for the
		// liveness probe.
		if (ro.fault != nil && !e.Alive()) || (ro.pol != nil && !ro.routable(i, now)) {
			continue
		}
		l := ro.out[i]
		if ck == nil {
			l.WarmTokens = e.PrefixWarmTokens(r)
		} else if e.CanImportKV(ck.KV) && !ro.fault.plan.PartitionedAt(i, now) {
			l.WarmTokens = e.ResidentKVTokens(ck.KV)
		} else {
			continue
		}
		l.FreeKVTokens = e.FreeKVTokens()
		ro.cand[n], ro.loads[n] = i, l
		n++
	}
	return ro.loads[:n]
}

// pick asks the policy for a candidate and maps it back to a replica;
// an out-of-range pick fails the run.
func (ro *router) pick(r workload.Request, loads []Load) (int, bool) {
	j := ro.policy.Pick(r, loads)
	if j < 0 || j >= len(loads) {
		ro.err = fmt.Errorf("fleet: policy %q picked candidate %d of %d", ro.policy.Name(), j, len(loads))
		return 0, false
	}
	return ro.cand[j], true
}

// record books one landed submission: load counters, shard membership
// and the final-owner pointer. Submit only schedules simulation
// events, so the finish hook cannot fire before the entry lands.
func (ro *router) record(r workload.Request, origin, k, local int) {
	ro.add(k, local, origin, r, ro.policy.Cost(r))
	ro.led.final[origin] = recRef{replica: k, local: local}
}

// finished is the engines' completion hook: it retires the request's
// contribution from its replica's counters in O(1) and counts the
// terminal finish.
//
//det:hotpath
func (ro *router) finished(replica, local int) {
	ro.led.fin[ro.retire(replica, local)]++
	if ro.pol != nil {
		ro.policyFinished(replica, local)
	}
}

// loadEntry is one routed request's contribution to its replica's load
// counters, subtracted when the engine reports it finished.
type loadEntry struct {
	inputTokens int
	cost        float64
}

// books is one replica pool's routing bookkeeping: the live load
// counters, maintained incrementally (add on submission, retire on
// finish, hand-off or crash), each routed request's contribution to
// them, and the shard record of which replica got which request.
type books struct {
	out []Load
	// entries[k][local] is the load contribution of replica k's local
	// request local.
	entries [][]loadEntry
	shards  []Shard
}

func newBooks(n int) books {
	return books{out: make([]Load, n), entries: make([][]loadEntry, n), shards: make([]Shard, n)}
}

// add books request r (trace index origin) as replica k's local request
// local, at the given policy cost.
func (b *books) add(k, local, origin int, r workload.Request, cost float64) {
	b.entries[k] = append(b.entries[k], loadEntry{inputTokens: r.InputLen, cost: cost})
	b.out[k].Requests++
	b.out[k].InputTokens += r.InputLen
	b.out[k].CostTokens += cost
	r.ID = local
	b.shards[k].Reqs = append(b.shards[k].Reqs, r)
	b.shards[k].Origin = append(b.shards[k].Origin, origin)
}

// retire removes replica k's local request from the load counters and
// returns its trace index.
//
//det:hotpath
func (b *books) retire(k, local int) int {
	en := b.entries[k][local]
	b.out[k].Requests--
	b.out[k].InputTokens -= en.inputTokens
	b.out[k].CostTokens -= en.cost
	return b.shards[k].Origin[local]
}

// startEngines builds and starts one online engine per fabric replica,
// each on its replicaConfig, shutting down the ones already built if
// any fails.
func startEngines(fab *fabric, cfg core.Config, plan *faults.Plan) ([]*core.Engine, error) {
	engines := make([]*core.Engine, 0, len(fab.byRep))
	for i := range fab.byRep {
		e, err := core.NewEngine(fab.engineFor(i), replicaConfig(cfg, plan, i))
		if err == nil {
			engines = append(engines, e)
			err = e.StartOnline()
		}
		if err != nil {
			for _, prev := range engines {
				prev.Shutdown()
			}
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
	}
	return engines, nil
}

// finalize ends a run's engines. After a router error it shuts them
// all down and returns the error; otherwise it finalizes every engine —
// all of them even after a failure, since Finalize shuts the replica's
// worker cluster down and skipping the rest would leak their
// goroutines.
func finalize(engines []*core.Engine, err error) ([]*core.Result, error) {
	if err != nil {
		for _, e := range engines {
			e.Shutdown()
		}
		return nil, err
	}
	results := make([]*core.Result, len(engines))
	for i, e := range engines {
		res, ferr := e.Finalize()
		if ferr != nil && err == nil {
			err = fmt.Errorf("fleet: replica %d: %w", i, ferr)
		}
		results[i] = res
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// kvLink returns the KV footprint of one block across the model and the
// node's KV-link transfer-time model.
func kvLink(cfg core.Config) (blockBytes float64, xferTime func(bytes float64) float64) {
	blockSize := cfg.BlockSize
	if blockSize <= 0 {
		blockSize = kvcache.DefaultBlockSize
	}
	return float64(blockSize) * cfg.Spec.KVBytesPerToken(), costmodel.KVTransfer(cfg.Node)
}
