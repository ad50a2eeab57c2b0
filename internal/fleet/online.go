package fleet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/kvcache"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrInvalidArrival reports a trace whose arrival stamps cannot be
// scheduled: negative (before simulation start) or NaN. Serve and
// RunDisagg validate the trace up front and return this error (wrapped
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

// runOnline serves a validated run on the online router (see Serve).
func runOnline(cfg core.Config, reqs []workload.Request, sc ServeConfig) (*Result, error) {
	ro, fab, err := newRouter(cfg, reqs, sc)
	if err != nil {
		return nil, err
	}
	fab.drive()
	if ro.err == nil && ro.fault != nil {
		for _, q := range ro.fault.queued {
			ro.led.drop(q.origin, "no live replica")
		}
	}
	results, err := finalize(fab, ro.engines, ro.err)
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
	rep, records, err := ro.led.assemble(cfg, fmt.Sprintf("%s(TD-Pipe/%s)x%d", mode, sc.Policy.Name(), sc.Replicas),
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
	return &Result{Report: rep, Replicas: results, Shards: ro.shards, Records: records, Policy: sc.Policy.Name(), Steps: fab.Steps(), Workers: fab.workers}, nil
}

// newRouter attaches the layers an active plan or stack asks for,
// starts the engines on a fresh fabric and schedules every arrival,
// crash and autoscale tick on its control timeline.
func newRouter(cfg core.Config, reqs []workload.Request, sc ServeConfig) (*router, *fabric, error) {
	replicas := sc.Replicas
	ro := &router{
		policy: sc.Policy,
		reqs:   reqs,
		books:  newBooks(replicas),
		led:    newLedger(reqs),
		loads:  make([]Load, replicas),
		cand:   make([]int, replicas),
	}
	if sc.Faults.Active() {
		ro.fault = &faultLayer{plan: sc.Faults}
		ro.fault.blockBytes, ro.fault.xferTime = kvLink(cfg)
	}
	if sc.Stack.Active() {
		var err error
		if ro.pol, err = newPolicyLayer(cfg, sc.Stack, replicas); err != nil {
			return nil, nil, err
		}
	}
	fab := newFabric(ResolveWorkers(sc.Workers, replicas))
	fab.addTier(0, replicas)
	engines, err := startEngines(fab, cfg, sc.Faults, nil)
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

// startEngines builds and starts one engine per fabric replica through
// forEach, each on its replicaConfig: seeded with its shard when shards
// is non-nil (the pre-shard), empty and waiting for submissions
// otherwise.
func startEngines(fab *fabric, cfg core.Config, plan *faults.Plan, shards []Shard) ([]*core.Engine, error) {
	engines := make([]*core.Engine, len(fab.byRep))
	errs := make([]error, len(engines))
	fab.forEach(func(i int) {
		e, err := core.NewEngine(fab.engineFor(i), replicaConfig(cfg, plan, i))
		switch {
		case err != nil:
		case shards != nil:
			err = e.Start(shards[i].Reqs)
		default:
			err = e.StartOnline()
		}
		engines[i], errs[i] = e, err
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return engines, nil
}

// finalize ends a run's engines through forEach: it returns the
// router's error if there was one, otherwise every engine's result or
// the first replica's Finalize error.
func finalize(fab *fabric, engines []*core.Engine, err error) ([]*core.Result, error) {
	if err != nil {
		return nil, err
	}
	results := make([]*core.Result, len(engines))
	errs := make([]error, len(engines))
	fab.forEach(func(i int) { results[i], errs[i] = engines[i].Finalize() })
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// firstErr wraps the lowest replica's error, the one a replica-order
// loop stops at.
func firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: replica %d: %w", i, err)
		}
	}
	return nil
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
