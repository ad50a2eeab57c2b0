package fleet

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Disaggregated prefill/decode serving: the fleet is split into a
// prefill pool and a decode pool sharing one virtual clock. Every
// arrival is routed to a prefill replica (least-work); when its prefill
// completes, the engine exports the finished prefix KV (core.Handoff)
// and the router migrates it to a decode replica over the node's KV
// link — transfer time = blocks x block bytes / bandwidth + latency —
// where generation resumes via SubmitDecoded. The transfer overlaps
// decode-side queueing: a hand-off becomes placeable once its transfer
// completes, and waits in a FIFO only while no decode replica has KV
// headroom for the import (retried as decode requests finish).
//
// The split isolates the two phases' interference: prefill replicas
// never stall arrivals behind long decode phases, so TTFT stays flat
// under bursts, at the price of the modeled transfer and fewer
// decode-side token slots. Like the online router, results are
// deterministic for a fixed trace, config and split, at every worker
// count.

// DisaggConfig sizes the two pools of a disaggregated deployment. Both
// pools run the same engine configuration (core.Config); only the role
// differs.
type DisaggConfig struct {
	// PrefillReplicas is the number of engines dedicated to prefill.
	PrefillReplicas int
	// DecodeReplicas is the number of engines dedicated to decode.
	DecodeReplicas int
	// Workers budgets the conservative parallel fabric: 0 or 1 runs
	// sequentially, WorkersAuto picks GOMAXPROCS for fleets of at
	// least AutoWorkerThreshold replicas. Reports are byte-identical
	// across worker counts.
	Workers int
	// Stack attaches a policy stack to the deployment. Disaggregated
	// serving honors two components. Autoscaler is scoped to the
	// decode pool: DecodeReplicas is the provisioned pool the
	// autoscaler breathes inside (its Max must fit), and hand-off
	// placement skips inactive decode replicas. Breaker gives every
	// replica in both pools a circuit breaker: crashes open a
	// replica's breaker (one failure per aborted request), finishes
	// close it, and routing skips breaker-open replicas — falling back
	// to liveness alone when every live candidate is open, so a
	// fully-tripped pool degrades instead of stalling. A nil stack —
	// or one without these components — keeps the fleet static and
	// takes the exact pre-policy code path, byte for byte.
	Stack *policy.Stack
	// Faults is the fault plan, indexed over the prefill pool first,
	// then decode: crashes hit both pools and hand-offs cross its
	// impaired-link windows. Crash-lost requests resume from a KV
	// checkpoint on the decode pool or re-prefill; those out of retries
	// are dropped with a reason. Nil or inactive runs fault-free.
	Faults *faults.Plan
}

// Validate reports a configuration error, if any.
func (dc DisaggConfig) Validate() error {
	if dc.PrefillReplicas <= 0 || dc.DecodeReplicas <= 0 {
		return fmt.Errorf("fleet: disagg pools %dP+%dD (both must be positive)",
			dc.PrefillReplicas, dc.DecodeReplicas)
	}
	if dc.Stack != nil && dc.Stack.Autoscaler != nil {
		if m := dc.Stack.Autoscaler.Config().Max; m > dc.DecodeReplicas {
			return fmt.Errorf("fleet: decode autoscaler Max %d exceeds provisioned decode replicas %d",
				m, dc.DecodeReplicas)
		}
	}
	return nil
}

// DisaggResult is the outcome of a disaggregated run.
type DisaggResult struct {
	// Report is the fleet-level aggregate over both pools; Latency
	// digests the per-request records spanning the whole hand-off
	// lifecycle (arrival at the prefill pool to completion in the
	// decode pool).
	Report metrics.Report
	// Prefill and Decode hold the per-replica engine results.
	Prefill, Decode []*core.Result
	// PrefillShards records the arrival routing: every trace request
	// appears in exactly one prefill shard. DecodeShards records the
	// hand-off placement: requests that finished at prefill
	// (single-token outputs) appear in no decode shard.
	PrefillShards, DecodeShards []Shard
	// Records holds the merged per-request records indexed by trace
	// position: the decode replica's record for handed-off requests
	// (it carries the original arrival and first-token instants), the
	// prefill replica's for requests that completed there.
	Records []metrics.RequestRecord
	// Handoffs counts requests migrated to the decode pool.
	Handoffs int
	// TransferredBytes is the total KV moved over the hand-off link.
	TransferredBytes float64
	// QueuedHandoffs counts hand-offs that had to wait for decode-pool
	// KV headroom after their transfer completed.
	QueuedHandoffs int
	// Steps counts the simulation events processed across the run's
	// engines and the router timeline.
	Steps uint64
}

// handoffItem is one in-flight migration. recovery marks checkpoint
// restores re-entering the decode pool after a crash (counted as
// recoveries, not hand-offs).
type handoffItem struct {
	origin   int
	h        core.Handoff
	recovery bool
}

// disaggRouter coordinates the two pools across the fabric: prefill
// replicas form tier 0, decode replicas tier 1, and every router
// intervention (arrival dispatch, transfer completion, crash, restore,
// pending drain) executes on the control timeline. Replica indices in
// the ledger, the fault plan and the engine results are fleet-global:
// the prefill pool first, then decode.
type disaggRouter struct {
	ctl     *sim.Engine
	fab     *fabric
	prefill []*core.Engine
	decode  []*core.Engine
	ppolicy Policy
	dpolicy Policy
	reqs    []workload.Request
	led     *ledger
	// blockBytes is the KV footprint of one block across the model.
	blockBytes float64
	xferTime   func(bytes float64) float64

	pre, dec books

	// loads and cand are the per-pick snapshot: loads[j] is the view of
	// pool replica cand[j].
	loads []Load
	cand  []int

	items []handoffItem
	// pending holds item indices whose transfer completed but which no
	// decode replica can import yet, in completion order.
	pending []int

	handoffs int
	moved    float64
	queued   int
	err      error

	// plan is nil on a fault-free run, which then takes no fault path.
	plan *faults.Plan
	// queuedPrefill holds origins waiting for a live prefill replica.
	queuedPrefill []int
	fstats        metrics.FaultStats

	// pBreakers/dBreakers hold per-replica circuit breakers for the
	// two pools when DisaggConfig.Stack carries a BreakerConfig; nil
	// keeps routing on the exact pre-breaker code paths. Crashes feed
	// OnFailure (one per aborted request, at least one per crash),
	// finishes feed OnSuccess.
	pBreakers []*policy.Breaker
	dBreakers []*policy.Breaker
	astats    metrics.AdmissionStats

	// dpool owns the decode pool's elastic lifecycle when
	// DisaggConfig.Stack carries an autoscaler; nil keeps the pool
	// static on the exact pre-policy code paths.
	dpool *elasticPool
}

// RunDisagg serves an arrival-stamped trace on a disaggregated fleet:
// dc.PrefillReplicas prefill engines and dc.DecodeReplicas decode
// engines, all instances of cfg on one shared virtual clock. Arrivals
// are dispatched least-work across the prefill pool; hand-offs are
// placed by the decode-affinity pick (warmest resident KV, then free-KV
// headroom, then least predicted decode work). Closed-loop traces
// (all arrivals at t=0) are served the same way — every request routes
// at t=0. dc.Faults, when active, attaches the fault layer.
func RunDisagg(cfg core.Config, dc DisaggConfig, reqs []workload.Request) (*DisaggResult, error) {
	plan := dc.Faults
	if !plan.Active() {
		plan = nil
	}
	if err := dc.Validate(); err != nil {
		return nil, err
	}
	ppolicy, err := New(LeastWork, Options{Predictor: cfg.Predictor})
	if err != nil {
		return nil, err
	}
	dpolicy, err := New(DecodeAffinity, Options{Predictor: cfg.Predictor})
	if err != nil {
		return nil, err
	}
	if err := validateArrivals(reqs); err != nil {
		return nil, err
	}
	P, D := dc.PrefillReplicas, dc.DecodeReplicas
	// Prefill and decode replicas never share a shard engine: the
	// prefill tier advances to each control horizon first (discovering
	// hand-offs), and the decode tier follows only after their
	// transfer completions are on the control timeline.
	fab := newFabric(ResolveWorkers(dc.Workers, P+D))
	fab.addTier(0, P)
	fab.addTier(1, D)
	engines, err := startEngines(fab, cfg, plan, nil)
	if err != nil {
		return nil, err
	}
	ro := &disaggRouter{
		ctl:       fab.ctl,
		fab:       fab,
		prefill:   engines[:P],
		decode:    engines[P:],
		ppolicy:   ppolicy,
		dpolicy:   dpolicy,
		reqs:      reqs,
		led:       newLedger(reqs),
		pre:       newBooks(P),
		dec:       newBooks(D),
		loads:     make([]Load, 0, max(P, D)),
		cand:      make([]int, 0, max(P, D)),
		plan:      plan,
		pBreakers: newBreakers(dc.Stack, P),
		dBreakers: newBreakers(dc.Stack, D),
	}
	ro.blockBytes, ro.xferTime = kvLink(cfg)
	if dc.Stack != nil && dc.Stack.Autoscaler != nil {
		ro.dpool = newElasticPool(dc.Stack.Autoscaler, D, cfg)
	}
	for i := range ro.prefill {
		i := i
		ro.prefill[i].SetOnFinish(func(local int) { ro.prefillFinished(i, local) })
		// Hand-offs are discovered while a shard worker advances its
		// epoch window: buffer them on the shard; the coordinator
		// drains the buffers in canonical order at the barrier and
		// feeds them to ro.handoff.
		ro.prefill[i].SetHandoff(func(h core.Handoff) { fab.note(i, h) })
	}
	for i := range ro.decode {
		i := i
		ro.decode[i].SetOnFinish(func(local int) { ro.decodeFinished(i, local) })
	}
	fab.onNote = ro.handoff
	fab.pendingWork = func() bool { return len(ro.pending) > 0 }
	fab.drainAt = ro.drainPending

	// One control event per request at its arrival instant, in
	// (arrival, trace index) order so simultaneous arrivals route in
	// trace order.
	for _, idx := range workload.SortByArrival(reqs) {
		fab.ctl.AtFunc(sim.Time(reqs[idx].ArrivalTime), disaggArrivalEvent, ro, idx, 0)
	}
	if plan != nil {
		for ci, c := range plan.Crashes {
			fab.ctl.AtFunc(sim.Time(c.At), disaggCrashEvent, ro, ci, 0)
			fab.ctl.AtFunc(sim.Time(c.RestartAt), disaggRestoreEvent, ro, ci, 0)
		}
	}
	if ro.dpool != nil {
		fab.ctl.AtFunc(ro.dpool.tickInterval(), dtickEvent, ro, 0, 0)
	}
	fab.drive()
	switch {
	case ro.err != nil:
	case plan != nil:
		// The run drained with work still unplaceable: account it as
		// dropped-with-reason instead of failing the run (a fault run is
		// allowed to lose requests, never to lose them silently).
		for _, item := range ro.pending {
			ro.led.drop(ro.items[item].origin, "stranded hand-off: fits no decode replica")
		}
		for _, origin := range ro.queuedPrefill {
			ro.led.drop(origin, "no live prefill replica")
		}
	case len(ro.pending) > 0:
		it := ro.items[ro.pending[0]]
		ro.err = fmt.Errorf("fleet: %d hand-offs stranded: request %d (%d KV blocks) fits no decode replica",
			len(ro.pending), it.origin, it.h.KV.Blocks())
	}
	results, err := finalize(fab, engines, ro.err)
	if err != nil {
		return nil, err
	}
	mode := "Disagg"
	if plan != nil {
		mode = "DisaggFaults"
	}
	rep, records, err := ro.led.assemble(cfg, fmt.Sprintf("%s(TD-Pipe %dP+%dD)", mode, P, D), results, plan != nil)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		ro.fstats.DomainOutages = len(plan.Domains)
		ro.fstats.Dropped = ro.led.dropped
		rep.Faults.Add(ro.fstats)
	}
	if ro.pBreakers != nil {
		ro.astats.BreakerTrips = breakerTrips(ro.pBreakers, ro.dBreakers)
	}
	rep.Admission = ro.astats
	if ro.dpool != nil {
		rep.Autoscale = ro.dpool.finish(rep.Elapsed, cfg.World)
	}
	return &DisaggResult{
		Report:           rep,
		Prefill:          results[:P],
		Decode:           results[P:],
		PrefillShards:    ro.pre.shards,
		DecodeShards:     ro.dec.shards,
		Records:          records,
		Handoffs:         ro.handoffs,
		TransferredBytes: ro.moved,
		QueuedHandoffs:   ro.queued,
		Steps:            fab.Steps(),
	}, nil
}

// RunDisaggFaults is RunDisagg with dc.Faults set to plan, kept for its
// only caller, the end-to-end benchmark harness (cmd/tdpipe-bench).
func RunDisaggFaults(cfg core.Config, dc DisaggConfig, reqs []workload.Request, plan *faults.Plan) (*DisaggResult, error) {
	dc.Faults = plan
	return RunDisagg(cfg, dc, reqs)
}

// dtickEvent is one decode-pool autoscaler evaluation on the control
// timeline. The decode queue signal counts resident decode requests
// plus hand-offs still waiting for headroom; TTFT/goodput carry no
// decode-side meaning, so they stay at their neutral values.
func dtickEvent(ctx any, _, _ int) {
	ro := ctx.(*disaggRouter)
	if ro.err != nil {
		return
	}
	now := float64(ro.ctl.Now())
	ro.dpool.reapDrains()
	ro.dpool.stats.Ticks++
	var s policy.Signals
	s.Active, s.Warming = ro.dpool.counts()
	queued := len(ro.pending)
	for i := range ro.decode {
		queued += ro.dec.out[i].Requests
	}
	if s.Active > 0 {
		s.QueuePerReplica = float64(queued) / float64(s.Active)
	} else {
		s.QueuePerReplica = float64(queued)
	}
	s.Goodput = 1
	outstanding := func(i int) int { return ro.dec.out[i].Requests }
	warm := func(k int) {
		ro.ctl.AtFunc(sim.Time(now+ro.dpool.coldStart), dactivateEvent, ro, k, 0)
	}
	ro.dpool.scale(ro.dpool.as.Decide(now, s), now, outstanding, warm)
	// Keep ticking while any request is unresolved. A handed-off
	// request is counted once by its prefill engine and once at its
	// real decode finish, so subtract the hand-off count.
	finished := -ro.handoffs
	for _, e := range ro.prefill {
		finished += e.NumFinished()
	}
	for _, e := range ro.decode {
		finished += e.NumFinished()
	}
	if finished+ro.led.dropped < len(ro.reqs) {
		ro.ctl.AtFunc(ro.ctl.Now()+ro.dpool.tickInterval(), dtickEvent, ro, 0, 0)
	}
}

// dactivateEvent completes one decode-pool scale-up and immediately
// retries queued hand-offs against the new headroom.
func dactivateEvent(ctx any, k, _ int) {
	ro := ctx.(*disaggRouter)
	if ro.err != nil {
		return
	}
	ro.dpool.activate(k)
	ro.drainPending()
}

// disaggArrivalEvent fires at a request's arrival instant (AtFunc: ctx
// is the router, a the trace index).
func disaggArrivalEvent(ctx any, idx, _ int) {
	ro := ctx.(*disaggRouter)
	if ro.err == nil {
		ro.dispatchPrefill(idx)
	}
}

// candidates fills the per-pick snapshot with the pool replicas ok
// admits, row building each one's load view. Breaker-open replicas are
// skipped (and counted), except that when every admitted replica's
// breaker is open the filter falls back to ok alone — a fully-tripped
// pool keeps serving (degraded) instead of stalling forever.
func (ro *disaggRouter) candidates(n int, bs []*policy.Breaker, now float64, ok func(i int) bool, row func(i int) Load) []Load {
	ro.cand, ro.loads = ro.cand[:0], ro.loads[:0]
	skips := 0
	for i := 0; i < n; i++ {
		if !ok(i) {
			continue
		}
		if bs != nil && !bs[i].Routable(now) {
			skips++
			continue
		}
		ro.cand, ro.loads = append(ro.cand, i), append(ro.loads, row(i))
	}
	if len(ro.cand) > 0 || skips == 0 {
		ro.astats.BreakerSkips += skips
		return ro.loads
	}
	for i := 0; i < n; i++ {
		if ok(i) {
			ro.cand, ro.loads = append(ro.cand, i), append(ro.loads, row(i))
		}
	}
	return ro.loads
}

// dispatchPrefill routes origin's request to a live, breaker-routable
// prefill replica (arrivals and crash recompute re-dispatches alike),
// queueing it when the whole pool is down.
func (ro *disaggRouter) dispatchPrefill(origin int) {
	r := ro.reqs[origin]
	now := float64(ro.ctl.Now())
	loads := ro.candidates(len(ro.prefill), ro.pBreakers, now,
		func(i int) bool { return ro.prefill[i].Alive() },
		func(i int) Load {
			l := ro.pre.out[i]
			l.WarmTokens = ro.prefill[i].PrefixWarmTokens(r)
			l.FreeKVTokens = ro.prefill[i].FreeKVTokens()
			return l
		})
	if len(loads) == 0 {
		ro.queuedPrefill = append(ro.queuedPrefill, origin)
		return
	}
	j := ro.ppolicy.Pick(r, loads)
	if j < 0 || j >= len(loads) {
		ro.err = fmt.Errorf("fleet: policy %q picked prefill candidate %d of %d", ro.ppolicy.Name(), j, len(loads))
		return
	}
	k := ro.cand[j]
	if ro.pBreakers != nil {
		// Consume the half-open probe slot if the pick is probing.
		ro.pBreakers[k].Allow(now)
	}
	local, err := ro.prefill[k].Submit(r)
	if err != nil {
		if ro.plan != nil && errors.Is(err, core.ErrRequestTooLarge) {
			// A fault run is allowed to lose requests, never to lose
			// them silently: an unservable request drops with a reason
			// instead of failing the whole run.
			ro.led.drop(origin, err.Error())
			return
		}
		ro.err = fmt.Errorf("fleet: prefill replica %d rejected request %d: %w", k, origin, err)
		return
	}
	ro.pre.add(k, local, origin, r, ro.ppolicy.Cost(r))
	ro.led.final[origin] = recRef{replica: k, local: local}
}

// prefillFinished is the prefill engines' completion hook; it fires
// both for local completions and for hand-offs (the prefill engine
// retires the request before the hand-off hook runs, which immediately
// takes the tentative finish back).
func (ro *disaggRouter) prefillFinished(replica, local int) {
	ro.led.fin[ro.pre.retire(replica, local)]++
	if ro.pBreakers != nil {
		// Trip accounting is summed from Trips() at assemble; the
		// hook must not touch the shared stats struct.
		ro.pBreakers[replica].OnSuccess(float64(ro.prefill[replica].Now()))
	}
}

// handoff receives a prefill-completed request (drained canonically at
// an epoch barrier) and schedules its KV transfer on the control
// timeline: the whole exported block window crosses the link, so the
// request becomes placeable on the decode pool only once the transfer
// completes. The link's minimum transfer time is the lookahead that
// keeps the decode tier's conservative advance safe.
func (ro *disaggRouter) handoff(replica int, h core.Handoff) {
	if ro.err != nil {
		return
	}
	origin := ro.pre.shards[replica].Origin[h.Local]
	// The engine-local "finish" was a hand-off, not a completion.
	ro.led.fin[origin]--
	ro.items = append(ro.items, handoffItem{origin: origin, h: h})
	ro.handoffs++
	bytes := float64(h.KV.Blocks()) * ro.blockBytes
	ro.moved += bytes
	// The export crosses the source replica's link timeline: a prefill
	// replica inside a network domain outage stalls its hand-offs until
	// the partition lifts (a fault-free run's nil plan adds nothing).
	done := ro.plan.TransferDoneFrom(replica, float64(h.At), ro.xferTime(bytes))
	ro.ctl.AtFunc(sim.Time(done), transferDoneEvent, ro, len(ro.items)-1, 0)
}

// transferDoneEvent fires when a hand-off's KV transfer completes
// (AtFunc: ctx is the router, a the item index).
func transferDoneEvent(ctx any, item, _ int) {
	ro := ctx.(*disaggRouter)
	if ro.err != nil {
		return
	}
	if !ro.place(item) {
		ro.queued++
		ro.pending = append(ro.pending, item)
	}
}

// place admits a transferred hand-off on a decode replica, if any has
// headroom for the import. Replicas that cannot import — dead,
// drained, out of KV headroom, or inside a network domain outage —
// are filtered out before the decode-affinity pick ranks the rest;
// breaker-open replicas are skipped too, falling back to the
// importable set when every importable breaker is open.
func (ro *disaggRouter) place(item int) bool {
	it := &ro.items[item]
	r := ro.reqs[it.origin]
	now := float64(ro.ctl.Now())
	P := len(ro.prefill)
	// lift is the earliest instant a partition excluding a replica
	// here will end; a placement retry is scheduled there so work is
	// never stranded behind an outage that outlives the decode pool's
	// finish stream.
	lift := -1.0
	loads := ro.candidates(len(ro.decode), ro.dBreakers, now,
		func(i int) bool {
			if !ro.dpool.routable(i) || !ro.decode[i].Alive() || !ro.decode[i].CanImportKV(it.h.KV) {
				return false
			}
			if ro.plan.PartitionedAt(P+i, now) {
				if end := ro.plan.PartitionLiftsAt(P+i, now); lift < 0 || end < lift {
					lift = end
				}
				return false
			}
			return true
		},
		func(i int) Load {
			l := ro.dec.out[i]
			l.WarmTokens = ro.decode[i].ResidentKVTokens(it.h.KV)
			l.FreeKVTokens = ro.decode[i].FreeKVTokens()
			return l
		})
	if len(loads) == 0 {
		if lift > now {
			ro.ctl.AtFunc(sim.Time(lift), drainPendingEvent, ro, 0, 0)
		}
		return false
	}
	j := ro.dpolicy.Pick(r, loads)
	if j < 0 || j >= len(loads) {
		ro.err = fmt.Errorf("fleet: policy %q picked decode candidate %d of %d", ro.dpolicy.Name(), j, len(loads))
		return true
	}
	k := ro.cand[j]
	if ro.dBreakers != nil {
		// Consume the half-open probe slot if the pick is probing.
		ro.dBreakers[k].Allow(now)
	}
	local, err := ro.decode[k].SubmitDecoded(r, it.h)
	if err != nil {
		if ro.plan != nil {
			// The import failed at arrival — the target died or lost
			// its headroom in this very instant. Re-enter the
			// lifecycle through the prefill pool with recompute on the
			// same attempt instead of stranding the request (an
			// oversized request drops inside dispatchPrefill).
			ro.fstats.RecoveredRecompute++
			ro.dispatchPrefill(it.origin)
			return true
		}
		ro.err = fmt.Errorf("fleet: import on decode replica %d: %w", k, err)
		return true
	}
	ro.dec.add(k, local, it.origin, r, ro.dpolicy.Cost(r))
	ro.led.final[it.origin] = recRef{replica: P + k, local: local}
	if it.recovery {
		ro.fstats.RecoveredCheckpoint++
	}
	return true
}

// decodeFinished retires a request from its decode replica's counters
// and flags the finish on the replica's shard: when hand-offs are
// queued for headroom, the fabric lockstep sees the flag and retries
// placement at this instant (after every decode event at it has run).
func (ro *disaggRouter) decodeFinished(replica, local int) {
	ro.led.fin[ro.dec.retire(replica, local)]++
	t := float64(ro.decode[replica].Now())
	if ro.dBreakers != nil {
		ro.dBreakers[replica].OnSuccess(t)
	}
	if ro.dpool != nil && ro.dec.out[replica].Requests == 0 {
		ro.dpool.noteDrained(replica, t)
	}
	ro.fab.markFinish(len(ro.prefill) + replica)
}

// drainPendingEvent retries queued hand-offs in completion order
// (AtFunc: ctx is the router). Scheduled by restores; the fabric
// lockstep calls drainPending directly at decode-finish instants.
func drainPendingEvent(ctx any, _, _ int) {
	ctx.(*disaggRouter).drainPending()
}

// drainPending retries queued hand-offs in completion order. Callers
// guarantee every decode replica's clock is parked at the drain
// instant.
func (ro *disaggRouter) drainPending() {
	if ro.err != nil {
		return
	}
	kept := ro.pending[:0]
	for _, item := range ro.pending {
		if ro.err != nil || !ro.place(item) {
			kept = append(kept, item)
		}
	}
	ro.pending = kept
}

// disaggCrashEvent executes one planned replica failure (AtFunc: ctx
// is the router, a the crash index in the plan). The replica's
// in-flight requests are aborted and re-dispatched: resumed from their
// KV checkpoint on the decode pool when one exists, re-prefilled
// through the prefill pool otherwise.
func disaggCrashEvent(ctx any, ci, _ int) {
	ro := ctx.(*disaggRouter)
	if ro.err != nil {
		return
	}
	c := ro.plan.Crashes[ci]
	e, b, k, bs := ro.pool(c.Replica)
	lost, err := e.Crash(sim.Time(c.RestartAt))
	if err != nil {
		ro.err = fmt.Errorf("fleet: crash of replica %d: %w", c.Replica, err)
		return
	}
	origins := make([]int, len(lost))
	for i, l := range lost {
		origins[i] = b.retire(k, l.Local)
	}
	if bs != nil {
		// A crash is a failure signal per aborted request — at least
		// one even when the replica was idle — so repeated outages
		// open the breaker and routing stops probing the replica.
		now := float64(ro.ctl.Now())
		for i := 0; i < max(len(lost), 1); i++ {
			bs[k].OnFailure(now)
		}
	}
	for i, l := range lost {
		ro.recover(origins[i], l)
	}
}

// pool maps a fleet-global replica index to its engine, its pool's
// books, its index inside the pool and the pool's breakers (nil when
// breakers are off).
func (ro *disaggRouter) pool(replica int) (*core.Engine, *books, int, []*policy.Breaker) {
	if P := len(ro.prefill); replica >= P {
		return ro.decode[replica-P], &ro.dec, replica - P, ro.dBreakers
	}
	return ro.prefill[replica], &ro.pre, replica, ro.pBreakers
}

// recover re-dispatches one crash-lost request, spending one retry.
func (ro *disaggRouter) recover(origin int, l core.Lost) {
	if ro.err != nil {
		return
	}
	ro.led.attempts[origin]++
	if ro.led.attempts[origin] > ro.plan.MaxRetries() {
		ro.led.drop(origin, "retry budget exhausted")
		return
	}
	if l.Ckpt != nil {
		// Checkpoint resume: ship the snapshot back over the KV link
		// and re-enter the decode pool through the hand-off machinery
		// (placement, headroom queueing and the pending drain all
		// behave exactly as for a fresh hand-off).
		now := ro.ctl.Now()
		h := core.Handoff{
			Local:        -1,
			Req:          ro.reqs[origin],
			KV:           l.Ckpt.KV,
			Generated:    l.Ckpt.Generated,
			FirstTokenAt: l.Ckpt.FirstTokenAt,
			At:           now,
		}
		ro.items = append(ro.items, handoffItem{origin: origin, h: h, recovery: true})
		bytes := float64(l.Ckpt.KV.Blocks()) * ro.blockBytes
		ro.moved += bytes
		done := ro.plan.TransferDone(float64(now), ro.xferTime(bytes))
		ro.ctl.AtFunc(sim.Time(done), transferDoneEvent, ro, len(ro.items)-1, 0)
		return
	}
	// Recompute resume: the whole lifecycle restarts through the
	// prefill pool (the generation already delivered is redone there —
	// Faults.LostOutputTokens accounts it).
	ro.fstats.RecoveredRecompute++
	ro.dispatchPrefill(origin)
}

// disaggRestoreEvent brings a crashed replica back at its restart
// instant and drains work that queued while it was (or everything was)
// down.
func disaggRestoreEvent(ctx any, ci, _ int) {
	ro := ctx.(*disaggRouter)
	if ro.err != nil {
		return
	}
	c := ro.plan.Crashes[ci]
	e, _, _, _ := ro.pool(c.Replica)
	if err := e.Restore(); err != nil {
		ro.err = fmt.Errorf("fleet: restore of replica %d: %w", c.Replica, err)
		return
	}
	if c.Replica < len(ro.prefill) {
		q := ro.queuedPrefill
		ro.queuedPrefill = nil
		for _, origin := range q {
			ro.dispatchPrefill(origin)
		}
	} else if len(ro.pending) > 0 {
		// Retry after the control events at this instant settle: the
		// restored replica may now import what others could not.
		ro.ctl.AtFunc(ro.ctl.Now(), drainPendingEvent, ro, 0, 0)
	}
}
