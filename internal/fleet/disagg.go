package fleet

import (
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
// decode-side token slots. The split runs on the same router as a
// colocated fleet (online.go), with two pools instead of one; this file
// holds its configuration and the KV transfer path. Results are
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
	// Workers is accepted and ignored: the coordinator advances both
	// tiers through the last hand-off, which leaves a worker pool
	// nothing to run, so a split fleet always runs on one worker
	// (DisaggResult.Workers reports it).
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
	// Workers is the number of fabric workers the run used: always 1
	// (see DisaggConfig.Workers).
	Workers int
}

// handoffItem is one KV move on the transfer path: a prefill hand-off,
// or a crash-lost request's checkpoint reload (recovery, counted as a
// recovery rather than a hand-off). pr is the recompute a failed
// import falls back to.
type handoffItem struct {
	pr       pendingRec
	h        core.Handoff
	recovery bool
}

// RunDisagg serves an arrival-stamped trace on a disaggregated fleet:
// dc.PrefillReplicas prefill engines and dc.DecodeReplicas decode
// engines, all instances of cfg on one shared virtual clock. Arrivals
// are dispatched least-work across the prefill pool; hand-offs are
// placed by the decode-affinity pick (warmest resident KV, then free-KV
// headroom, then least predicted decode work). Closed-loop traces
// (all arrivals at t=0) are served the same way — every request routes
// at t=0. dc.Faults, when active, attaches the fault layer, and a stack
// with breakers or an autoscaler the policy layer. A run with either
// layer drops a request too large for any replica with a reason; a
// layer-free run fails on it.
func RunDisagg(cfg core.Config, dc DisaggConfig, reqs []workload.Request) (*DisaggResult, error) {
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
	// A split fleet honors only the stack's breakers and its decode
	// autoscaler.
	stack := dc.Stack
	if stack != nil {
		stack = &policy.Stack{Breaker: stack.Breaker, Autoscaler: stack.Autoscaler}
	}
	P, D := dc.PrefillReplicas, dc.DecodeReplicas
	pre, dec := newPool("prefill ", P, ppolicy), newPool("decode ", D, dpolicy)
	// The coordinator advances both tiers through the last hand-off,
	// which leaves a worker pool nothing to run: one worker, whatever
	// dc.Workers asks for.
	ro, err := newRouter(cfg, reqs, 1, dc.Faults, stack, pre, dec)
	if err != nil {
		return nil, err
	}
	mode := "Disagg"
	if ro.plan != nil {
		mode = "DisaggFaults"
	}
	rep, results, records, err := ro.serve(cfg, fmt.Sprintf("%s(TD-Pipe %dP+%dD)", mode, P, D))
	if err != nil {
		return nil, err
	}
	return &DisaggResult{
		Report:           rep,
		Prefill:          results[:P],
		Decode:           results[P:],
		PrefillShards:    pre.shards,
		DecodeShards:     dec.shards,
		Records:          records,
		Handoffs:         ro.handoffs,
		TransferredBytes: ro.moved,
		QueuedHandoffs:   ro.queuedHandoffs,
		Steps:            ro.fab.Steps(),
		Workers:          ro.fab.workers,
	}, nil
}

// RunDisaggFaults is RunDisagg with dc.Faults set to plan, kept for its
// only caller, the end-to-end benchmark harness (cmd/tdpipe-bench).
func RunDisaggFaults(cfg core.Config, dc DisaggConfig, reqs []workload.Request, plan *faults.Plan) (*DisaggResult, error) {
	dc.Faults = plan
	return RunDisagg(cfg, dc, reqs)
}

// handoff receives a prefill-completed request (drained canonically
// after the prefill tier's advance) and starts its KV transfer: the
// whole exported block window crosses the link, so the request becomes
// placeable on the decode pool only once the transfer completes. The link's minimum
// transfer time is the lookahead that keeps the decode tier's
// conservative advance safe.
func (ro *router) handoff(replica int, h core.Handoff) {
	if ro.err != nil {
		return
	}
	origin := ro.pools[0].shards[replica].Origin[h.Local]
	// The engine-local "finish" was a hand-off, not a completion.
	ro.led.fin[origin]--
	ro.handoffs++
	// The export crosses the source replica's link timeline: a prefill
	// replica inside a network domain outage stalls its hand-offs until
	// the partition lifts.
	ro.transfer(handoffItem{pr: pendingRec{origin: origin, fresh: true}, h: h}, replica)
}

// transfer moves an item's KV over the link from replica src (-1: from
// stable storage, on the shared link timeline), starting at h.At, and
// schedules its placement at the transfer's completion (a fault-free
// run's nil plan adds no impairment). The item takes a settled item's
// slot when one is free.
func (ro *router) transfer(it handoffItem, src int) {
	item := len(ro.items)
	if n := len(ro.freeItems); n > 0 {
		item = ro.freeItems[n-1]
		ro.freeItems = ro.freeItems[:n-1]
		ro.items[item] = it
	} else {
		ro.items = append(ro.items, it)
	}
	bytes := float64(it.h.KV.Blocks()) * ro.blockBytes
	ro.moved += bytes
	done := ro.plan.TransferDoneFrom(src, float64(it.h.At), ro.xferTime(bytes))
	ro.ctl.AtFunc(sim.Time(done), transferDoneEvent, ro, item, 0)
}

// settle frees a placed or dropped item's slot for the next transfer,
// releasing its KV sequence.
func (ro *router) settle(item int) {
	ro.items[item] = handoffItem{}
	ro.freeItems = append(ro.freeItems, item)
}

// transferDoneEvent fires when an item's KV transfer completes (AtFunc:
// ctx is the router, a the item index) and places it. A split fleet
// queues what no decode replica can import yet for the pending drain; a
// colocated fleet has no such queue, and its checkpoint resume falls
// back to recompute instead.
func transferDoneEvent(ctx any, item, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	if ro.place(item) {
		ro.settle(item)
		return
	}
	if ro.split() {
		ro.queuedHandoffs++
		ro.pending = append(ro.pending, item)
		return
	}
	ro.fstats.RecoveredRecompute++
	pr := ro.items[item].pr
	ro.settle(item)
	ro.dispatch(pr)
}

// place imports a transferred item on a replica of the last pool, if
// any can take it now, and reports whether the item is settled.
// Replicas that cannot import — dead, drained, out of KV headroom, or
// inside a network domain outage — are filtered out before the pool's
// pick ranks the rest. On a split fleet a placement retry is scheduled
// at the earliest partition lift, so work is never stranded behind an
// outage that outlives the decode pool's finish stream.
func (ro *router) place(item int) bool {
	p := ro.last()
	it := &ro.items[item]
	origin := it.pr.origin
	r := ro.reqs[origin]
	now := float64(ro.ctl.Now())
	ro.lift = -1
	loads := ro.snapshot(p, r, &it.h.KV, now)
	if len(loads) == 0 {
		if ro.split() && ro.lift > now {
			ro.ctl.AtFunc(sim.Time(ro.lift), drainPendingEvent, ro, 0, 0)
		}
		return false
	}
	k, ok := ro.pick(p, r, loads, now)
	if !ok {
		return true
	}
	local, err := ro.fab.touch(p.off+k).SubmitDecoded(r, it.h)
	if err != nil {
		if ro.plan == nil {
			ro.err = fmt.Errorf("fleet: import on %sreplica %d: %w", p.role, k, err)
			return true
		}
		// The import failed at arrival — the target died or lost its
		// headroom in this very instant. Recompute on the same attempt
		// instead of stranding the request (an oversized request drops
		// inside dispatch).
		ro.fstats.RecoveredRecompute++
		ro.dispatch(it.pr)
		return true
	}
	ro.record(p, r, origin, k, local)
	if it.recovery {
		ro.fstats.RecoveredCheckpoint++
	}
	return true
}

// drainPendingEvent retries queued hand-offs in completion order
// (AtFunc: ctx is the router). Scheduled by restores and partition
// lifts; the fabric lockstep calls drainPending directly at
// decode-finish instants.
func drainPendingEvent(ctx any, _, _ int) {
	ctx.(*router).drainPending()
}

// drainPending retries queued hand-offs in completion order, at a
// control instant or the decode lockstep's; each import parks its
// target's clock there through the fabric's touch.
func (ro *router) drainPending() {
	if ro.err != nil {
		return
	}
	kept := ro.pending[:0]
	for _, item := range ro.pending {
		if ro.err == nil && ro.place(item) {
			ro.settle(item)
		} else {
			kept = append(kept, item)
		}
	}
	ro.pending = kept
}
