package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// The KV transfer path of a prefill/decode split (see Serve): a
// prefill replica's hand-off and a crash-lost request's checkpoint
// reload both cross the modeled KV link, and land on a replica of the
// last pool once the transfer completes. A split fleet queues a
// transferred hand-off only while no decode replica has the KV
// headroom to import it, and retries it as decode requests finish.
//
// The split isolates the two phases' interference: prefill replicas
// never stall arrivals behind long decode phases, so TTFT stays flat
// under bursts, at the price of the modeled transfer and fewer
// decode-side token slots. It runs on the same router as a colocated
// fleet (online.go), with two pools instead of one.

// handoffItem is one KV move on the transfer path: a prefill hand-off,
// or a crash-lost request's checkpoint reload (recovery, counted as a
// recovery rather than a hand-off). pr is the recompute a failed
// import falls back to.
type handoffItem struct {
	pr       pendingRec
	h        core.Handoff
	recovery bool
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
	ro.led.finished--
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
