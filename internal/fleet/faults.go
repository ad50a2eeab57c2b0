package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// The router's fault layer: crash recovery under a fault plan (package
// faults). It owns the crash and restore events of the control
// timeline and its own retry budget, crash re-dispatches per request
// against the plan's MaxRetries; its candidate-filter contribution
// (dead replicas receive nothing) is the base snapshot's liveness
// check. Crash-lost requests resume from a KV checkpoint through the
// KV transfer path (disagg.go) or by recompute through the first pool.

// replicaConfig specializes the fleet config for replica i under a
// fault plan: stragglers get their slowdown factor, and the checkpoint
// cadence is switched on fleet-wide.
func replicaConfig(cfg core.Config, plan *faults.Plan, i int) core.Config {
	if plan == nil {
		return cfg
	}
	c := cfg
	if f := plan.SlowdownFor(i); f > 0 {
		c.Slowdown = f
	}
	if ci := plan.Config.CheckpointInterval; ci > 0 {
		c.CheckpointInterval = ci
	}
	return c
}

// scheduleCrashes puts the plan's crashes and restarts of this fleet's
// replicas on the control timeline.
func (ro *router) scheduleCrashes() {
	for ci, c := range ro.plan.Crashes {
		if c.Replica < len(ro.engines) {
			ro.ctl.AtFunc(sim.Time(c.At), crashEvent, ro, ci, 0)
			ro.ctl.AtFunc(sim.Time(c.RestartAt), restoreEvent, ro, ci, 0)
		}
	}
}

// crashEvent executes one planned crash (AtFunc: a is the crash index
// in the plan): the replica's in-flight requests are aborted and
// recovered. A crash is a breaker failure signal per aborted request —
// at least one even when the replica was idle — so repeated outages
// open the breaker and routing stops probing the replica.
func crashEvent(ctx any, ci, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	c := ro.plan.Crashes[ci]
	p, k := ro.replica(c.Replica)
	lost, err := ro.fab.touch(c.Replica).Crash(sim.Time(c.RestartAt))
	if err != nil {
		ro.err = fmt.Errorf("fleet: crash of replica %d: %w", c.Replica, err)
		return
	}
	origins := make([]int, len(lost))
	for i, l := range lost {
		origins[i] = p.retire(k, l.Local)
	}
	p.fix(k)
	now := float64(ro.ctl.Now())
	if p.breakers != nil {
		for i := 0; i < max(len(lost), 1); i++ {
			p.breakers[k].OnFailure(now)
		}
	}
	// A draining replica the crash left without work has drained: no
	// finish hook will fire for the requests it lost.
	if p.elastic != nil && p.out[k].Requests == 0 {
		p.elastic.noteDrained(k, now)
	}
	for i, l := range lost {
		ro.recover(origins[i], l)
	}
}

// recover re-dispatches one crash-lost request, spending one retry. A
// checkpoint reloads from stable storage over the KV link — the shared
// link timeline, so degradation and partitions stretch or stall it like
// any other transfer — and is placed like a hand-off on the last pool.
// Without one the request resumes by recompute through the first pool:
// a colocated replica resumes from its lost progress, a split fleet
// restarts the whole lifecycle at the prefill pool (the generation
// already delivered is redone there; Faults.LostOutputTokens accounts
// it). Either way a failed import falls back to that recompute on the
// same attempt.
func (ro *router) recover(origin int, l core.Lost) {
	if ro.err != nil {
		return
	}
	ro.recoveries[origin]++
	if ro.recoveries[origin] > ro.plan.MaxRetries() {
		ro.led.drop(origin, "retry budget exhausted")
		return
	}
	pr := pendingRec{origin: origin, fresh: ro.split(), generated: l.Generated, firstTokenAt: l.FirstTokenAt}
	if l.Ckpt != nil {
		h := *l.Ckpt
		h.At = ro.ctl.Now() // the reload starts at the crash, not at the snapshot
		ro.transfer(handoffItem{pr: pr, h: h, recovery: true}, -1)
		return
	}
	ro.fstats.RecoveredRecompute++
	ro.dispatch(pr)
}

// restoreEvent brings a crashed replica back, dispatches the requests
// its pool queued while every active replica was dead, and retries
// queued hand-offs once the control events at this instant settle (the
// restored replica may now import what others could not).
func restoreEvent(ctx any, ci, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	c := ro.plan.Crashes[ci]
	p, k := ro.replica(c.Replica)
	if err := ro.fab.touch(c.Replica).Restore(); err != nil {
		ro.err = fmt.Errorf("fleet: restore of replica %d: %w", c.Replica, err)
		return
	}
	p.fix(k)
	ro.drainQueued(p)
	if ro.err == nil && p == ro.last() && len(ro.pending) > 0 {
		ro.ctl.AtFunc(ro.ctl.Now(), drainPendingEvent, ro, 0, 0)
	}
}

// activeDead reports whether the fault layer has killed every replica
// of pool p that the autoscaler keeps active.
func (ro *router) activeDead(p *pool) bool {
	if ro.plan == nil {
		return false
	}
	for i, e := range p.engines {
		if p.elastic.routable(i) && e.Alive() {
			return false
		}
	}
	return true
}

// drainQueued dispatches again, in queue order, the requests pool p
// queued while every active replica was dead.
func (ro *router) drainQueued(p *pool) {
	q := p.queued
	p.queued = nil
	for _, pr := range q {
		if ro.err != nil {
			return
		}
		ro.dispatch(pr)
	}
}
