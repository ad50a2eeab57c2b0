package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The online router's fault layer: crash recovery under a fault plan
// (package faults). It owns the crash, restore and checkpoint-resume
// events of the control timeline; its candidate-filter contribution
// (dead replicas receive nothing) is the base snapshot's liveness check.

// faultLayer is the online router's crash-recovery state.
type faultLayer struct {
	plan *faults.Plan
	// queued holds requests that found no live replica; the next
	// restore dispatches them again.
	queued []pendingRec
	// resumes holds checkpoint restores in flight (KV reloading from
	// stable storage before re-import).
	resumes    []pendingRec
	blockBytes float64
	xferTime   func(bytes float64) float64
	stats      metrics.FaultStats
}

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
	for ci, c := range ro.fault.plan.Crashes {
		if c.Replica < len(ro.engines) {
			ro.ctl.AtFunc(sim.Time(c.At), crashEvent, ro, ci, 0)
			ro.ctl.AtFunc(sim.Time(c.RestartAt), restoreEvent, ro, ci, 0)
		}
	}
}

// crashEvent executes one planned crash (AtFunc: a is the crash index
// in the plan): the replica's in-flight requests are aborted and
// recovered.
func crashEvent(ctx any, ci, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	c := ro.fault.plan.Crashes[ci]
	lost, err := ro.engines[c.Replica].Crash(sim.Time(c.RestartAt))
	if err != nil {
		ro.err = fmt.Errorf("fleet: crash of replica %d: %w", c.Replica, err)
		return
	}
	origins := make([]int, len(lost))
	for i, l := range lost {
		origins[i] = ro.retire(c.Replica, l.Local)
	}
	for i, l := range lost {
		ro.recover(origins[i], l)
	}
}

// recover re-dispatches one crash-lost request, spending one retry.
func (ro *router) recover(origin int, l core.Lost) {
	if ro.err != nil {
		return
	}
	fl := ro.fault
	ro.led.attempts[origin]++
	if ro.led.attempts[origin] > fl.plan.MaxRetries() {
		ro.led.drop(origin, "retry budget exhausted")
		return
	}
	if l.Ckpt != nil {
		// Checkpoint resume: the snapshot reloads from stable storage
		// over the KV link before it can be re-imported. The reload
		// rides the shared link timeline (TransferDoneFrom with no
		// source replica), so link degradation and partitions stretch
		// or stall it like any other transfer.
		fl.resumes = append(fl.resumes, pendingRec{origin: origin, lost: l})
		bytes := float64(l.Ckpt.KV.Blocks()) * fl.blockBytes
		done := fl.plan.TransferDoneFrom(-1, float64(ro.ctl.Now()), fl.xferTime(bytes))
		ro.ctl.AtFunc(sim.Time(done), resumeEvent, ro, len(fl.resumes)-1, 0)
		return
	}
	fl.stats.RecoveredRecompute++
	ro.dispatch(origin, pendingRec{origin: origin, lost: l})
}

// resumeEvent places a reloaded checkpoint on a live replica with KV
// headroom. With none available, or when the import fails at arrival
// (the target died or lost its headroom in this very instant), the
// request falls back to recompute recovery on the same attempt instead
// of stranding (an oversized request drops inside dispatch).
func resumeEvent(ctx any, item, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	it := ro.fault.resumes[item]
	if ro.led.droppedReason[it.origin] != "" {
		return
	}
	r, ck, now := ro.reqs[it.origin], it.lost.Ckpt, ro.ctl.Now()
	if loads := ro.snapshot(r, ck, float64(now)); len(loads) > 0 {
		k, ok := ro.pick(r, loads)
		if !ok {
			return
		}
		h := core.Handoff{Local: -1, Req: r, KV: ck.KV, Generated: ck.Generated, FirstTokenAt: ck.FirstTokenAt, At: now}
		if local, err := ro.engines[k].SubmitDecoded(r, h); err == nil {
			ro.fault.stats.RecoveredCheckpoint++
			ro.record(r, it.origin, k, local)
			return
		}
	}
	it.lost.Ckpt = nil
	ro.fault.stats.RecoveredRecompute++
	ro.dispatch(it.origin, it)
}

// restoreEvent brings a crashed replica back and drains the queue of
// requests that found no live replica.
func restoreEvent(ctx any, ci, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	c := ro.fault.plan.Crashes[ci]
	if err := ro.engines[c.Replica].Restore(); err != nil {
		ro.err = fmt.Errorf("fleet: restore of replica %d: %w", c.Replica, err)
		return
	}
	q := ro.fault.queued
	ro.fault.queued = nil
	for _, p := range q {
		if ro.err != nil {
			return
		}
		ro.dispatch(p.origin, p)
	}
}

// assemble adds the fault layer's recovery accounting to the report.
func (fl *faultLayer) assemble(rep *metrics.Report, led *ledger) {
	fl.stats.DomainOutages = len(fl.plan.Domains)
	fl.stats.Dropped = led.dropped
	rep.Faults.Add(fl.stats)
}
