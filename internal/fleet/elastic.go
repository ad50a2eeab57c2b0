package fleet

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The online router's policy layer: the policy stack (package policy)
// composed in front of the replicas. It owns admission and retry at
// the arrival hook, breaker and autoscaler routability in the candidate
// filter, preemption after each submission, breaker and drain
// accounting in the finish hook, and the autoscaler's tick and
// warm-up events on the control timeline. Unlike the disaggregated
// router it has no liveness fallback: when every active replica's
// breaker is open, requests wait on the retry schedule.

// policyLayer is the online router's policy-stack state.
type policyLayer struct {
	stack *policy.Stack
	// pool owns the replica lifecycle and GPU-second accounting; nil
	// when no autoscaler is attached (the fleet stays static).
	pool *elasticPool
	// winTTFT[i] collects replica i's completion TTFTs since the last
	// autoscale tick (shard-written, coordinator-drained).
	winTTFT  [][]float64
	breakers []*policy.Breaker
	ttftSLO  float64
	world    int
	stats    metrics.AdmissionStats
}

func newPolicyLayer(cfg core.Config, stack *policy.Stack, replicas int) (*policyLayer, error) {
	pl := &policyLayer{
		stack:    stack,
		winTTFT:  make([][]float64, replicas),
		breakers: newBreakers(stack, replicas),
		ttftSLO:  cfg.SLO.TTFT,
		world:    cfg.World,
	}
	if as := stack.Autoscaler; as != nil {
		if m := as.Config().Max; m > replicas {
			return nil, fmt.Errorf("fleet: autoscaler Max %d exceeds provisioned replicas %d", m, replicas)
		}
		pl.pool = newElasticPool(as, replicas, cfg)
		if t := as.Config().TTFTTarget; t > 0 {
			pl.ttftSLO = t
		}
	}
	return pl, nil
}

// admit runs one request through the front door: the token bucket
// first, then routing across active, breaker-routable replicas. A shed
// or unroutable request re-enters admission on the backoff schedule
// until its retry budget runs out.
func (ro *router) admit(origin int) {
	if ro.err != nil || ro.led.droppedReason[origin] != "" {
		return
	}
	if tb := ro.pol.stack.Admission; tb != nil && !tb.Allow(float64(ro.ctl.Now())) {
		ro.pol.stats.Shed++
		ro.requeue(origin, "shed by admission control")
		return
	}
	ro.dispatch(origin, pendingRec{origin: origin, fresh: true})
}

// requeue schedules a retry for a refused request, or drops it once
// the budget is spent (or no retry policy is attached).
func (ro *router) requeue(origin int, reason string) {
	bo := ro.pol.stack.Retry
	if bo == nil || ro.led.attempts[origin] >= bo.MaxAttempts() {
		ro.led.drop(origin, reason)
		return
	}
	ro.led.attempts[origin]++
	ro.pol.stats.Retries++
	delay := bo.Delay(ro.led.attempts[origin])
	ro.ctl.AtFunc(ro.ctl.Now()+sim.Time(delay), arriveEvent, ro, origin, 0)
}

// routable is the policy layer's candidate filter: replica i must be
// active in the autoscaled pool and its breaker must let traffic
// through. Breaker skips are counted.
func (ro *router) routable(i int, now float64) bool {
	pl := ro.pol
	if !pl.pool.routable(i) {
		return false
	}
	if pl.breakers != nil && !pl.breakers[i].Routable(now) {
		pl.stats.BreakerSkips++
		return false
	}
	return true
}

// preempt lets a tier-0 arrival just queued on replica k evict lower
// tiers' KV under pressure; the victims requeue behind it for
// recompute.
func (ro *router) preempt(k int, r workload.Request) {
	if pc := ro.pol.stack.Preemption; pc != nil && r.Priority == 0 {
		victims := ro.engines[k].PreemptLowPriority(pc.Evictable(), r.InputLen)
		ro.pol.stats.Preemptions += len(victims)
	}
}

// policyFinished is the policy layer's finish hook: the completion's
// TTFT feeds the autoscaler's window and the replica's breaker, and a
// draining replica that ran out of work is noted for the next tick.
func (ro *router) policyFinished(replica, local int) {
	pl := ro.pol
	t := float64(ro.engines[replica].Now())
	if ttft, ok := ro.engines[replica].RequestTTFT(local); ok {
		if pl.pool != nil {
			pl.winTTFT[replica] = append(pl.winTTFT[replica], ttft)
		}
		if pl.breakers != nil {
			// Trip accounting is summed from Trips() at assemble; the
			// hook must not touch the shared stats struct.
			if ttft > pl.ttftSLO {
				pl.breakers[replica].OnFailure(t)
			} else {
				pl.breakers[replica].OnSuccess(t)
			}
		}
	}
	if pl.pool != nil && ro.out[replica].Requests == 0 {
		pl.pool.noteDrained(replica, t)
	}
}

// tickEvent is one autoscaler evaluation on the control timeline.
func tickEvent(ctx any, _, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	pool := ro.pol.pool
	now := float64(ro.ctl.Now())
	pool.reapDrains()
	pool.stats.Ticks++
	outstanding := func(i int) int { return ro.out[i].Requests }
	warm := func(k int) {
		ro.ctl.AtFunc(sim.Time(now+pool.coldStart), activateEvent, ro, k, 0)
	}
	pool.scale(ro.pol.stack.Autoscaler.Decide(now, ro.signals()), now, outstanding, warm)
	// Keep ticking while any request is unresolved; once everything is
	// terminal the timeline drains and the run ends.
	finished := 0
	for _, e := range ro.engines {
		finished += e.NumFinished()
	}
	if finished+ro.led.dropped < len(ro.reqs) {
		ro.ctl.AtFunc(ro.ctl.Now()+pool.tickInterval(), tickEvent, ro, 0, 0)
	}
}

// signals builds the autoscaler's windowed SLO view and resets the
// window.
func (ro *router) signals() policy.Signals {
	pl := ro.pol
	var s policy.Signals
	s.Active, s.Warming = pl.pool.counts()
	queued := 0
	var win []float64
	for i := range ro.engines {
		queued += ro.out[i].Requests
		win = append(win, pl.winTTFT[i]...)
		pl.winTTFT[i] = pl.winTTFT[i][:0]
	}
	if s.Active > 0 {
		s.QueuePerReplica = float64(queued) / float64(s.Active)
	} else {
		s.QueuePerReplica = float64(queued)
	}
	s.Goodput = 1
	if len(win) > 0 {
		sort.Float64s(win)
		s.TTFTP99 = metrics.Percentile(win, 99)
		good := 0
		for _, v := range win {
			if v <= pl.ttftSLO {
				good++
			}
		}
		s.Goodput = float64(good) / float64(len(win))
	}
	return s
}

// activateEvent completes one scale-up: the replica's weights are
// loaded and it joins routing.
func activateEvent(ctx any, k, _ int) {
	ro := ctx.(*router)
	if ro.err == nil {
		ro.pol.pool.activate(k)
	}
}

// assemble adds the policy layer's autoscale and admission accounting
// to the report.
func (pl *policyLayer) assemble(rep *metrics.Report, led *ledger) {
	if pl.pool != nil {
		rep.Autoscale = pl.pool.finish(rep.Elapsed, pl.world)
	}
	if pl.breakers != nil {
		pl.stats.BreakerTrips = breakerTrips(pl.breakers)
	}
	pl.stats.Dropped = led.dropped
	rep.Admission = pl.stats
}
