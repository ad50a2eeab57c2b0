package fleet

import (
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The router's policy layer: the policy stack (package policy) composed
// in front of the replicas. It owns admission and retry at the arrival
// hook, breaker and autoscaler routability in the candidate filter,
// preemption after each submission, breaker and drain accounting in the
// finish and crash hooks, and the autoscaler's tick and warm-up events
// on the control timeline. Every pool gets breakers; the autoscaler
// scales the last pool. A colocated fleet feeds its breakers each
// finish's TTFT against the SLO (and each crash's failures, under a
// fault plan) and has no liveness fallback: when every active
// replica's breaker is open, requests wait on the retry schedule. A
// split fleet takes only breakers and the decode autoscaler (see
// ServeConfig.Stack): crashes and finishes feed its breakers.

// policyLayer is the router's policy-stack state.
type policyLayer struct {
	stack *policy.Stack
	// winTTFT[i] collects the last pool's replica i completion TTFTs
	// since the last autoscale tick (hook-written,
	// coordinator-drained); a split fleet leaves it empty.
	winTTFT [][]float64
	ttftSLO float64
	world   int
	// readmits[origin] counts the re-admissions spent on origin, against
	// the retry policy's MaxAttempts (nil without one).
	readmits []int
	stats    metrics.AdmissionStats
}

// newPolicyLayer gives every pool a breaker per replica when the stack
// carries a BreakerConfig, the last pool an elastic lifecycle when it
// carries an autoscaler (ServeConfig.Validate has checked that its Max
// fits), and each of the run's requests a re-admission budget when it
// carries a retry policy.
func newPolicyLayer(cfg core.Config, stack *policy.Stack, requests int, pools []*pool) *policyLayer {
	scaled := pools[len(pools)-1]
	n := len(scaled.out)
	pl := &policyLayer{
		stack:   stack,
		winTTFT: make([][]float64, n),
		ttftSLO: cfg.SLO.TTFT,
		world:   cfg.World,
	}
	if stack.Retry != nil {
		pl.readmits = make([]int, requests)
	}
	for _, p := range pools {
		p.breakers = newBreakers(stack, len(p.out))
	}
	if as := stack.Autoscaler; as != nil {
		scaled.elastic = newElasticPool(as, n, cfg)
		if t := as.Config().TTFTTarget; t > 0 {
			pl.ttftSLO = t
		}
	}
	return pl
}

// admit runs an arrival (or a retry) through the token bucket, if the
// stack has one. A shed request re-enters admission on the backoff
// schedule until its retry budget runs out.
func (ro *router) admit(origin int) bool {
	if tb := ro.pol.stack.Admission; tb != nil && !tb.Allow(float64(ro.ctl.Now())) {
		ro.pol.stats.Shed++
		ro.requeue(origin, "shed by admission control")
		return false
	}
	return true
}

// requeue schedules a re-admission for a refused request, or drops it
// once its re-admission budget is spent (or no retry policy is
// attached). The drop counts in Admission.Dropped.
func (ro *router) requeue(origin int, reason string) {
	pl := ro.pol
	bo := pl.stack.Retry
	if bo == nil || pl.readmits[origin] >= bo.MaxAttempts() {
		ro.led.drop(origin, reason)
		pl.stats.Dropped++
		return
	}
	pl.readmits[origin]++
	pl.stats.Retries++
	delay := bo.Delay(pl.readmits[origin])
	ro.ctl.AtFunc(ro.ctl.Now()+sim.Time(delay), arriveEvent, ro, origin, 0)
}

// preempt lets a tier-0 arrival just queued on engine e evict lower
// tiers' KV under pressure; the victims requeue behind it for
// recompute.
func (ro *router) preempt(e *core.Engine, r workload.Request) {
	if pc := ro.pol.stack.Preemption; pc != nil && r.Priority == 0 {
		victims := e.PreemptLowPriority(pc.Evictable(), r.InputLen)
		ro.pol.stats.Preemptions += len(victims)
	}
}

// policyFinished is the policy layer's finish hook. On a colocated
// fleet the completion's TTFT feeds the autoscaler's window and the
// replica's breaker; on a split fleet every finish (a hand-off
// included) is a breaker success. A draining replica that ran out of
// work is noted for the next tick.
func (ro *router) policyFinished(p *pool, i, local int) {
	pl := ro.pol
	t := float64(p.engines[i].Now())
	if ro.split() {
		if p.breakers != nil {
			p.breakers[i].OnSuccess(t)
		}
	} else if ttft, ok := p.engines[i].RequestTTFT(local); ok {
		if p.elastic != nil {
			pl.winTTFT[i] = append(pl.winTTFT[i], ttft)
		}
		if p.breakers != nil {
			// Trip accounting is summed from Trips() at assemble; the
			// hook must not touch the shared stats struct.
			if ttft > pl.ttftSLO {
				p.breakers[i].OnFailure(t)
			} else {
				p.breakers[i].OnSuccess(t)
			}
		}
	}
	if p.elastic != nil && p.out[i].Requests == 0 {
		p.elastic.noteDrained(i, t)
	}
}

// tickEvent is one autoscaler evaluation on the control timeline.
func tickEvent(ctx any, _, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	p := ro.last()
	ep := p.elastic
	now := float64(ro.ctl.Now())
	ep.reapDrains()
	ep.stats.Ticks++
	outstanding := func(i int) int { return p.out[i].Requests }
	warm := func(k int) {
		ro.ctl.AtFunc(sim.Time(now+ep.coldStart), activateEvent, ro, k, 0)
	}
	ep.scale(ep.as.Decide(now, ro.signals(p)), now, outstanding, warm)
	// Keep ticking while any request is unresolved; once everything is
	// terminal the timeline drains and the run ends.
	if ro.led.finished+ro.led.dropped < len(ro.reqs) {
		ro.ctl.AtFunc(ro.ctl.Now()+ep.tickInterval(), tickEvent, ro, 0, 0)
	}
}

// signals builds the autoscaler's windowed SLO view of pool p and
// resets the window. The queue counts p's resident and queued requests
// plus hand-offs still waiting for headroom; a split fleet's decode pool
// collects no TTFT window, so TTFT and goodput stay neutral there.
func (ro *router) signals(p *pool) policy.Signals {
	pl := ro.pol
	var s policy.Signals
	s.Active, s.Warming = p.elastic.counts()
	queued := len(ro.pending) + len(p.queued)
	var win []float64
	for i := range p.engines {
		queued += p.out[i].Requests
		win = append(win, pl.winTTFT[i]...)
		pl.winTTFT[i] = pl.winTTFT[i][:0]
	}
	if s.Active > 0 {
		s.QueuePerReplica = float64(queued) / float64(s.Active)
	} else {
		s.QueuePerReplica = float64(queued)
	}
	if len(win) > 0 {
		sort.Float64s(win)
		s.TTFTP99 = metrics.Percentile(win, 99)
	}
	return s
}

// activateEvent completes one scale-up: the replica's weights are
// loaded, it joins routing, and the requests queued while every active
// replica was dead and the queued hand-offs retry against it.
func activateEvent(ctx any, k, _ int) {
	ro := ctx.(*router)
	if ro.err == nil {
		p := ro.last()
		p.elastic.activate(k)
		ro.drainQueued(p)
		ro.drainPending()
	}
}

// assemble adds the policy layer's autoscale and admission accounting
// to the report. Beside the retry schedule's drops, counted by
// requeue, the run's other drops count here when no fault layer runs.
func (pl *policyLayer) assemble(rep *metrics.Report, ro *router) {
	if ep := ro.last().elastic; ep != nil {
		rep.Autoscale = ep.finish(rep.Elapsed, pl.world)
	}
	for _, p := range ro.pools {
		pl.stats.BreakerTrips += breakerTrips(p.breakers)
	}
	if ro.plan == nil {
		pl.stats.Dropped = ro.led.dropped
	}
	rep.Admission = pl.stats
}
