package fleet

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

// replica lifecycle states of an autoscaled pool.
const (
	rIdle     = iota // provisioned but not serving (never started, or drained)
	rWarming         // scale-up decided, weight load in progress
	rActive          // serving traffic
	rDraining        // scale-down decided, finishing resident work
)

// elasticPool owns the replica-lifecycle mechanics an autoscaled pool
// needs: the per-replica state machine (idle / warming / active /
// draining), the provisioned GPU-second spans, and the execution of
// scale decisions. The router's policy layer scales its last pool with
// one: the whole colocated fleet, or the decode pool of a split one. A nil
// pool means "static": every routable check passes and no accounting
// happens, preserving the pre-policy code paths byte for byte.
type elasticPool struct {
	as        *policy.Autoscaler
	coldStart float64

	// Coordinator-owned lifecycle state; changed, when set, is called
	// with each replica whose state moved.
	state     []int
	changed   func(k int)
	openStart []float64
	gpuSec    []float64
	// drainDoneAt[i] is hook-written: the instant replica i's last
	// outstanding request finished while draining (-1 otherwise). The
	// coordinator reaps it at ticks and at assemble.
	drainDoneAt []float64

	stats metrics.AutoscaleStats
}

// newElasticPool provisions n replicas, the autoscaler's initial count
// active and the rest idle. Every scale-up pays the autoscaler's
// ColdStart, or the modeled weight-load time of one replica of cfg when
// that is zero.
func newElasticPool(as *policy.Autoscaler, n int, cfg core.Config) *elasticPool {
	ep := &elasticPool{
		as:          as,
		coldStart:   as.Config().ColdStart,
		state:       make([]int, n),
		openStart:   make([]float64, n),
		gpuSec:      make([]float64, n),
		drainDoneAt: make([]float64, n),
	}
	if ep.coldStart == 0 {
		ep.coldStart = faults.WeightReloadTime(cfg.Node, cfg.Spec, cfg.World)
	}
	initial := as.InitialReplicas()
	for i := range ep.state {
		ep.drainDoneAt[i] = -1
		if i < initial {
			ep.state[i] = rActive
		}
	}
	ep.stats.PeakReplicas = initial
	return ep
}

// newBreakers gives each of n replicas a circuit breaker when the stack
// carries a BreakerConfig; nil otherwise.
func newBreakers(stack *policy.Stack, n int) []*policy.Breaker {
	if stack == nil || stack.Breaker == nil {
		return nil
	}
	bs := make([]*policy.Breaker, n)
	for i := range bs {
		bs[i] = policy.NewBreaker(*stack.Breaker)
	}
	return bs
}

// breakerTrips sums the trips of every breaker in bs.
func breakerTrips(bs []*policy.Breaker) int {
	trips := 0
	for _, b := range bs {
		trips += b.Trips()
	}
	return trips
}

// setState moves replica k to state st.
func (ep *elasticPool) setState(k, st int) {
	ep.state[k] = st
	if ep.changed != nil {
		ep.changed(k)
	}
}

// routable reports whether replica i may receive new traffic. A nil
// pool is static: everything is routable.
func (ep *elasticPool) routable(i int) bool {
	return ep == nil || ep.state[i] == rActive
}

// counts returns the active and warming replica totals.
func (ep *elasticPool) counts() (active, warming int) {
	for _, st := range ep.state {
		switch st {
		case rActive:
			active++
		case rWarming:
			warming++
		}
	}
	return
}

// provisioned counts replicas currently costing GPU time.
func (ep *elasticPool) provisioned() int {
	n := 0
	for _, st := range ep.state {
		if st != rIdle {
			n++
		}
	}
	return n
}

// scale executes one autoscaler decision at instant now: +delta
// replicas start warming (idle first, then canceling drains; warm
// schedules the activation event for each), -delta active replicas
// start draining (fewest outstanding requests first, higher index on
// ties; outstanding reports a replica's resident request count).
func (ep *elasticPool) scale(delta int, now float64, outstanding func(int) int, warm func(k int)) {
	for ; delta > 0; delta-- {
		k := -1
		for i := range ep.state {
			if ep.state[i] == rIdle {
				k = i
				break
			}
		}
		if k >= 0 {
			ep.setState(k, rWarming)
			ep.openStart[k] = now
			ep.stats.ScaleUps++
			ep.stats.ColdStartSeconds += ep.coldStart
			warm(k)
		} else {
			// No idle replica: cancel a drain instead (the span stays
			// open, no cold start to pay — weights are still loaded).
			for i := range ep.state {
				if ep.state[i] == rDraining {
					k = i
					break
				}
			}
			if k < 0 {
				break
			}
			ep.setState(k, rActive)
			ep.drainDoneAt[k] = -1
			ep.stats.ScaleUps++
		}
		if p := ep.provisioned(); p > ep.stats.PeakReplicas {
			ep.stats.PeakReplicas = p
		}
	}
	for ; delta < 0; delta++ {
		k := -1
		for i := len(ep.state) - 1; i >= 0; i-- {
			if ep.state[i] != rActive {
				continue
			}
			if k < 0 || outstanding(i) < outstanding(k) {
				k = i
			}
		}
		if k < 0 {
			break
		}
		ep.stats.ScaleDowns++
		if outstanding(k) == 0 {
			ep.closeSpan(k, now)
		} else {
			ep.setState(k, rDraining)
			ep.drainDoneAt[k] = -1
		}
	}
}

// activate completes one scale-up: replica k's weights are loaded and
// it joins routing (a no-op if the warm-up was overtaken, e.g. by an
// error unwinding the run).
func (ep *elasticPool) activate(k int) {
	if ep.state[k] == rWarming {
		ep.setState(k, rActive)
	}
}

// noteDrained records — from replica k's finish hook — that
// draining replica k ran out of resident work at instant t.
func (ep *elasticPool) noteDrained(k int, t float64) {
	if ep.state[k] == rDraining {
		ep.drainDoneAt[k] = t
	}
}

// closeSpan retires replica k's provisioned stretch at instant end.
func (ep *elasticPool) closeSpan(k int, end float64) {
	if end > ep.openStart[k] {
		ep.gpuSec[k] += end - ep.openStart[k]
	}
	ep.setState(k, rIdle)
	ep.drainDoneAt[k] = -1
}

// reapDrains closes the spans of draining replicas whose last resident
// request has finished (recorded by noteDrained).
func (ep *elasticPool) reapDrains() {
	for i := range ep.state {
		if ep.state[i] == rDraining && ep.drainDoneAt[i] >= 0 {
			ep.closeSpan(i, ep.drainDoneAt[i])
		}
	}
}

// finish closes every open span at instant end and returns the final
// accounting, with GPUSeconds summed across replicas at world GPUs
// each.
func (ep *elasticPool) finish(end float64, world int) metrics.AutoscaleStats {
	ep.reapDrains()
	for i := range ep.state {
		if ep.state[i] != rIdle {
			ep.closeSpan(i, end)
		}
		ep.stats.GPUSeconds += ep.gpuSec[i] * float64(world)
	}
	return ep.stats
}

// tickInterval returns the autoscaler's evaluation cadence as a
// simulation duration.
func (ep *elasticPool) tickInterval() sim.Time {
	return sim.Time(ep.as.Config().Interval)
}
