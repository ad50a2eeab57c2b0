package core

import "repro/internal/sim"

// Now returns the engine's current virtual time. Routers use it to
// timestamp policy decisions (breaker transitions, autoscale spans)
// from inside finish hooks and control events.
func (e *Engine) Now() sim.Time { return e.eng.Now() }

// RequestTTFT returns the time-to-first-token of a request by local id,
// and whether a first token has been produced yet. Recompute evictions
// and crash recoveries keep the original first-token instant, so the
// value spans the request's whole lifecycle. A finished request answers
// from its retired record.
func (e *Engine) RequestTTFT(id int) (float64, bool) {
	if id < 0 || id >= len(e.states) {
		return 0, false
	}
	st := e.states[id]
	if st == nil {
		return e.records[id].TTFT(), true
	}
	if st.generated <= 0 {
		return 0, false
	}
	return float64(st.firstTokenAt - sim.Time(st.req.ArrivalTime)), true
}

// PreemptLowPriority evicts resident requests whose workload priority
// tier is minPrio or below-importance (Priority >= minPrio) until at
// least needTokens of KV headroom open up, most recent admissions
// first. Victims take the eviction-recompute path — cache freed,
// generated tokens kept, requeued at the back of the waiting queue for
// a fresh prefill over input+generated tokens — so a high-priority
// arrival submitted just before this call stays ahead of them. Returns
// the evicted local ids (empty when nothing evictable was resident or
// headroom already sufficed).
func (e *Engine) PreemptLowPriority(minPrio, needTokens int) []int {
	if !e.running || e.dead {
		return nil
	}
	if e.FreeKVTokens() >= needTokens {
		return nil
	}
	e.syncStates(-1)
	defer e.markEvicted()
	var victims []int
	for id := len(e.states) - 1; id >= 0; id-- {
		st := e.states[id]
		if st == nil || st.evicted || st.aborted || st.req.Priority < minPrio || !e.kv.Has(id) {
			continue
		}
		e.requeue(id, false)
		victims = append(victims, id)
		if e.FreeKVTokens() >= needTokens {
			break
		}
	}
	return victims
}
