package core

import (
	"testing"

	"repro/internal/sim"
)

// A preemption can land while the engine's first prefill batch is still
// in flight, before any decode phase ran: the low-priority requests give
// up their KV and requeue, and the run still finishes every one of them.
func TestPreemptBeforeFirstDecodePhase(t *testing.T) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	reqs := smallTrace(40, 7)
	for _, r := range reqs {
		r.Priority = 1
		if _, err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	// The start event launches the first prefill batch; its pass is
	// still running.
	eng.RunUntil(eng.Now())
	if e.inflight == 0 {
		t.Fatal("no prefill pass in flight after the start event")
	}
	victims := e.PreemptLowPriority(1, e.CapacityTokens())
	if len(victims) == 0 {
		t.Fatal("nothing preempted while the first prefill batch held KV")
	}
	for _, id := range victims {
		if e.kv.Has(id) {
			t.Fatalf("preempted request %d still holds KV", id)
		}
	}
	eng.Run()
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != len(reqs) {
		t.Fatalf("finished %d of %d", res.Report.Requests, len(reqs))
	}
	if res.Report.Recomputes != len(victims) {
		t.Fatalf("%d recomputes, want one per preempted request (%d)", res.Report.Recomputes, len(victims))
	}
}
