package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// checkRetired asserts that after Finalize the engine keeps no state for
// any request that finished, only the crash-lost copies, and that the
// result's records are the engine's own table, one entry per id.
func checkRetired(t *testing.T, name string, e *Engine, res *Result) {
	t.Helper()
	if len(res.Records) != len(e.states) {
		t.Fatalf("%s: %d records for %d ids", name, len(res.Records), len(e.states))
	}
	if len(res.Records) > 0 && &res.Records[0] != &e.records[0] {
		t.Errorf("%s: Result.Records is a copy of the record table", name)
	}
	finished := 0
	for id, st := range e.states {
		switch rec := res.Records[id]; {
		case rec.Finished() && st != nil:
			t.Fatalf("%s: finished request %d still holds its state", name, id)
		case rec.Finished():
			finished++
		case st == nil || !st.aborted:
			t.Fatalf("%s: unfinished request %d is not a crash-lost copy (state %+v)", name, id, st)
		}
	}
	if finished != res.Report.Requests || finished == 0 {
		t.Fatalf("%s: %d retired requests, report finished %d", name, finished, res.Report.Requests)
	}
}

// Finished requests retire: an engine that crashed with checkpoints
// taken and took its lost requests back by recompute, the spare that
// resumed the rest from their checkpoints, and a prefill engine that
// handed every request off hold, after Finalize, no state for any
// request that finished.
func TestFinalizeRetainsNoFinishedState(t *testing.T) {
	cfg := fastConfig(2)
	cfg.CheckpointInterval = 0.005
	eng := sim.NewEngine()
	e, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Engine{e, spare} {
		if err := x.StartOnline(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range smallTrace(80, 13) {
		if _, err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	h := &crashHarness{t: t, eng: eng, e: e, restart: 0.08}
	recomputed, resumed := 0, 0
	h.resubmit = func(l Lost) {
		if l.Ckpt == nil || recomputed <= resumed {
			if _, err := e.SubmitRecovered(l.Req, l.Generated, l.FirstTokenAt); err != nil {
				t.Fatalf("SubmitRecovered: %v", err)
			}
			recomputed++
			return
		}
		if _, err := spare.SubmitDecoded(l.Req, *l.Ckpt); err != nil {
			t.Fatalf("SubmitDecoded: %v", err)
		}
		resumed++
	}
	eng.AtFunc(0.03, crashEventCB, h, 0, 0)
	eng.AtFunc(0.08, restoreEventCB, h, 0, 0)
	eng.Run()
	if recomputed == 0 || resumed == 0 {
		t.Fatalf("crash recovered %d by recompute and %d from checkpoints", recomputed, resumed)
	}
	for _, x := range []struct {
		name string
		e    *Engine
	}{{"crashed", e}, {"spare", spare}} {
		res, err := x.e.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		checkRetired(t, x.name, x.e, res)
	}

	eng = sim.NewEngine()
	pre, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	handoffs := 0
	pre.SetHandoff(func(Handoff) { handoffs++ })
	if err := pre.Start(workload.StampArrivals(smallTrace(60, 31), workload.Poisson{Rate: 300}, 3)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	res, err := pre.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if handoffs == 0 {
		t.Fatal("prefill engine handed nothing off")
	}
	checkRetired(t, "prefill", pre, res)
}
