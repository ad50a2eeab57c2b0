package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// Lifecycle hardening around crashes that land mid-recovery: a restore
// cannot fire before the crash's restart instant, a second crash during
// recompute recovery hands the recovered requests back for another
// round, and a checkpoint resume targeted at a replica that died while
// the transfer was in flight is rejected cleanly (the caller re-enters
// recovery) instead of stranding the request.

// runFn adapts a closure to the simulation's event callback shape.
func runFn(ctx any, _, _ int) { ctx.(func())() }

// Restore before the restart instant is a lifecycle bug and must be
// rejected; at the instant it succeeds.
func TestRestoreBeforeRestartRejected(t *testing.T) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	for _, r := range smallTrace(40, 23) {
		if _, err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	eng.AtFunc(0.02, runFn, func() {
		if _, err := e.Crash(0.05); err != nil {
			t.Fatalf("Crash: %v", err)
		}
	}, 0, 0)
	eng.AtFunc(0.03, runFn, func() {
		err := e.Restore()
		if err == nil {
			t.Fatal("Restore before the restart instant accepted")
		}
		if !strings.Contains(err.Error(), "before the restart instant") {
			t.Fatalf("error %q does not name the restart instant", err)
		}
		if e.Alive() {
			t.Fatal("early restore resurrected the engine")
		}
	}, 0, 0)
	eng.AtFunc(0.05, runFn, func() {
		if err := e.Restore(); err != nil {
			t.Fatalf("Restore at the restart instant: %v", err)
		}
		if !e.Alive() {
			t.Fatal("restored engine not alive")
		}
	}, 0, 0)
	eng.Run()
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// Crash during restore-driven recompute recovery: requests re-admitted
// after the first crash are aborted again by a second crash and hand
// themselves back for another recovery round — nothing is stranded,
// nothing double-finishes.
func TestCrashDuringRecomputeRecovery(t *testing.T) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	reqs := smallTrace(80, 29)
	for _, r := range reqs {
		if _, err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	var lost1, lost2 []Lost
	recovered1 := make(map[int]bool)
	resubmits := 0
	resubmit := func(lost []Lost, track map[int]bool) {
		for _, l := range lost {
			id, err := e.SubmitRecovered(l.Req, l.Generated, l.FirstTokenAt)
			if err != nil {
				t.Fatalf("SubmitRecovered: %v", err)
			}
			if track != nil {
				track[id] = true
			}
			resubmits++
		}
	}
	eng.AtFunc(0.02, runFn, func() {
		l, err := e.Crash(0.04)
		if err != nil {
			t.Fatalf("first Crash: %v", err)
		}
		lost1 = l
	}, 0, 0)
	eng.AtFunc(0.04, runFn, func() {
		if err := e.Restore(); err != nil {
			t.Fatalf("first Restore: %v", err)
		}
		resubmit(lost1, recovered1)
	}, 0, 0)
	// The second crash lands while the first round's recoveries are
	// still in flight.
	eng.AtFunc(0.045, runFn, func() {
		l, err := e.Crash(0.065)
		if err != nil {
			t.Fatalf("second Crash: %v", err)
		}
		lost2 = l
	}, 0, 0)
	eng.AtFunc(0.065, runFn, func() {
		if err := e.Restore(); err != nil {
			t.Fatalf("second Restore: %v", err)
		}
		resubmit(lost2, nil)
	}, 0, 0)
	eng.Run()
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(lost1) == 0 || len(lost2) == 0 {
		t.Fatalf("crashes aborted %d and %d requests; pick better instants", len(lost1), len(lost2))
	}
	reAborted := 0
	for _, l := range lost2 {
		if recovered1[l.Local] {
			reAborted++
		}
	}
	if reAborted == 0 {
		t.Fatal("second crash caught no in-flight recovery; the scenario did not exercise crash-during-restore")
	}
	// Exactly-once: every original finishes exactly once across its
	// recovery copies.
	if res.Report.Requests != len(reqs) {
		t.Fatalf("finished %d, want %d originals", res.Report.Requests, len(reqs))
	}
	f := res.Report.Faults
	if f.Crashes != 2 || f.AbortedRequests != len(lost1)+len(lost2) {
		t.Fatalf("fault stats %+v, want 2 crashes / %d aborted", f, len(lost1)+len(lost2))
	}
}

// Crash mid-checkpoint-resume: the replica a checkpoint is being
// replayed onto dies while the transfer is in flight. The import is
// rejected cleanly at arrival (dead engine), the caller re-enters
// recovery with recompute, and every request still finishes exactly
// once.
func TestCrashMidCheckpointResume(t *testing.T) {
	cfg := fastConfig(2)
	cfg.CheckpointInterval = 0.005
	eng := sim.NewEngine()
	e, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	spare, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := spare.StartOnline(); err != nil {
		t.Fatal(err)
	}
	reqs := smallTrace(80, 31)
	for _, r := range reqs {
		if _, err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	var lost []Lost
	eng.AtFunc(0.03, runFn, func() {
		l, err := e.Crash(0.08)
		if err != nil {
			t.Fatalf("Crash: %v", err)
		}
		lost = l
	}, 0, 0)
	// The spare dies before the resume transfers land on it.
	eng.AtFunc(0.075, runFn, func() {
		if _, err := spare.Crash(0.2); err != nil {
			t.Fatalf("spare Crash: %v", err)
		}
	}, 0, 0)
	deadImports, hadCkpt := 0, 0
	eng.AtFunc(0.08, runFn, func() {
		if err := e.Restore(); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		for _, l := range lost {
			if l.Ckpt != nil {
				hadCkpt++
				// The resume the router scheduled is arriving on a dead
				// replica: SubmitDecoded must reject it, not strand it.
				_, err := spare.SubmitDecoded(l.Req, *l.Ckpt)
				if err == nil {
					t.Fatal("dead spare accepted a checkpoint resume")
				}
				if !strings.Contains(err.Error(), "crashed engine") {
					t.Fatalf("dead import error %q does not say crashed", err)
				}
				deadImports++
			}
			// Recovery falls back to recompute on the restored origin.
			if _, err := e.SubmitRecovered(l.Req, l.Generated, l.FirstTokenAt); err != nil {
				t.Fatalf("recompute fallback: %v", err)
			}
		}
	}, 0, 0)
	eng.Run()
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	spareRes, err := spare.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if hadCkpt == 0 {
		t.Fatal("no checkpointed loss; crash later or checkpoint more often")
	}
	if deadImports != hadCkpt {
		t.Fatalf("%d of %d checkpoint resumes hit the dead-import guard", deadImports, hadCkpt)
	}
	if res.Report.Requests != len(reqs) {
		t.Fatalf("origin finished %d, want all %d via recompute fallback", res.Report.Requests, len(reqs))
	}
	if spareRes.Report.Requests != 0 {
		t.Fatalf("dead spare finished %d requests", spareRes.Report.Requests)
	}
}
