package core

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// crashHarness drives one online engine with a scheduled mid-run crash.
type crashHarness struct {
	t       *testing.T
	eng     *sim.Engine
	e       *Engine
	lost    []Lost
	restart sim.Time
	// resubmit, when set, handles each Lost at restore time.
	resubmit func(l Lost)
}

func crashEventCB(ctx any, _, _ int) {
	h := ctx.(*crashHarness)
	lost, err := h.e.Crash(h.restart)
	if err != nil {
		h.t.Fatalf("Crash: %v", err)
	}
	h.lost = lost
}

func restoreEventCB(ctx any, _, _ int) {
	h := ctx.(*crashHarness)
	if err := h.e.Restore(); err != nil {
		h.t.Fatalf("Restore: %v", err)
	}
	if h.resubmit != nil {
		for _, l := range h.lost {
			h.resubmit(l)
		}
	}
}

// A crash mid-run aborts every in-flight request; re-submitting them
// after restore completes all of them, and the fault accounting in the
// report lines up: finished + aborted covers every submission, nothing
// is double-finished.
func TestCrashAbortsAndRecompute(t *testing.T) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	reqs := smallTrace(80, 11)
	for _, r := range reqs {
		if _, err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	h := &crashHarness{t: t, eng: eng, e: e, restart: 0.05}
	recovered := 0
	h.resubmit = func(l Lost) {
		if l.Ckpt != nil {
			t.Fatalf("checkpoint without CheckpointInterval: %+v", l.Ckpt)
		}
		if _, err := e.SubmitRecovered(l.Req, l.Generated, l.FirstTokenAt); err != nil {
			t.Fatalf("SubmitRecovered: %v", err)
		}
		recovered++
	}
	eng.AtFunc(0.02, crashEventCB, h, 0, 0)
	eng.AtFunc(0.05, restoreEventCB, h, 0, 0)
	eng.Run()
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.lost) == 0 {
		t.Fatal("crash aborted nothing; pick an earlier instant")
	}
	if recovered != len(h.lost) {
		t.Fatalf("recovered %d of %d lost", recovered, len(h.lost))
	}
	f := res.Report.Faults
	if f.Crashes != 1 || f.AbortedRequests != len(h.lost) {
		t.Fatalf("fault stats %+v, want 1 crash / %d aborted", f, len(h.lost))
	}
	// Every original + every resubmission is a state; finished must be
	// exactly the non-aborted ones.
	if want := len(reqs) + recovered; res.Report.Requests != want-len(h.lost) {
		t.Fatalf("finished %d, want %d", res.Report.Requests, want-len(h.lost))
	}
	// Aborted locals carry unfinished zero records; recovered copies
	// must all have finished.
	aborted := make(map[int]bool, len(h.lost))
	for _, l := range h.lost {
		aborted[l.Local] = true
	}
	for id, rec := range res.Records {
		if aborted[id] {
			if rec.Finished() {
				t.Fatalf("aborted request %d has a finished record %+v", id, rec)
			}
		} else if !rec.Finished() {
			t.Fatalf("request %d unfinished: %+v", id, rec)
		}
	}
	if e.Crashes() != 1 {
		t.Fatalf("Crashes() = %d", e.Crashes())
	}
}

// Dead engines accept nothing; Restore reopens them. Crash/Restore
// reject nonsensical transitions.
func TestCrashLifecycleGuards(t *testing.T) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Crash(0); err == nil {
		t.Fatal("Crash before StartOnline accepted")
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(); err == nil {
		t.Fatal("Restore of a live engine accepted")
	}
	if !e.Alive() {
		t.Fatal("started engine not alive")
	}
	if _, err := e.Crash(0); err != nil {
		t.Fatal(err)
	}
	if e.Alive() {
		t.Fatal("crashed engine still alive")
	}
	r := smallTrace(1, 1)[0]
	if _, err := e.Submit(r); err == nil {
		t.Fatal("dead engine accepted Submit")
	}
	if _, err := e.SubmitRecovered(r, 0, 0); err == nil {
		t.Fatal("dead engine accepted SubmitRecovered")
	}
	if _, err := e.Crash(0); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := e.Restore(); err != nil {
		t.Fatal(err)
	}
	if !e.Alive() {
		t.Fatal("restored engine not alive")
	}
	if _, err := e.Submit(r); err != nil {
		t.Fatalf("restored engine rejected Submit: %v", err)
	}
	eng.Run()
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}

	// Before the start event an engine reports the warmth of what was
	// submitted; a crash before that event voids it, and the restored
	// engine reads live residency.
	eng = sim.NewEngine()
	if e, err = NewEngine(eng, fastConfig(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	r.PrefixGroup, r.PrefixLen = 3, min(64, r.InputLen)
	if _, err := e.Submit(r); err != nil {
		t.Fatal(err)
	}
	if got := e.PrefixWarmTokens(r); got != r.PrefixLen {
		t.Fatalf("before the start event: %d warm tokens, want the submitted %d", got, r.PrefixLen)
	}
	if _, err := e.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := e.PrefixWarmTokens(r); got != 0 {
		t.Fatalf("restored after a crash before the start event: %d warm tokens, want 0 resident", got)
	}
	eng.Run()
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitRecoveredValidation(t *testing.T) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	r := smallTrace(1, 2)[0]
	r.OutputLen = 8
	if _, err := e.SubmitRecovered(r, -1, 0); err == nil {
		t.Fatal("negative generated accepted")
	}
	if _, err := e.SubmitRecovered(r, 8, 0); err == nil {
		t.Fatal("generated == OutputLen accepted (nothing left to do)")
	}
	big := r
	big.InputLen = e.CapacityTokens() + 1
	if _, err := e.Submit(big); !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("oversized Submit error = %v, want ErrRequestTooLarge", err)
	}
	if _, err := e.SubmitRecovered(big, 0, 0); !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("oversized SubmitRecovered error = %v, want ErrRequestTooLarge", err)
	}
}

// The documented replacement for the old "core: stalled" panic: a
// request whose decode-plane peak can never fit is refused at submit
// time with ErrRequestTooLarge instead of crash-looping the phase
// machine later.
func TestOversizedRequestRejectedUpfront(t *testing.T) {
	cfg := fastConfig(2)
	reqs := smallTrace(4, 9)
	eng := sim.NewEngine()
	e, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	huge := reqs[0]
	huge.InputLen = 64
	huge.OutputLen = e.CapacityTokens() + 64
	_, err = e.Submit(huge)
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("err = %v, want ErrRequestTooLarge", err)
	}
	// The engine stays usable for sane requests afterwards.
	for _, r := range reqs {
		if _, err := e.Submit(r); err != nil {
			t.Fatal(err)
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
}

// With a checkpoint cadence, crashes hand back checkpoints whose replay
// through SubmitDecoded resumes generation: the resumed requests finish
// with their original arrival and first-token instants intact.
func TestCheckpointResumeAfterCrash(t *testing.T) {
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
	// A second, independent engine stands in for the live replica the
	// checkpoint is replayed on.
	spare, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := spare.StartOnline(); err != nil {
		t.Fatal(err)
	}
	reqs := smallTrace(80, 13)
	for _, r := range reqs {
		if _, err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	h := &crashHarness{t: t, eng: eng, e: e, restart: 0.08}
	resumed := 0
	h.resubmit = func(l Lost) {
		if l.Ckpt == nil {
			// Crashed before its first checkpoint: recompute instead.
			if _, err := e.SubmitRecovered(l.Req, l.Generated, l.FirstTokenAt); err != nil {
				t.Fatalf("SubmitRecovered: %v", err)
			}
			return
		}
		ck := l.Ckpt
		if ck.Generated <= 0 || ck.Generated > l.Generated {
			t.Fatalf("checkpoint generated %d, lost generated %d", ck.Generated, l.Generated)
		}
		if !spare.CanImportKV(ck.KV) {
			t.Fatalf("spare cannot import checkpoint of %d blocks", ck.KV.Blocks())
		}
		if _, err := spare.SubmitDecoded(l.Req, *ck); err != nil {
			t.Fatalf("SubmitDecoded: %v", err)
		}
		resumed++
	}
	// Crash late enough for a few checkpoint rounds to have happened.
	eng.AtFunc(0.03, crashEventCB, h, 0, 0)
	eng.AtFunc(0.08, restoreEventCB, h, 0, 0)
	eng.Run()
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	spareRes, err := spare.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Faults.Checkpoints == 0 {
		t.Fatal("no checkpoint rounds before the crash")
	}
	if resumed == 0 {
		t.Fatal("no request resumed from a checkpoint; crash later or checkpoint more often")
	}
	if got := spareRes.Report.Requests; got != resumed {
		t.Fatalf("spare finished %d of %d resumed", got, resumed)
	}
	for _, rec := range spareRes.Records {
		if !rec.Finished() {
			t.Fatalf("resumed request unfinished: %+v", rec)
		}
	}
	// Totals: originals - aborted finished on e, plus recomputes there,
	// plus checkpoint resumes on the spare.
	totalFinished := res.Report.Requests + spareRes.Report.Requests
	if want := len(reqs) + (len(h.lost) - resumed); totalFinished != want {
		t.Fatalf("finished %d across engines, want %d", totalFinished, want)
	}
}

// Checkpointing alone (no crash) must not change what completes — only
// add stall time.
func TestCheckpointCadenceCompletesEverything(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(60, 17), workload.Poisson{Rate: 200}, 5)
	base, err := Run(fastConfig(2), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(2)
	cfg.CheckpointInterval = 0.1
	ck, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Report.Requests != len(reqs) {
		t.Fatalf("finished %d of %d with checkpointing", ck.Report.Requests, len(reqs))
	}
	if ck.Report.Faults.Checkpoints == 0 {
		t.Fatal("no checkpoints taken")
	}
	if ck.Report.OutputTokens != base.Report.OutputTokens {
		t.Fatalf("output tokens changed: %d vs %d", ck.Report.OutputTokens, base.Report.OutputTokens)
	}
	if ck.Report.Elapsed < base.Report.Elapsed {
		t.Fatalf("checkpointing made the run faster: %v < %v", ck.Report.Elapsed, base.Report.Elapsed)
	}
}

// A checkpoint round snapshots only requests in the decode plane: a
// recovered request whose recompute prefill is still in flight holds KV
// no pass has computed yet, so a crash before the prefill lands hands it
// back without a checkpoint (its recovery recomputes).
func TestCheckpointSkipsInFlightRecompute(t *testing.T) {
	cfg := fastConfig(2)
	cfg.CheckpointInterval = 1e-5
	eng := sim.NewEngine()
	e, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartOnline(); err != nil {
		t.Fatal(err)
	}
	r := smallTrace(1, 23)[0]
	r.InputLen, r.OutputLen = 200, 64
	if _, err := e.SubmitRecovered(r, 20, 0); err != nil {
		t.Fatal(err)
	}
	// The start event launches the prefill; step until the first
	// checkpoint round has run or the prefill landed.
	eng.RunUntil(eng.Now())
	for e.inflight > 0 && eng.Now() < sim.Time(cfg.CheckpointInterval) {
		eng.RunUntil(eng.NextEventTime())
	}
	if e.inflight == 0 {
		t.Fatal("the recompute prefill landed before the first checkpoint round")
	}
	lost, err := e.Crash(eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 1 || lost[0].Generated != 20 {
		t.Fatalf("lost %+v, want the one recovered request at 20 tokens", lost)
	}
	if ck := lost[0].Ckpt; ck != nil {
		t.Fatalf("checkpoint of %d tokens at %d generated taken before the prefill landed", ck.KV.Tokens, ck.Generated)
	}
}

// A straggler engine (Slowdown > 1) finishes the same work, slower;
// Slowdown == 1 is bit-identical to nominal.
func TestSlowdownStretchesElapsed(t *testing.T) {
	reqs := smallTrace(60, 19)
	base, err := Run(fastConfig(2), reqs)
	if err != nil {
		t.Fatal(err)
	}
	one := fastConfig(2)
	one.Slowdown = 1
	same, err := Run(one, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if same.Report != base.Report {
		t.Errorf("Slowdown=1 changed the report:\n%+v\n%+v", same.Report, base.Report)
	}
	slow := fastConfig(2)
	slow.Slowdown = 1.5
	st, err := Run(slow, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Report.Requests != len(reqs) {
		t.Fatalf("straggler finished %d of %d", st.Report.Requests, len(reqs))
	}
	if st.Report.Elapsed <= base.Report.Elapsed {
		t.Fatalf("Slowdown=1.5 not slower: %v vs %v", st.Report.Elapsed, base.Report.Elapsed)
	}
}
