package core

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestMain makes every decode step of every test in this package
// cross-check the engine's running resident counters against a recount
// and the KV pool against core's token counts, so the deep-queue,
// crash, checkpoint, hand-off and prefix suites all exercise them.
// Benchmark runs keep the production path, so their timings stay
// comparable across commits.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.bench"); f == nil || f.Value.String() == "" {
		stepCheck = func(e *Engine) {
			checkResidentCounters(e)
			checkKVOwnership(e)
		}
	}
	os.Exit(m.Run())
}

// recountResident sums the live (neither done nor evicted) requests in
// the decode plane — every batch, the stealer's stash, the decode pool
// and the staged imports — and their cached tokens: what the running
// counters resident and residentTokens must always equal.
func recountResident(e *Engine) (n, kvTokens int) {
	e.forResident(func(_, ctx, _ int) {
		n++
		kvTokens += ctx
	})
	return n, kvTokens
}

// checkResidentCounters parks the engine with an error when the running
// counters drift from the recount.
func checkResidentCounters(e *Engine) {
	if e.fatalErr != nil {
		return
	}
	if n, tok := recountResident(e); n != e.resident || tok != e.residentTokens {
		e.fail(fmt.Errorf("core: resident counters %d requests / %d tokens, recount %d / %d at step %d",
			e.resident, e.residentTokens, n, tok, e.step))
	}
}

// checkKVOwnership parks the engine with an error when the KV pool and
// core disagree about a resident request. Core's ctx is the one count
// of a request's cached tokens: its input plus every generated token
// but the last, which needs no slot. The pool must hold exactly
// BlocksFor(ctx) blocks for it, and a snapshot must carry ctx. A
// periodic checkpoint is taken only in the decode plane, so it carries
// input+generated-1 tokens of the instant it was taken.
func checkKVOwnership(e *Engine) {
	if e.fatalErr != nil {
		return
	}
	e.forResident(func(id, ctx, generated int) {
		st := e.states[id]
		if ctx != st.req.InputLen+generated-1 {
			e.fail(fmt.Errorf("core: request %d caches %d tokens with %d input and %d generated", id, ctx, st.req.InputLen, generated))
			return
		}
		ex, err := e.kv.SnapshotKV(id, ctx)
		switch {
		case err != nil:
			e.fail(fmt.Errorf("core: resident request %d: %w", id, err))
		case ex.Tokens != ctx:
			e.fail(fmt.Errorf("core: snapshot of request %d carries %d tokens, core counts %d", id, ex.Tokens, ctx))
		case ex.PrivateBlocks != e.kv.BlocksFor(ctx)-ex.SharedBlocks:
			e.fail(fmt.Errorf("core: request %d holds %d private + %d shared blocks for %d tokens", id, ex.PrivateBlocks, ex.SharedBlocks, ctx))
		}
		if ck := st.ckpt; ck != nil && (ck.KV.Blocks() != e.kv.BlocksFor(ck.KV.Tokens) ||
			ck.KV.Tokens-ck.Generated != st.req.InputLen-1) {
			e.fail(fmt.Errorf("core: checkpoint of request %d carries %d tokens in %d blocks at %d generated", id, ck.KV.Tokens, ck.KV.Blocks(), ck.Generated))
		}
	})
}

// The ownership check bites: a request whose token count moves without
// its KV fails the run through Finalize.
func TestKVOwnershipDriftFailsRun(t *testing.T) {
	defer func(prev func(*Engine)) { stepCheck = prev }(stepCheck)
	steps := 0
	stepCheck = func(e *Engine) {
		if steps++; steps == 50 {
			for _, b := range e.batches {
				if len(b) > 0 {
					b[0].generated++
					break
				}
			}
		}
		checkKVOwnership(e)
	}
	_, err := Run(detConfig(4), smallTrace(200, 3))
	if err == nil || !strings.Contains(err.Error(), "caches") {
		t.Fatalf("drifted count not caught: %v", err)
	}
}

// The cross-check bites: a counter that drifts by one token mid-run
// fails the run through Finalize.
func TestResidentCounterDriftFailsRun(t *testing.T) {
	defer func(prev func(*Engine)) { stepCheck = prev }(stepCheck)
	steps := 0
	stepCheck = func(e *Engine) {
		if steps++; steps == 50 {
			e.residentTokens++
		}
		checkResidentCounters(e)
	}
	_, err := Run(detConfig(4), smallTrace(200, 3))
	if err == nil || !strings.Contains(err.Error(), "resident counters") {
		t.Fatalf("drifted counter not caught: %v", err)
	}
}

// An engine whose busy time was folded past the instant it finished
// cannot clip the folded intervals back: the run fails with the named
// error instead of reporting a wrong utilization.
func TestFoldPastDoneAtFailsRun(t *testing.T) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(smallTrace(40, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	e.cluster.Rec.Fold(float64(e.doneAt) + 1)
	if _, err := e.Finalize(); !errors.Is(err, metrics.ErrFoldedPastEnd) {
		t.Fatalf("Finalize = %v, want ErrFoldedPastEnd", err)
	}
}

// Streaming and keeping busy time report the same utilization, bit for
// bit, and only the keeping run returns its intervals.
func TestRecordBusyKeepsUtilization(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(300, 8), workload.Poisson{Rate: 40}, 9)
	for _, cfg := range []Config{fastConfig(2), detConfig(4)} {
		streamed, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RecordBusy = true
		kept, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if streamed.Report != kept.Report {
			t.Errorf("reports differ:\nstreamed %+v\nkept     %+v", streamed.Report, kept.Report)
		}
		if streamed.Rec != nil || kept.Rec == nil {
			t.Errorf("Rec streamed=%v kept=%v, want nil and non-nil", streamed.Rec, kept.Rec)
		}
	}
}

// A steady-state decode step — onDecodeDone, the pass through every
// stage, submitDecode — allocates nothing with busy time streamed. The
// count is read from the heap's malloc counter over 10,000 steps, so
// amortized growth that testing.AllocsPerRun's integer division would
// round away still fails the test. The pin runs alone in a child
// process (runAllocPin), where that counter sees only its own loop.
func TestDecodeStepDoesNotAllocate(t *testing.T) {
	if !runAllocPin(t) {
		return
	}
	cfg := fastConfig(4)
	reqs := smallTrace(16, 4)
	for i := range reqs {
		reqs[i].OutputLen = 20000
	}
	eng := sim.NewEngine()
	e, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(reqs); err != nil {
		t.Fatal(err)
	}
	// Run until all 16 requests decode together with nothing waiting,
	// then warm the pools a little further.
	for e.phase != metrics.PhaseDecode || e.activeBatches == 0 || e.waiting.Len() > 0 || e.step < 100 {
		if eng.Pending() == 0 {
			t.Fatal("trace drained before a steady decode phase")
		}
		eng.RunUntil(eng.NextEventTime())
	}
	const steps = 10000
	loop := func() {
		for to := e.step + steps; e.step < to; {
			eng.RunUntil(eng.NextEventTime())
		}
	}
	// A count above zero reruns the loop; 20,000 output tokens keep
	// every request resident through both runs.
	n, stacks := mallocsIn(loop)
	if e.resident != len(reqs) || e.finished != 0 {
		t.Fatalf("left steady state: %d resident, %d finished", e.resident, e.finished)
	}
	if n != 0 {
		t.Errorf("%d decode steps allocated %d times, want 0; allocating stacks:\n%s", steps, n, stacks)
	}
}

// allocPinEnv marks a child process that runs one allocation pin.
const allocPinEnv = "TDPIPE_ALLOC_PIN"

// runAllocPin runs the calling test or subtest alone in a child
// process, the test binary re-run with -test.run set to it, so the process-wide
// malloc counter the pin reads counts only the pin's own loop: no other
// test's leftover goroutines or finalizers run beside it. In the child
// it returns true and the pin runs; in the parent it reports the
// child's failure, with its output, and returns false.
func runAllocPin(t *testing.T) bool {
	if os.Getenv(allocPinEnv) == t.Name() {
		return true
	}
	run := "^" + strings.ReplaceAll(t.Name(), "/", "$/^") + "$"
	cmd := exec.Command(os.Args[0], "-test.run", run, "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), allocPinEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: "+t.Name()+" ") {
		t.Errorf("%s in a child process: %v\n%s", t.Name(), err, out)
	}
	return false
}

// mallocsIn runs loop and returns how many allocations the process made
// meanwhile. When there were any, it runs loop again with every
// allocation sampled, and nothing sampled outside it, and also returns
// each allocating stack whose count grew across the second run.
func mallocsIn(loop func()) (uint64, string) {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	loop()
	goruntime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	if n == 0 {
		return 0, ""
	}
	defer func(rate int) { goruntime.MemProfileRate = rate }(goruntime.MemProfileRate)
	goruntime.MemProfileRate = 0
	base := allocsByStack()
	goruntime.MemProfileRate = 1
	loop()
	goruntime.MemProfileRate = 0
	grown := allocsByStack()
	var stacks []string
	for stack, count := range grown {
		if count > base[stack] {
			stacks = append(stacks, fmt.Sprintf("%d allocations at\n%s", count-base[stack], stack))
		}
	}
	sort.Strings(stacks)
	return n, strings.Join(stacks, "")
}

// allocsByStack reads the heap profile after two collections, which
// publish every allocation made before them, and sums allocated objects
// per call stack, rendered one frame a line.
func allocsByStack() map[string]int64 {
	goruntime.GC()
	goruntime.GC()
	var recs []goruntime.MemProfileRecord
	for n, _ := goruntime.MemProfile(nil, true); ; n += 16 {
		recs = make([]goruntime.MemProfileRecord, n)
		var ok bool
		if n, ok = goruntime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	counts := map[string]int64{}
	for _, r := range recs {
		var sb strings.Builder
		frames := goruntime.CallersFrames(r.Stack())
		for f, more := frames.Next(); ; f, more = frames.Next() {
			fmt.Fprintf(&sb, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
			if !more {
				break
			}
		}
		counts[sb.String()] += r.AllocObjects
	}
	return counts
}
