package runtime

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

func newTestCluster(t *testing.T, world int) *Cluster {
	t.Helper()
	eng := sim.NewEngine()
	c, err := NewCluster(eng, hw.L20, model.Tiny, world)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidates(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewCluster(eng, hw.L20, model.Tiny, 8); err == nil {
		t.Error("world > node GPUs accepted")
	}
	if _, err := NewCluster(eng, hw.L20, model.Tiny, 100); err == nil {
		t.Error("world > layers accepted")
	}
}

// Every pass kind must time each stage with its own cost-model call
// and forward its activation tokens over the link after every stage
// but the last: a lone pass's stage ends are the running sum of stage
// compute times and transfers, summed by hand in stage order.
func TestStageEndsMatchCostModel(t *testing.T) {
	const world = 3
	batch := costmodel.NewPrefillBatch([]int{96, 32})
	cases := []struct {
		name   string
		submit func(c *Cluster, done func(PassResult))
		stage  func(c *Cluster, st int) float64
		send   int
	}{
		{
			name:   "prefill",
			submit: func(c *Cluster, done func(PassResult)) { c.SubmitPrefill(batch, 0, done) },
			stage:  func(c *Cluster, st int) float64 { return c.Cost.PrefillStage(st, batch) },
			send:   128,
		},
		{
			name:   "decode",
			submit: func(c *Cluster, done func(PassResult)) { c.SubmitDecode(8, 960, 0, done) },
			stage:  func(c *Cluster, st int) float64 { return c.Cost.DecodeStage(st, 8, 960) },
			send:   8,
		},
		{
			name:   "hybrid",
			submit: func(c *Cluster, done func(PassResult)) { c.SubmitHybrid(4, 400, 32, 64, 0, done) },
			stage:  func(c *Cluster, st int) float64 { return c.Cost.HybridStage(st, 4, 400, 32, 64) },
			send:   36,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, world)
			var got []sim.Time
			var end sim.Time
			tc.submit(c, func(r PassResult) {
				got = append(got, r.StageEnds...) // copy: recycled after return
				end = r.End
			})
			c.Eng.Run()
			if len(got) != world {
				t.Fatalf("pass reported %d stage ends, want %d", len(got), world)
			}
			var at sim.Time
			for st := 0; st < world; st++ {
				if st > 0 {
					at += sim.Time(c.Cost.P2PActivation(tc.send))
				}
				at += sim.Time(tc.stage(c, st))
				if got[st] != at {
					t.Errorf("stage %d ended at %v, want %v", st, got[st], at)
				}
			}
			if end != at {
				t.Errorf("end = %v, want %v", end, at)
			}
		})
	}
}

// One stage's GPU is busy for exactly its cost-model compute time and
// forwards its activation tokens over the link to the next stage; the
// last stage has no link and forwards nothing.
func TestWorkerInitAndExec(t *testing.T) {
	c := newTestCluster(t, 2)
	batch := costmodel.NewPrefillBatch([]int{64})
	c.SubmitPrefill(batch, 0, nil)
	c.Eng.Run()
	dur := c.Cost.PrefillStage(0, batch)
	if dur <= 0 {
		t.Fatalf("stage 0 duration = %v", dur)
	}
	if got := c.GPUs[0].BusyTime(); got != dur {
		t.Errorf("gpu0 busy %v, want stage 0 compute %v", got, dur)
	}
	if got, want := c.Links[0].BusyTime(), c.Cost.P2PActivation(64); got != want {
		t.Errorf("link busy %v, want %v (stage 0 of 2 forwards 64 tokens)", got, want)
	}
	if len(c.Links) != 1 {
		t.Fatalf("%d links for 2 stages, want 1", len(c.Links))
	}
	// A decode step adds its batch's tokens on the one link and nothing
	// past the last stage.
	c.SubmitDecode(8, 80, c.Eng.Now(), nil)
	c.Eng.Run()
	if got, want := c.Links[0].BusyTime(), c.Cost.P2PActivation(64)+c.Cost.P2PActivation(8); got != want {
		t.Errorf("link busy %v, want %v after an 8-sequence decode step", got, want)
	}
}

// SubmitDecode times a decode step as the cost model's decode task:
// DecodeStage per stage plus one token per sequence on each link. A
// straggler slowdown scales every stage's compute but not the
// transfers.
func TestSubmitDecodeMatchesDecodeTask(t *testing.T) {
	for _, slow := range []float64{1, 2} {
		c := newTestCluster(t, 3)
		c.SetSlowdown(slow)
		var end sim.Time
		c.SubmitDecode(8, 960, 0, func(r PassResult) { end = r.End })
		c.Eng.Run()
		var want sim.Time
		for st := 0; st < 3; st++ {
			if st > 0 {
				want += sim.Time(c.Cost.P2PActivation(8))
			}
			want += sim.Time(c.Cost.DecodeStage(st, 8, 960) * slow)
		}
		if end != want || end <= 0 {
			t.Errorf("slowdown %v: SubmitDecode end %v, want decode task end %v", slow, end, want)
		}
	}
}

// A slowdown applies to the passes submitted after the call: a pass
// already in flight keeps the speed its stages were reserved at, even
// for stages its input has not reached yet.
func TestSlowdownAppliesToLaterSubmissions(t *testing.T) {
	c := newTestCluster(t, 3)
	end := func(start sim.Time, slow float64) sim.Time {
		at := start
		for st := 0; st < 3; st++ {
			if st > 0 {
				at += sim.Time(c.Cost.P2PActivation(8))
			}
			at += sim.Time(c.Cost.DecodeStage(st, 8, 960) * slow)
		}
		return at
	}
	var before, after PassResult
	c.SubmitDecode(8, 960, 0, func(r PassResult) { before = r })
	c.SetSlowdown(2)
	c.SubmitDecode(8, 960, 1, func(r PassResult) { after = r })
	c.Eng.Run()
	if want := end(0, 1); before.End != want {
		t.Errorf("pass submitted before SetSlowdown ended at %v, want nominal %v", before.End, want)
	}
	if want := end(1, 2); after.End != want {
		t.Errorf("pass submitted after SetSlowdown(2) ended at %v, want %v", after.End, want)
	}
}

// With asynchronous P2P a pass costs one kernel event, its completion,
// however deep the pipeline; a blocking-P2P pass adds one per stage hop.
func TestPassCostsOneEvent(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		c := newTestCluster(t, 4)
		c.BlockingP2P = blocking
		c.SubmitDecode(16, 1600, 0, nil)
		c.Eng.Run()
		want := uint64(1)
		if blocking {
			want = uint64(c.World())
		}
		if got := c.Eng.Steps(); got != want {
			t.Errorf("blocking %v: a 4-stage decode pass took %d kernel events, want %d", blocking, got, want)
		}
	}
}

func TestSubmitPassChainsStages(t *testing.T) {
	c := newTestCluster(t, 4)
	var res PassResult
	done := false
	c.SubmitPrefill(costmodel.NewPrefillBatch([]int{128}), 0, func(r PassResult) {
		res, done = r, true
	})
	c.Eng.Run()
	if !done {
		t.Fatal("pass never completed")
	}
	if res.Start != 0 {
		t.Errorf("start = %v", res.Start)
	}
	for st := 1; st < 4; st++ {
		if res.StageEnds[st] <= res.StageEnds[st-1] {
			t.Errorf("stage %d ended at %v, not after stage %d at %v",
				st, res.StageEnds[st], st-1, res.StageEnds[st-1])
		}
	}
	if res.End != res.StageEnds[3] {
		t.Errorf("end = %v, want %v", res.End, res.StageEnds[3])
	}
}

func TestBackToBackPassesOverlap(t *testing.T) {
	// Two prefill passes submitted together should overlap across
	// stages: pass B's stage 0 runs while pass A is on stage 1.
	c := newTestCluster(t, 2)
	batch := costmodel.NewPrefillBatch([]int{512})
	var a, b PassResult
	c.SubmitPrefill(batch, 0, func(r PassResult) { a = r })
	c.SubmitPrefill(batch, 0, func(r PassResult) { b = r })
	c.Eng.Run()
	if b.StageEnds[0] >= a.StageEnds[1] {
		t.Errorf("no overlap: B stage0 end %v, A stage1 end %v", b.StageEnds[0], a.StageEnds[1])
	}
	if b.End <= a.End {
		t.Errorf("pass order violated: B end %v <= A end %v", b.End, a.End)
	}
}

func TestAsyncP2PFreesGPUDuringTransfer(t *testing.T) {
	// The GPU must be free once its compute ends even though the
	// activation is still in flight on the link.
	c := newTestCluster(t, 2)
	var res PassResult
	c.SubmitPrefill(costmodel.NewPrefillBatch([]int{256}), 0, func(r PassResult) { res = r })
	c.Eng.Run()
	if got := c.GPUs[0].FreeAt(); got != res.StageEnds[0] {
		t.Errorf("gpu0 free at %v, want compute end %v (transfer must not block it)", got, res.StageEnds[0])
	}
	// Stage 1 starts strictly after the transfer.
	xfer := c.Cost.P2PActivation(256)
	wantStart := res.StageEnds[0] + sim.Time(xfer)
	gotStart := res.StageEnds[1] - sim.Time(c.Cost.PrefillStage(1, costmodel.NewPrefillBatch([]int{256})))
	if math.Abs(float64(gotStart-wantStart)) > 1e-12 {
		t.Errorf("stage 1 start = %v, want %v", gotStart, wantStart)
	}
}

func TestRecorderSeesBusyIntervals(t *testing.T) {
	c := newTestCluster(t, 2)
	c.SubmitDecode(16, 16*64, 0, nil)
	c.Eng.Run()
	for g := 0; g < 2; g++ {
		if len(c.Rec.Intervals(g)) != 1 {
			t.Errorf("gpu %d recorded %d intervals, want 1", g, len(c.Rec.Intervals(g)))
		}
	}
}

func TestDecodePassDependencyChaining(t *testing.T) {
	// Simulate two decode steps of the same batch: step 2 must not
	// begin stage 0 before step 1 completes the last stage (inter-
	// decode-step data dependency).
	c := newTestCluster(t, 2)
	var step1 PassResult
	var step2 PassResult
	c.SubmitDecode(8, 800, 0, func(r1 PassResult) {
		step1 = r1
		c.SubmitDecode(8, 808, r1.End, func(r2 PassResult) { step2 = r2 })
	})
	c.Eng.Run()
	if step2.Start < step1.End {
		t.Errorf("step 2 started at %v before step 1 ended at %v", step2.Start, step1.End)
	}
}

// A hybrid pass queues FIFO behind a decode pass on every GPU, and its
// link carries the decode tokens plus the prefill chunk.
func TestHybridPassFollowsDecodePass(t *testing.T) {
	c := newTestCluster(t, 2)
	var dec, hyb PassResult
	c.SubmitDecode(4, 400, 0, func(r PassResult) { dec = r })
	c.SubmitHybrid(4, 400, 32, 0, 0, func(r PassResult) { hyb = r })
	c.Eng.Run()
	if hyb.Start != dec.StageEnds[0] {
		t.Errorf("hybrid started at %v, want decode's stage-0 end %v", hyb.Start, dec.StageEnds[0])
	}
	if hyb.End <= dec.End {
		t.Errorf("hybrid ended at %v, not after decode at %v", hyb.End, dec.End)
	}
	want := c.Cost.P2PActivation(4) + c.Cost.P2PActivation(36)
	if got := c.Links[0].BusyTime(); got != want {
		t.Errorf("link busy %v, want %v (4 decode tokens, then 4+32)", got, want)
	}
}

// Interleaved pooled passes must not share result state: two
// overlapping passes completing at different times keep distinct
// StageEnds during their callbacks.
func TestPooledPassesDoNotAlias(t *testing.T) {
	c := newTestCluster(t, 2)
	type seen struct {
		start, end sim.Time
		stages     []sim.Time
	}
	var got []seen
	capture := func(r PassResult) {
		s := seen{start: r.Start, end: r.End}
		s.stages = append(s.stages, r.StageEnds...) // copy: recycled after return
		got = append(got, s)
	}
	for i := 0; i < 4; i++ {
		c.SubmitDecode(4+i, 400, 0, capture)
	}
	c.Eng.Run()
	if len(got) != 4 {
		t.Fatalf("completed %d of 4 passes", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].end <= got[i-1].end {
			t.Errorf("pass %d ended at %v, not after pass %d at %v", i, got[i].end, i-1, got[i-1].end)
		}
		if got[i].stages[1] != got[i].end {
			t.Errorf("pass %d stage end %v != end %v", i, got[i].stages[1], got[i].end)
		}
	}
}

// A steady-state pass (pooled pass state, recycled kernel events,
// callback bound once, busy time streamed and folded at each
// completion) allocates nothing: submission, every stage hop,
// completion and recording, for decode, prefill and hybrid passes
// alike. The count is read from the heap's malloc counter over 10,000
// passes, so amortized growth — a recorder's append doubling now and
// then — cannot be rounded away the way testing.AllocsPerRun's integer
// division rounds it to 0. Each subtest runs alone in a child process
// (runAllocPin), where that counter sees only its own loop.
func TestDecodePassDoesNotAllocate(t *testing.T) {
	prefill := costmodel.NewPrefillBatch([]int{128, 64, 300})
	for _, tc := range []struct {
		name   string
		submit func(c *Cluster, done func(PassResult))
	}{
		{"decode", func(c *Cluster, done func(PassResult)) { c.SubmitDecode(16, 1600, c.Eng.Now(), done) }},
		{"prefill", func(c *Cluster, done func(PassResult)) { c.SubmitPrefill(prefill, c.Eng.Now(), done) }},
		{"hybrid", func(c *Cluster, done func(PassResult)) { c.SubmitHybrid(16, 1600, 64, 256, c.Eng.Now(), done) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !runAllocPin(t) {
				return
			}
			c := newTestCluster(t, 4)
			c.Rec = *metrics.NewStreamingRecorder(c.World())
			steps := 0
			done := func(r PassResult) {
				steps++
				c.Rec.Fold(float64(r.End))
			}
			step := func() {
				tc.submit(c, done)
				c.Eng.Run()
			}
			for i := 0; i < 100; i++ {
				step() // fill the pass pool, the kernel's event arena and the recorder's tails
			}
			const passes = 10000
			n, stacks := mallocsIn(func() {
				for i := 0; i < passes; i++ {
					step()
				}
			})
			if n != 0 {
				t.Errorf("%d %s passes allocated %d times, want 0; allocating stacks:\n%s", passes, tc.name, n, stacks)
			} else if steps != 100+passes {
				t.Errorf("completed %d %s passes, want %d", steps, tc.name, 100+passes)
			}
		})
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
