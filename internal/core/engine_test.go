package core

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fastConfig is a small configuration that completes in milliseconds of
// wall time: Tiny model on the test node.
func fastConfig(world int) Config {
	cfg := DefaultConfig(hw.L20, model.Tiny, world)
	cfg.ReserveGB = 0
	cfg.MaxPrefillTokens = 512
	cfg.PeakProfileBatch = 128
	return cfg
}

func smallTrace(n int, seed int64) []workload.Request {
	cfg := workload.DefaultConfig(n, seed)
	cfg.MaxInputLen = 255
	cfg.MaxOutputLen = 128
	cfg.InputLogMean = 4.0
	return workload.MustGenerate(cfg)
}

func TestEngineValidatesConfig(t *testing.T) {
	bad := fastConfig(0)
	if _, err := NewEngine(sim.NewEngine(), bad); err == nil {
		t.Error("world=0 accepted")
	}
	bad = fastConfig(2)
	bad.Predictor = nil
	if _, err := NewEngine(sim.NewEngine(), bad); err == nil {
		t.Error("nil predictor accepted")
	}
}

func TestEngineReportsOOMForOversizedModel(t *testing.T) {
	// 70B on a single L20 (48 GB) cannot even hold weights.
	cfg := DefaultConfig(hw.L20, model.Llama2_70B, 1)
	if _, err := NewEngine(sim.NewEngine(), cfg); err == nil {
		t.Error("70B on one L20 did not report OOM")
	}
}

func TestEngineCompletesAllRequests(t *testing.T) {
	reqs := smallTrace(120, 3)
	res, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Requests != 120 {
		t.Errorf("requests = %d", rep.Requests)
	}
	wantOut := 0
	for _, r := range reqs {
		wantOut += r.OutputLen
	}
	if rep.OutputTokens != wantOut {
		t.Errorf("output tokens = %d, want %d (every request fully decoded)", rep.OutputTokens, wantOut)
	}
	if rep.Elapsed <= 0 {
		t.Errorf("elapsed = %v", rep.Elapsed)
	}
	for id, rec := range res.Records {
		if rec.Finish <= 0 {
			t.Fatalf("request %d has no finish time", id)
		}
	}
}

func TestEngineDeterministic(t *testing.T) {
	reqs := smallTrace(80, 5)
	a, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Elapsed != b.Report.Elapsed || a.Report.PhaseSwitches != b.Report.PhaseSwitches {
		t.Errorf("runs differ: %+v vs %+v", a.Report, b.Report)
	}
	for i := range a.Records {
		if a.Records[i].Finish != b.Records[i].Finish {
			t.Fatalf("finish time of %d differs", i)
		}
	}
}

func TestEngineRejectsNonDenseIDs(t *testing.T) {
	reqs := smallTrace(10, 1)
	reqs[3].ID = 99
	if _, err := Run(fastConfig(2), reqs); err == nil {
		t.Error("non-dense IDs accepted")
	}
}

func TestEngineEmptyTrace(t *testing.T) {
	res, err := Run(fastConfig(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != 0 || res.Report.Elapsed != 0 {
		t.Errorf("empty run report = %+v", res.Report)
	}
}

func TestEngineSingleRequest(t *testing.T) {
	reqs := smallTrace(1, 9)
	res, err := Run(fastConfig(2), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OutputTokens != reqs[0].OutputLen {
		t.Errorf("output = %d, want %d", res.Report.OutputTokens, reqs[0].OutputLen)
	}
}

func TestEngineSingleGPU(t *testing.T) {
	reqs := smallTrace(40, 11)
	res, err := Run(fastConfig(1), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != 40 {
		t.Errorf("report = %+v", res.Report)
	}
}

func TestEngineOutputLenOneFinishesAtPrefill(t *testing.T) {
	reqs := smallTrace(8, 13)
	for i := range reqs {
		reqs[i].OutputLen = 1
	}
	res, err := Run(fastConfig(2), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OutputTokens != 8 {
		t.Errorf("output tokens = %d, want 8", res.Report.OutputTokens)
	}
}

func TestEnginePhasesAlternate(t *testing.T) {
	cfg := fastConfig(4)
	cfg.RecordKV = true
	// Constrain memory so multiple phase cycles are needed.
	cfg.MemUtilization = 0.0001
	reqs := smallTrace(300, 17)
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.PhaseSwitches < 2 {
		t.Errorf("phase switches = %d, want alternation", res.Report.PhaseSwitches)
	}
	if res.KV == nil || len(res.KV.Points) == 0 {
		t.Fatal("KV timeline not recorded")
	}
	if res.KV.Peak() <= 0 || res.KV.Peak() > 1.0 {
		t.Errorf("KV peak = %v", res.KV.Peak())
	}
}

// Fig.-12 dynamics: usage grows during prefill phases and declines over
// decode phases as requests finish.
func TestKVTimelineShape(t *testing.T) {
	cfg := fastConfig(4)
	cfg.RecordKV = true
	cfg.MemUtilization = 0.0001
	reqs := smallTrace(400, 19)
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.KV.Points
	// Usage must reach a high watermark and come back down to ~0.
	if res.KV.Peak() < 0.5 {
		t.Errorf("peak usage = %v, memory never filled", res.KV.Peak())
	}
	last := pts[len(pts)-1]
	if last.Usage > 0.2 {
		t.Errorf("final usage = %v, cache not drained", last.Usage)
	}
}

func TestEngineWithRealisticModelAndPredictor(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full A100+70B run")
	}
	cfg := DefaultConfig(hw.A100, model.Llama2_70B, 4)
	reqs := workload.MustGenerate(workload.DefaultConfig(1500, 23))
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MeanUtilization < 0.5 {
		t.Errorf("utilization = %v, TD-Pipe should keep the pipeline busy", res.Report.MeanUtilization)
	}
	if tp := res.Report.OutputThroughput(); tp < 400 || tp > 50000 {
		t.Errorf("throughput = %.0f tokens/s, implausible", tp)
	}
	t.Logf("report: %v", res.Report)
}

func TestWorkStealingImprovesOrMatchesThroughput(t *testing.T) {
	reqs := smallTrace(300, 29)
	with := fastConfig(4)
	without := fastConfig(4)
	without.DisableWorkStealing = true
	a, err := Run(with, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(without, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Allow a tiny tolerance: stealing must not hurt materially.
	if a.Report.Elapsed > b.Report.Elapsed*1.05 {
		t.Errorf("stealing slowed the run: with=%.3fs without=%.3fs", a.Report.Elapsed, b.Report.Elapsed)
	}
}

func TestFixedRatioAblationModesRun(t *testing.T) {
	reqs := smallTrace(150, 31)
	for _, ratio := range []float64{0.35, 0.95} {
		cfg := fastConfig(4)
		cfg.FixedPrefillSwitchRatio = ratio
		if _, err := Run(cfg, reqs); err != nil {
			t.Errorf("prefill ratio %v failed: %v", ratio, err)
		}
	}
	for _, ratio := range []float64{0.05, 0.80} {
		cfg := fastConfig(4)
		cfg.FixedDecodeSwitchRatio = ratio
		if _, err := Run(cfg, reqs); err != nil {
			t.Errorf("decode ratio %v failed: %v", ratio, err)
		}
	}
}

func TestPredictorsPluggable(t *testing.T) {
	reqs := smallTrace(60, 37)
	for _, p := range []LenPredictor{OraclePredictor{}, ConstPredictor(64)} {
		cfg := fastConfig(2)
		cfg.Predictor = p
		if _, err := Run(cfg, reqs); err != nil {
			t.Errorf("predictor %T failed: %v", p, err)
		}
	}
	if (ConstPredictor(5)).PredictLen(workload.Request{}) != 5 {
		t.Error("ConstPredictor wrong")
	}
	if (OraclePredictor{}).PredictLen(workload.Request{OutputLen: 9}) != 9 {
		t.Error("OraclePredictor wrong")
	}
}

// Underprediction stress: a predictor that always says "1 token" admits
// far too much; the engine must survive via recompute-eviction and
// still finish every request.
func TestRecomputeUnderMisprediction(t *testing.T) {
	cfg := fastConfig(4)
	cfg.Predictor = ConstPredictor(1)
	cfg.MemUtilization = 0.0001
	reqs := smallTrace(250, 41)
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := 0
	for _, r := range reqs {
		wantOut += r.OutputLen
	}
	if res.Report.OutputTokens != wantOut {
		t.Errorf("output = %d, want %d despite evictions", res.Report.OutputTokens, wantOut)
	}
	t.Logf("recomputes under misprediction: %d", res.Report.Recomputes)
}

// A request evicted from a decode batch in flight keeps a dead entry
// there until the batch's pass returns; if a prefill re-admits it
// meanwhile, its recompute holds KV like any new admission. An OOM in
// that batch spares the batch's live members only, so the re-admitted
// request, the most recent admission, is the victim rather than an
// older one.
func TestOOMDoesNotSpareDeadBatchEntries(t *testing.T) {
	e := midDecodeEngine(t, detConfig(2), smallTrace(2000, 5), 1)
	slot := -1
	for s, b := range e.batches {
		if len(b) >= 2 {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Fatal("no decode batch holds two requests")
	}
	x := e.batches[slot][1].id
	// Another slot's OOM evicts x; the waiting queue is then x, older.
	e.requeue(x, true)
	e.markEvicted()
	older := e.waiting.At(1)
	// The older request takes every free block but those x's recompute
	// prefill needs, then x is re-admitted: the pool is full.
	need := e.kv.BlocksFor(e.states[x].prefillLen)
	if free := e.kv.FreeBlocks(); free <= need {
		t.Fatalf("%d free blocks, x's recompute needs %d", free, need)
	}
	if _, err := e.kv.Allocate(older, (e.kv.FreeBlocks()-need)*e.kv.BlockSize(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.kv.Allocate(x, e.states[x].prefillLen, 0, 0); err != nil {
		t.Fatal(err)
	}
	if free := e.kv.FreeBlocks(); free != 0 {
		t.Fatalf("%d blocks still free", free)
	}
	// The slot's first entry appends a token that opens a block.
	d := &e.batches[slot][0]
	d.ctx = e.kv.BlocksFor(d.ctx)*e.kv.BlockSize() + 1
	e.handleOOM(d, slot)
	if e.kv.Has(x) || !e.kv.Has(older) {
		t.Fatalf("OOM evicted the older request %d (holds KV: %v) instead of re-admitted %d (holds KV: %v)",
			older, e.kv.Has(older), x, e.kv.Has(x))
	}
	if !e.kv.Has(d.id) || d.evicted {
		t.Fatalf("growing request %d lost its KV", d.id)
	}
}

// Two requests of one batch finish in the same decode step ahead of a
// survivor whose new block hits a full pool. The slot compacts in place,
// so when the OOM runs the slot still holds an old copy of the second
// finished request, whose state is gone; the eviction must pass over it.
// The survivor keeps its KV, one other request is evicted, and the
// step checks still hold after the pass.
func TestOOMAfterTwoFinishesInOneStep(t *testing.T) {
	e := midDecodeEngine(t, detConfig(1), smallTrace(2000, 5), 1)
	b := e.batches[0]
	if len(b) < 3 {
		t.Fatalf("the decode batch holds %d requests, want 3", len(b))
	}
	// The slot's third entry outlives the step and its next token opens
	// a block.
	for i := range b {
		if b[i].room == 0 && b[i].outputLen-b[i].generated >= 2 {
			b[2], b[i] = b[i], b[2]
			break
		}
	}
	if b[2].room != 0 || b[2].outputLen-b[2].generated < 2 {
		t.Fatal("no request of the batch opens a block this step and outlives it")
	}
	a, fin, c := b[0].id, b[1].id, b[2].id
	b[0].generated = b[0].outputLen - 1
	b[1].generated = b[1].outputLen - 1
	// Once fin has finished and freed its blocks, the waiting head is
	// admitted and takes every free block, as survivors between fin and
	// c could: c's next token finds the pool full.
	w := e.waiting.PopFront()
	e.SetOnFinish(func(id int) {
		if id != fin {
			return
		}
		if _, err := e.kv.Allocate(w, e.kv.FreeBlocks()*e.kv.BlockSize(), 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	// Apply the slot's pass, the only event in flight.
	recomputes := e.recomputes
	e.eng.RunUntil(e.eng.NextEventTime())
	e.SetOnFinish(nil)
	if e.states[a] != nil || e.states[fin] != nil {
		t.Fatalf("finished requests %d and %d still hold state", a, fin)
	}
	if !e.kv.Has(c) || e.states[c] == nil || e.states[c].evicted {
		t.Fatalf("growing request %d lost its KV", c)
	}
	if e.recomputes != recomputes+1 {
		t.Fatalf("the full pool evicted %d requests, want 1", e.recomputes-recomputes)
	}
	if e.fatalErr != nil {
		t.Fatal(e.fatalErr)
	}
}

func TestEngineCannotRunTwice(t *testing.T) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(smallTrace(5, 43)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(smallTrace(5, 43)); err == nil {
		t.Error("second Run accepted")
	}
}

func TestCapacityTokens(t *testing.T) {
	cfg := DefaultConfig(hw.A100, model.Llama2_70B, 4)
	capTok, err := KVCapacityTokens(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ~37 GB usable per stage / ~81.9 KB per token per stage -> ~450k.
	if capTok < 100000 || capTok > 2000000 {
		t.Errorf("capacity = %d tokens, implausible", capTok)
	}
	if _, err := KVCapacityTokens(DefaultConfig(hw.L20, model.Llama2_70B, 2)); err == nil {
		t.Error("70B on 2x L20 did not OOM")
	}
}

func TestUtilizationWithinBounds(t *testing.T) {
	reqs := smallTrace(100, 47)
	res, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	u := res.Report.MeanUtilization
	if u <= 0 || u > 1 || math.IsNaN(u) {
		t.Errorf("utilization = %v", u)
	}
	if math.Abs(res.Report.BubbleRatio-(1-u)) > 1e-12 {
		t.Errorf("bubble ratio inconsistent: %v vs 1-%v", res.Report.BubbleRatio, u)
	}
}
