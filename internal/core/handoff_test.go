package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// A prefill engine wired straight into a decode engine (zero-delay
// transfer) must complete every multi-token request on the decode
// side, preserving arrival and first-token instants across the
// hand-off.
func TestEngineHandoffLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	cfg := fastConfig(2)
	pre, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.StartOnline(); err != nil {
		t.Fatal(err)
	}

	reqs := workload.StampArrivals(smallTrace(120, 31), workload.Poisson{Rate: 300}, 3)
	handoffs := 0
	pre.SetHandoff(func(h Handoff) {
		handoffs++
		if h.Generated < 1 {
			t.Fatalf("hand-off before any output token: %+v", h)
		}
		// The export carries the prefill engine's count: the prefilled
		// prompt, whose last position produced the first token.
		if h.KV.Tokens != h.Req.InputLen+h.Generated-1 || h.KV.Blocks() != pre.kv.BlocksFor(h.KV.Tokens) {
			t.Fatalf("hand-off of %d input tokens carries %d tokens in %d blocks: %+v", h.Req.InputLen, h.KV.Tokens, h.KV.Blocks(), h)
		}
		if !dec.CanImportKV(h.KV) {
			t.Fatalf("decode engine cannot import %d blocks", h.KV.Blocks())
		}
		// Map back through the prefill engine's dense ids: the trace
		// request is h.Req with its original arrival.
		if _, err := dec.SubmitDecoded(h.Req, h); err != nil {
			t.Fatal(err)
		}
	})
	if err := pre.Start(reqs); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	preRes, err := pre.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	decRes, err := dec.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	multi := 0
	for _, r := range reqs {
		if r.OutputLen > 1 {
			multi++
		}
	}
	if handoffs != multi {
		t.Errorf("%d hand-offs for %d multi-token requests", handoffs, multi)
	}
	if got := decRes.Report.Requests; got != multi {
		t.Errorf("decode engine completed %d requests, want %d", got, multi)
	}
	// Decode-side records must span the whole lifecycle: original
	// arrival, prefill-side first token, full output.
	for _, rec := range decRes.Records {
		if !rec.Finished() {
			t.Errorf("unfinished decode record %+v", rec)
		}
		if rec.FirstToken < rec.Arrival {
			t.Errorf("first token %v before arrival %v", rec.FirstToken, rec.Arrival)
		}
		if rec.OutputTokens < 2 {
			t.Errorf("decode record with %d tokens (single-token outputs stay at prefill)", rec.OutputTokens)
		}
	}
	// Token conservation across the pools.
	wantOut := 0
	for _, r := range reqs {
		wantOut += r.OutputLen
	}
	gotOut := decRes.Report.OutputTokens
	for _, r := range reqs {
		if r.OutputLen == 1 {
			gotOut++ // finished at the prefill engine
		}
	}
	if gotOut != wantOut {
		t.Errorf("output tokens %d, want %d", gotOut, wantOut)
	}
	// The prefill engine retired everything (hand-off counts as local
	// completion) and never entered a decode phase.
	if preRes.Report.Requests != len(reqs) {
		t.Errorf("prefill engine retired %d of %d", preRes.Report.Requests, len(reqs))
	}
	if preRes.Report.PhaseSwitches != 0 {
		t.Errorf("prefill server switched phases %d times", preRes.Report.PhaseSwitches)
	}
}

// SubmitDecoded on an idle decode engine must start a decode phase by
// itself, and staged imports must be injected into the running batch
// at step boundaries (continuous batching), not parked until the
// phase drains.
func TestSubmitDecodedContinuousBatching(t *testing.T) {
	eng := sim.NewEngine()
	cfg := fastConfig(2)
	src, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewEngine(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.StartOnline(); err != nil {
		t.Fatal(err)
	}

	// Long-output requests arriving in a staggered stream: if imports
	// waited for the phase to drain, the makespan would be nearly
	// serial in the number of requests.
	reqs := make([]workload.Request, 8)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: i, InputLen: 64, OutputLen: 200,
			ArrivalTime: float64(i) * 0.01,
		}
	}
	src.SetHandoff(func(h Handoff) {
		if _, err := dec.SubmitDecoded(h.Req, h); err != nil {
			t.Fatal(err)
		}
	})
	if err := src.Start(reqs); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, err := src.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := dec.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != len(reqs) {
		t.Fatalf("decoded %d of %d", res.Report.Requests, len(reqs))
	}
	// Continuous batching bound: with all requests joining one running
	// batch, the makespan is close to one request's decode time, far
	// below the serial sum. Allow 3x one request's span for join
	// skew; serial would be ~8x.
	var minSpan, maxFinish float64
	for i, rec := range res.Records {
		span := rec.Finish - rec.FirstToken
		if i == 0 || span < minSpan {
			minSpan = span
		}
		if rec.Finish > maxFinish {
			maxFinish = rec.Finish
		}
	}
	if maxFinish > 3*minSpan {
		t.Errorf("makespan %v vs fastest decode span %v: imports not batched continuously", maxFinish, minSpan)
	}
}
