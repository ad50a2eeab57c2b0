package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func runDisagg(t *testing.T, cfg core.Config, dc DisaggConfig, reqs []workload.Request) *DisaggResult {
	t.Helper()
	res, err := RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDisaggValidatesPools(t *testing.T) {
	reqs := smallTrace(10, 1)
	for _, dc := range []DisaggConfig{{PrefillReplicas: 0, DecodeReplicas: 2}, {PrefillReplicas: 2, DecodeReplicas: 0}, {PrefillReplicas: -1, DecodeReplicas: 1}} {
		if _, err := RunDisagg(fastConfig(2), dc, reqs); err == nil {
			t.Errorf("pools %+v accepted", dc)
		}
	}
}

// Every request must be prefilled once, decoded at most once, and
// finish with its full output; records must span the whole lifecycle.
func TestDisaggConservation(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(300, 21), workload.Poisson{Rate: 250}, 9)
	res := runDisagg(t, fastConfig(2), DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2}, reqs)

	if res.Report.Requests != len(reqs) {
		t.Fatalf("report covers %d of %d requests", res.Report.Requests, len(reqs))
	}
	if res.Handoffs == 0 {
		t.Fatal("no hand-offs on a multi-token trace")
	}
	if res.TransferredBytes <= 0 {
		t.Errorf("TransferredBytes = %v with %d hand-offs", res.TransferredBytes, res.Handoffs)
	}
	wantOut := 0
	for i, r := range reqs {
		rec := res.Records[i]
		if rec.ID != i {
			t.Fatalf("record %d has ID %d", i, rec.ID)
		}
		if rec.OutputTokens != r.OutputLen {
			t.Errorf("request %d generated %d of %d tokens", i, rec.OutputTokens, r.OutputLen)
		}
		if rec.Arrival != r.ArrivalTime {
			t.Errorf("request %d record arrival %v, trace %v", i, rec.Arrival, r.ArrivalTime)
		}
		if rec.FirstToken < rec.Arrival || rec.Finish < rec.FirstToken {
			t.Errorf("request %d has non-monotone lifecycle %+v", i, rec)
		}
		wantOut += r.OutputLen
	}
	if res.Report.OutputTokens != wantOut {
		t.Errorf("report output tokens %d, want %d", res.Report.OutputTokens, wantOut)
	}
	// Single-token outputs finish at the prefill pool; everything else
	// must appear in exactly one decode shard (checkConservation has
	// already verified multiplicity, this pins the split).
	multi := 0
	for _, r := range reqs {
		if r.OutputLen > 1 {
			multi++
		}
	}
	if res.Handoffs != multi {
		t.Errorf("%d hand-offs for %d multi-token requests", res.Handoffs, multi)
	}
}

// The co-simulated hand-off pipeline must be deterministic:
// byte-identical reports run-to-run.
func TestDisaggReportByteIdenticalAcrossRuns(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(300, 22), workload.Poisson{Rate: 300}, 11)
	run := func() []byte {
		res := runDisagg(t, fastConfig(2), DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 3}, reqs)
		b, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("disagg reports differ across identical runs:\n%s\n%s", a, b)
	}
}

// Under a starved decode pool, transfers must queue for KV headroom
// (overlapping the wait) and still drain to completion.
func TestDisaggQueuesHandoffsUnderMemoryPressure(t *testing.T) {
	cfg := fastConfig(2)
	cfg.MemUtilization = 0.0002 // a few hundred KV tokens per replica
	reqs := workload.StampArrivals(smallTrace(200, 23), workload.Poisson{Rate: 500}, 13)
	res := runDisagg(t, cfg, DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 1}, reqs)
	if res.QueuedHandoffs == 0 {
		t.Fatal("memory pressure did not force hand-off queueing")
	}
	for i, r := range reqs {
		if res.Records[i].OutputTokens != r.OutputLen {
			t.Fatalf("request %d incomplete after queued hand-off", i)
		}
	}
}

// A decode replica that already holds the hand-off's shared prefix
// chain should attract same-group requests (the warm-KV signal).
func TestDisaggPrefixAffinityOnDecodePool(t *testing.T) {
	reqs, err := workload.StampPrefixes(smallTrace(200, 24), workload.PrefixConfig{
		Groups: 4, PrefixLen: 96, Turns: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs = workload.StampArrivals(reqs, workload.Poisson{Rate: 200}, 15)
	res := runDisagg(t, fastConfig(2), DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 3}, reqs)
	if res.Report.PrefixCachedTokens == 0 {
		t.Error("no prefix reuse on a prefix-structured disaggregated trace")
	}
}
