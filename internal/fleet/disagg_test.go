package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// Every bad mix of fleet shapes, policies and stacks is rejected with
// its named error before any engine is built.
func TestServeConfigValidate(t *testing.T) {
	lw := mustPolicy(t, LeastWork, Options{})
	cases := []struct {
		name string
		sc   ServeConfig
		want error
	}{
		{"colocated", ServeConfig{Replicas: 2, Policy: lw}, nil},
		{"split", ServeConfig{PrefillReplicas: 1, DecodeReplicas: 2}, nil},
		{"split with empty stack", ServeConfig{PrefillReplicas: 1, DecodeReplicas: 2, Stack: &policy.Stack{}}, nil},
		{"split with breakers and autoscaler", ServeConfig{PrefillReplicas: 1, DecodeReplicas: 4,
			Stack: &policy.Stack{Breaker: &policy.BreakerConfig{}, Autoscaler: decodeScalerStack(t, 4).Autoscaler}}, nil},
		{"both shapes", ServeConfig{Replicas: 2, PrefillReplicas: 1, DecodeReplicas: 1}, ErrShapeConflict},
		{"both shapes with policy", ServeConfig{Replicas: 2, Policy: lw, DecodeReplicas: 1}, ErrShapeConflict},
		{"no replicas", ServeConfig{Policy: lw}, ErrPoolSize},
		{"negative replicas", ServeConfig{Replicas: -1, Policy: lw}, ErrPoolSize},
		{"no prefill pool", ServeConfig{PrefillReplicas: 0, DecodeReplicas: 2}, ErrPoolSize},
		{"no decode pool", ServeConfig{PrefillReplicas: 2, DecodeReplicas: 0}, ErrPoolSize},
		{"negative prefill pool", ServeConfig{PrefillReplicas: -1, DecodeReplicas: 1}, ErrPoolSize},
		{"nil policy", ServeConfig{Replicas: 2}, ErrNilPolicy},
		{"policy on a split", ServeConfig{PrefillReplicas: 1, DecodeReplicas: 1, Policy: lw}, ErrSplitPolicy},
		{"admission on a split", ServeConfig{PrefillReplicas: 1, DecodeReplicas: 1,
			Stack: &policy.Stack{Admission: policy.NewTokenBucket(1, 1)}}, ErrSplitStack},
		{"retry on a split", ServeConfig{PrefillReplicas: 1, DecodeReplicas: 1,
			Stack: &policy.Stack{Retry: policy.NewBackoff(policy.BackoffConfig{})}}, ErrSplitStack},
		{"preemption on a split", ServeConfig{PrefillReplicas: 1, DecodeReplicas: 1,
			Stack: &policy.Stack{Preemption: &policy.PreemptionConfig{}}}, ErrSplitStack},
		{"autoscaler above the decode pool", ServeConfig{PrefillReplicas: 1, DecodeReplicas: 2, Stack: decodeScalerStack(t, 4)}, ErrAutoscaleMax},
		{"autoscaler above the fleet", ServeConfig{Replicas: 2, Policy: lw, Stack: decodeScalerStack(t, 4)}, ErrAutoscaleMax},
	}
	reqs := smallTrace(10, 1)
	for _, c := range cases {
		if err := c.sc.Validate(); !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("%s: Validate() = %v, want %v", c.name, err, c.want)
		}
		if c.want == nil {
			continue
		}
		if _, err := Serve(fastConfig(2), reqs, c.sc); !errors.Is(err, c.want) {
			t.Errorf("%s: Serve error %v, want %v", c.name, err, c.want)
		}
	}
}

// A split with an empty or negative pool is refused by Serve.
func TestDisaggValidatesPools(t *testing.T) {
	reqs := smallTrace(10, 1)
	for _, sc := range []ServeConfig{{PrefillReplicas: 0, DecodeReplicas: 2}, {PrefillReplicas: 2, DecodeReplicas: 0}, {PrefillReplicas: -1, DecodeReplicas: 1}} {
		if _, err := Serve(fastConfig(2), reqs, sc); !errors.Is(err, ErrPoolSize) {
			t.Errorf("pools %+v: err = %v, want %v", sc, err, ErrPoolSize)
		}
	}
}

// CheckConservation checks a split result per pool: it accepts a valid
// run and rejects a request listed in two prefill or two decode
// shards.
func TestCheckConservationSplit(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(120, 21), workload.Poisson{Rate: 250}, 9)
	for _, c := range []struct {
		name   string
		shards func(res *Result) (from, to []int)
		want   string
	}{
		{"prefill", func(res *Result) ([]int, []int) { return res.Shards[0].Origin, res.Shards[1].Origin }, "dispatched"},
		{"decode", func(res *Result) ([]int, []int) { return res.Shards[2].Origin, res.Shards[3].Origin }, "handed off 2 times"},
	} {
		res, err := Serve(fastConfig(2), reqs, ServeConfig{PrefillReplicas: 2, DecodeReplicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckConservation(len(reqs)); err != nil {
			t.Fatalf("%s: valid split: %v", c.name, err)
		}
		from, to := c.shards(res)
		if len(from) == 0 || len(to) == 0 {
			t.Fatalf("%s: an empty shard leaves nothing to tamper with", c.name)
		}
		// Same shard sizes, one request listed twice.
		to[0] = from[0]
		if err := res.CheckConservation(len(reqs)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: tampered shard: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// Every request must be prefilled once, decoded at most once, and
// finish with its full output; records must span the whole lifecycle.
func TestDisaggConservation(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(300, 21), workload.Poisson{Rate: 250}, 9)
	res, err := Serve(fastConfig(2), reqs, ServeConfig{PrefillReplicas: 2, DecodeReplicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res, len(reqs), 0)
	if err := res.CheckConservation(len(reqs)); err != nil {
		t.Fatal(err)
	}

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
	// must appear in exactly one decode shard (CheckConservation has
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
		res, err := Serve(fastConfig(2), reqs, ServeConfig{PrefillReplicas: 1, DecodeReplicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, res, len(reqs), 0)
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
	res, err := Serve(cfg, reqs, ServeConfig{PrefillReplicas: 2, DecodeReplicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res, len(reqs), 0)
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
	res, err := Serve(fastConfig(2), reqs, ServeConfig{PrefillReplicas: 1, DecodeReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res, len(reqs), 0)
	if res.Report.PrefixCachedTokens == 0 {
		t.Error("no prefix reuse on a prefix-structured disaggregated trace")
	}
}
