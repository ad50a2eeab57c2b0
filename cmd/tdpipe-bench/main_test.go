package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestWorkloadsSmallScale runs every workload at 1% of its requests:
// each conserves requests, and untraced, traced and (for multi-worker
// workloads) one-worker runs produce the same digest, so the tracing
// wrappers and the worker count do not change the simulation.
func TestWorkloadsSmallScale(t *testing.T) {
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			jobs := []job{
				{Workload: s.name, Seed: 3, Scale: 0.01},
				{Workload: s.name, Seed: 3, Scale: 0.01, Trace: true},
			}
			if s.workers > 1 {
				jobs = append(jobs, job{Workload: s.name, Seed: 3, Scale: 0.01, Workers: 1})
			}
			var first *measurement
			for _, j := range jobs {
				m, err := measure(j)
				if err != nil {
					t.Fatal(err)
				}
				if m.Failed != 0 || m.Problem != "" {
					t.Fatalf("%+v: %d requests failed: %s", j, m.Failed, m.Problem)
				}
				if first == nil {
					first = m
					continue
				}
				if m.Digest != first.Digest {
					t.Errorf("%+v: digest %s, want %s", j, m.Digest, first.Digest)
				}
				if j.Trace && m.Predicts == 0 {
					t.Errorf("traced run counted no predictions")
				}
			}
			for _, name := range []string{"sim_output_tok_s", "sim_ttft_p50_s", "sim_ttft_p99_s", "sim_tpot_p99_s"} {
				if v := first.Sim[name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", name, v)
				}
			}
		})
	}
}

// canned is `go tool pprof -traces -lines` output in the shape the
// folder reads: a header, then one block per distinct stack, leaf
// first.
const canned = `File: tdpipe-bench
Type: cpu
Duration: 1.22s, Total samples = 1.04s (85.21%)
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc /usr/local/go/src/runtime/malloc.go:1055
             runtime.makeslice /usr/local/go/src/runtime/slice.go:116
             repro/internal/kvcache.chainKeys repro/internal/kvcache/sharing.go:61 (inline)
             repro/internal/kvcache.(*Manager).MatchPrefix repro/internal/kvcache/sharing.go:95
             repro/internal/core.(*Engine).PrefixWarmTokens repro/internal/core/engine.go:739
             repro/internal/fleet.(*onlineRouter).snapshot repro/internal/fleet/online.go:207
             main.main repro/cmd/tdpipe-bench/main.go:140
-----------+-------------------------------------------------------
      20ms   runtime.chansend1 /usr/local/go/src/runtime/chan.go:161
             repro/internal/fleet.(*fabric).advanceTier repro/internal/fleet/parallel.go:289
             repro/internal/fleet.(*fabric).run repro/internal/fleet/parallel.go:200
             repro/internal/fleet.RunOnlineWorkers repro/internal/fleet/online.go:120
-----------+-------------------------------------------------------
      10ms   repro/internal/fleet.drain[go.shape.struct { A int }] repro/internal/fleet/parallel.go:50 (inline)
             repro/internal/fleet.(*fabric).run repro/internal/fleet/parallel.go:200
-----------+-------------------------------------------------------
      1.5s   repro/internal/fleet.argminCost repro/internal/fleet/policy.go:185
             main.(*timedPolicy).Pick repro/cmd/tdpipe-bench/measure.go:31
             repro/internal/fleet.(*onlineRouter).route repro/internal/fleet/online.go:180
             repro/internal/fleet.(*fabric).run repro/internal/fleet/parallel.go:200
-----------+-------------------------------------------------------
      10ms   repro/internal/hw.Node.PeakFLOPS repro/internal/hw/hw.go:40 (inline)
             repro/internal/costmodel.(*Model).Prefill repro/internal/costmodel/costmodel.go:90
-----------+-------------------------------------------------------
      40ms   runtime.scanobject /usr/local/go/src/runtime/mgcmark.go:1446
             runtime.gcDrain /usr/local/go/src/runtime/mgcmark.go:1188
             runtime.gcBgMarkWorker.func2 /usr/local/go/src/runtime/mgc.go:1412
-----------+-------------------------------------------------------
`

func TestFoldTraces(t *testing.T) {
	self, err := foldTraces(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		why, layer string
		want       float64
	}{
		{"runtime helpers are charged to the innermost simulator frame", "kvcache", 0.03},
		{"parallel.go is the fabric, generic shapes included", "fleet.fabric", 0.03},
		{"the rest of internal/fleet is the router", "fleet.router", 1.5},
		{"a repro package that is not a layer goes to its caller", "costmodel", 0.01},
		{"stacks with no simulator frame are go.bg", goBg, 0.04},
		{"callers of the innermost frame get nothing", "core", 0},
	} {
		if got := self[tc.layer]; math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: %s = %v, want %v", tc.why, tc.layer, got, tc.want)
		}
	}
	if len(self) != len(layers) {
		t.Errorf("folded %d layers, want every one of %d", len(self), len(layers))
	}
	if _, err := foldTraces(strings.NewReader("-----------+---\n   lots   main.main\n")); err == nil {
		t.Error("a malformed sample value was accepted")
	}
}

// TestDigestIsMarshalOfReportAndRecords pins the streamed digest to the
// SHA-256 of json.Marshal over the whole struct.
func TestDigestIsMarshalOfReportAndRecords(t *testing.T) {
	for _, recs := range [][]metrics.RequestRecord{
		nil,
		{},
		{{ID: 0, Arrival: 0.5, FirstToken: 1.25, Finish: 3, OutputTokens: 7}, {ID: 1, Arrival: 2}},
	} {
		o := &outcome{report: metrics.Report{Scheduler: "x", Requests: 1, Elapsed: 3.5}, records: recs}
		b, err := json.Marshal(struct {
			Report  metrics.Report
			Records []metrics.RequestRecord
		}{o.report, o.records})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got, err := digest(o)
		if err != nil {
			t.Fatal(err)
		}
		if want := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%d records: digest %s, want %s", len(recs), got, want)
		}
	}
}

func TestConservation(t *testing.T) {
	done := metrics.RequestRecord{Arrival: 1, FirstToken: 2, Finish: 3, OutputTokens: 4}
	rec := func(id int, r metrics.RequestRecord) metrics.RequestRecord { r.ID = id; return r }
	for _, tc := range []struct {
		name    string
		records []metrics.RequestRecord
		report  metrics.Report
		dropped int
		failed  int
	}{
		{"all finished", []metrics.RequestRecord{rec(0, done), rec(1, done)}, metrics.Report{Requests: 2}, 0, 0},
		{"one dropped and reported", []metrics.RequestRecord{rec(0, done), {ID: 1, Arrival: 1}},
			metrics.Report{Requests: 1, Admission: metrics.AdmissionStats{Dropped: 1}}, 1, 0},
		{"dropped but not reported", []metrics.RequestRecord{rec(0, done), {ID: 1, Arrival: 1}},
			metrics.Report{Requests: 1}, 1, 1},
		{"record out of place", []metrics.RequestRecord{rec(1, done), rec(1, done)}, metrics.Report{Requests: 2}, 0, 2},
		{"half-finished record", []metrics.RequestRecord{rec(0, done), {ID: 1, Arrival: 1, FirstToken: 2}},
			metrics.Report{Requests: 1}, 0, 1},
		{"missing record", []metrics.RequestRecord{rec(0, done)}, metrics.Report{Requests: 1}, 0, 2},
	} {
		dropped, failed, problem := conservation(&outcome{report: tc.report, records: tc.records}, 2)
		if dropped != tc.dropped || failed != tc.failed || (failed > 0) != (problem != "") {
			t.Errorf("%s: dropped %d failed %d (%q), want %d and %d", tc.name, dropped, failed, problem, tc.dropped, tc.failed)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the metric tables and the
// README in step with the scenarios.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricJSON                 `json:"end_to_end"`
		PerLayer  []metricJSON                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bench.Workloads), len(scenarios))
	}
	for i, w := range bench.Workloads {
		if s := scenarios[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
	}
	same := func(kind string, got []metricJSON, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			bound := 0.0
			if g.Bound != nil {
				bound = *g.Bound
			}
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || bound != m.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		if !strings.Contains(string(readme), s.cmdline()) {
			t.Errorf("README.md lacks %s's command line: %s", s.name, s.cmdline())
		}
	}
}
