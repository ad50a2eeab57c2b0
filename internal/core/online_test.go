package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The instantaneous arrival process must reproduce the offline run
// bit-identically: stamping every arrival at t=0 and not stamping at
// all are the same workload, so reports, per-request completion times
// and records must match exactly.
func TestInstantArrivalsReproduceOfflineRun(t *testing.T) {
	reqs := smallTrace(200, 3)
	offline, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	stamped := workload.StampArrivals(reqs, workload.Instant{}, 99)
	online, err := Run(fastConfig(4), stamped)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Report != online.Report {
		t.Errorf("reports differ:\noffline: %+v\ninstant: %+v", offline.Report, online.Report)
	}
	if len(offline.Records) != len(online.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(offline.Records), len(online.Records))
	}
	for i := range offline.Records {
		if offline.Records[i] != online.Records[i] {
			t.Fatalf("request %d records differ: %+v vs %+v", i, offline.Records[i], online.Records[i])
		}
	}
}

// Open-loop arrivals: the engine must admit requests only once virtual
// time reaches their arrival, finish everything, and produce causally
// consistent per-request records.
func TestPoissonArrivalsAdmissionCausality(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(150, 5), workload.Poisson{Rate: 50}, 7)
	res, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != len(reqs) {
		t.Fatalf("completed %d of %d", res.Report.Requests, len(reqs))
	}
	if res.Report.Latency.Requests != len(reqs) {
		t.Fatalf("latency digest covers %d of %d", res.Report.Latency.Requests, len(reqs))
	}
	var lastArrival float64
	for i, rec := range res.Records {
		if rec.Arrival != reqs[i].ArrivalTime {
			t.Fatalf("request %d arrival %v, stamped %v", i, rec.Arrival, reqs[i].ArrivalTime)
		}
		if rec.FirstToken < rec.Arrival {
			t.Fatalf("request %d produced its first token at %v before arriving at %v",
				i, rec.FirstToken, rec.Arrival)
		}
		if rec.Finish < rec.FirstToken {
			t.Fatalf("request %d finished at %v before first token at %v", i, rec.Finish, rec.FirstToken)
		}
		if rec.Arrival > lastArrival {
			lastArrival = rec.Arrival
		}
	}
	if res.Report.Elapsed < lastArrival {
		t.Errorf("elapsed %v precedes last arrival %v", res.Report.Elapsed, lastArrival)
	}
	// Open-loop must actually spread work: the run cannot be faster
	// than the arrival span.
	if res.Report.Elapsed <= 0 {
		t.Errorf("elapsed = %v", res.Report.Elapsed)
	}
}

// A long arrival gap must drain the engine to idle and restart it; the
// late request's TTFT is measured from its own arrival, not t=0.
func TestIdleGapRestart(t *testing.T) {
	reqs := smallTrace(2, 9)
	reqs[1].ArrivalTime = 1000
	res, err := Run(fastConfig(2), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Elapsed < 1000 {
		t.Fatalf("elapsed %v; late request ignored?", res.Report.Elapsed)
	}
	late := res.Records[1]
	if late.FirstToken < 1000 {
		t.Errorf("late request got first token at %v, before its arrival", late.FirstToken)
	}
	if ttft := late.TTFT(); ttft < 0 || ttft > 100 {
		t.Errorf("late request TTFT = %v; want small and measured from its arrival", ttft)
	}
	early := res.Records[0]
	if early.Finish >= 1000 {
		t.Errorf("early request finished at %v; should complete during the gap", early.Finish)
	}
}

// StartOnline + Submit on a shared simulation must behave like Run on
// the same trace: the co-simulation entry points are a refactoring of
// the same machine. Requests due at t=0 are submitted before the
// simulation runs, as a fleet's control timeline submits them before
// the replica's own events at that instant; on a closed-loop trace they
// must all join the first prefill batch, as Run's do.
func TestSubmitMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		reqs []workload.Request
	}{
		{"poisson", workload.StampArrivals(smallTrace(60, 11), workload.Poisson{Rate: 40}, 3)},
		{"closed-loop", smallTrace(60, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(fastConfig(2), tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine()
			e, err := NewEngine(eng, fastConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.StartOnline(); err != nil {
				t.Fatal(err)
			}
			if err := e.StartOnline(); err == nil {
				t.Fatal("double StartOnline accepted")
			}
			for _, r := range tc.reqs {
				if r.ArrivalTime == 0 {
					if _, err := e.Submit(r); err != nil {
						t.Fatal(err)
					}
					continue
				}
				eng.AtFunc(sim.Time(r.ArrivalTime), func(any, int, int) { e.Submit(r) }, nil, 0, 0)
			}
			eng.Run()
			got, err := e.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if want.Report != got.Report {
				t.Errorf("reports differ:\nRun:    %+v\nSubmit: %+v", want.Report, got.Report)
			}
		})
	}
}

// The SLO must flow into the digest and count good requests.
func TestEngineSLOGoodput(t *testing.T) {
	cfg := fastConfig(2)
	cfg.SLO = metrics.SLO{E2E: 1e9} // everything is good
	res, err := Run(cfg, smallTrace(50, 13))
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Report.Latency.Goodput(); g != 1 {
		t.Errorf("goodput under loose SLO = %v", g)
	}
	cfg = fastConfig(2)
	cfg.SLO = metrics.SLO{TTFT: 1e-9} // nothing is good
	res, err = Run(cfg, smallTrace(50, 13))
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Report.Latency.Goodput(); g != 0 {
		t.Errorf("goodput under impossible SLO = %v", g)
	}
}

// FinishBound never overshoots: on Poisson traces, roomy and so short
// of KV that decode evicts and recomputes, no request finishes before
// any bound the engine reported earlier. The engine runs one instant at
// a time and reports its bound before each.
func TestFinishBoundNeverOvershoots(t *testing.T) {
	for _, mem := range []float64{0, 0.0001} {
		cfg := fastConfig(4)
		if mem > 0 {
			cfg.MemUtilization = mem
		}
		reqs := workload.StampArrivals(smallTrace(300, 9), workload.Poisson{Rate: 400}, 11)
		eng := sim.NewEngine()
		e, err := NewEngine(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		claim, finishes, late := sim.Time(0), 0, 0
		e.SetOnFinish(func(int) {
			finishes++
			if eng.Now() < claim {
				late++
			}
		})
		if err := e.Start(reqs); err != nil {
			t.Fatal(err)
		}
		bounded := 0
		for eng.Pending() > 0 {
			if b := e.FinishBound(); b > claim {
				claim = b
				bounded++
			}
			eng.RunUntil(eng.NextEventTime())
		}
		res, err := e.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if mem > 0 && res.Report.Recomputes == 0 {
			t.Errorf("mem %v: no recompute evictions", mem)
		}
		if finishes != len(reqs) || bounded == 0 {
			t.Errorf("mem %v: %d finishes of %d requests, the bound rose %d times", mem, finishes, len(reqs), bounded)
		}
		if late > 0 {
			t.Errorf("mem %v: %d finishes before an earlier bound", mem, late)
		}
		if b := e.FinishBound(); b != sim.Infinity {
			t.Errorf("mem %v: drained engine bounds its next finish at %v, want Infinity", mem, b)
		}
	}
}
