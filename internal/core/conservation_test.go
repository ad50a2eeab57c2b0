package core

import (
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// Property: for any seed and any predictor quality, TD-Pipe completes
// every request with exactly its output length generated, never loses a
// request to eviction, and produces monotonically consistent reports.
func TestEngineConservationProperty(t *testing.T) {
	prop := func(seed int64, mispredict bool) bool {
		cfg := workload.DefaultConfig(60, seed)
		cfg.MaxInputLen = 127
		cfg.MaxOutputLen = 64
		cfg.InputLogMean = 3.5
		reqs := workload.MustGenerate(cfg)

		ecfg := fastConfig(4)
		ecfg.MemUtilization = 0.0001 // force multiple phases + evictions
		if mispredict {
			ecfg.Predictor = ConstPredictor(1)
		}
		res, err := Run(ecfg, reqs)
		if err != nil {
			return false
		}
		wantOut := 0
		for _, r := range reqs {
			wantOut += r.OutputLen
		}
		if res.Report.OutputTokens != wantOut || res.Report.Requests != len(reqs) {
			return false
		}
		for _, rec := range res.Records {
			if rec.Finish <= 0 {
				return false
			}
		}
		u := res.Report.MeanUtilization
		return res.Report.Elapsed > 0 && u > 0 && u <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: finish times are consistent with the virtual clock — no
// request finishes after the run's elapsed time.
func TestFinishTimesWithinElapsed(t *testing.T) {
	reqs := smallTrace(150, 77)
	res, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for id, rec := range res.Records {
		if rec.Finish > res.Report.Elapsed+1e-9 {
			t.Fatalf("request %d finished at %v after elapsed %v", id, rec.Finish, res.Report.Elapsed)
		}
	}
}

// The engine must behave identically with a classifier predictor and
// with constants in terms of *correctness* (only performance differs).
func TestPredictorQualityDoesNotAffectCorrectness(t *testing.T) {
	reqs := smallTrace(200, 91)
	wantOut := 0
	for _, r := range reqs {
		wantOut += r.OutputLen
	}
	for _, p := range []LenPredictor{OraclePredictor{}, ConstPredictor(1), ConstPredictor(10000)} {
		cfg := fastConfig(4)
		cfg.MemUtilization = 0.0001
		cfg.Predictor = p
		res, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if res.Report.OutputTokens != wantOut {
			t.Errorf("%T: output = %d, want %d", p, res.Report.OutputTokens, wantOut)
		}
	}
}

// Extreme over-prediction makes the greedy prefill maximally cautious;
// it must still make progress (one batch per cycle at worst).
func TestOverpredictionStillProgresses(t *testing.T) {
	cfg := fastConfig(2)
	cfg.Predictor = ConstPredictor(1 << 20)
	reqs := smallTrace(50, 13)
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests != 50 {
		t.Errorf("report = %v", res.Report)
	}
}
