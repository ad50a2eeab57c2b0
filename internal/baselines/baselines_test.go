package baselines

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/workload"
)

func fastCfg(world int, m Method) Config {
	cfg := DefaultConfig(hw.L20, model.Tiny, world, m)
	cfg.ReserveGB = 0
	cfg.MaxPrefillTokens = 512
	cfg.ChunkTokens = 256
	return cfg
}

func smallTrace(n int, seed int64) []workload.Request {
	cfg := workload.DefaultConfig(n, seed)
	cfg.MaxInputLen = 255
	cfg.MaxOutputLen = 128
	cfg.InputLogMean = 4.0
	return workload.MustGenerate(cfg)
}

func TestMethodStringsAndKinds(t *testing.T) {
	if TPSB.String() != "TP+SB" || TPHB.String() != "TP+HB" || PPSB.String() != "PP+SB" || PPHB.String() != "PP+HB" {
		t.Error("method names wrong")
	}
	if Method(99).String() != "unknown" {
		t.Error("unknown method name wrong")
	}
	if !TPSB.IsTP() || !TPHB.IsTP() || PPSB.IsTP() || PPHB.IsTP() {
		t.Error("IsTP classification wrong")
	}
	if len(Methods()) != 4 {
		t.Error("Methods() incomplete")
	}
}

// ParseMethod inverts String, ignoring case, and knows no other name.
func TestParseMethod(t *testing.T) {
	for _, m := range Methods() {
		for _, name := range []string{m.String(), strings.ToLower(m.String())} {
			if got, ok := ParseMethod(name); !ok || got != m {
				t.Errorf("ParseMethod(%q) = %v, %v, want %v", name, got, ok, m)
			}
		}
	}
	for _, name := range []string{"", "unknown", "tdpipe", "TP-SB"} {
		if _, ok := ParseMethod(name); ok {
			t.Errorf("ParseMethod(%q) found a method", name)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := fastCfg(0, TPSB)
	if _, err := Run(bad, smallTrace(5, 1)); err == nil {
		t.Error("world=0 accepted")
	}
	bad = fastCfg(2, TPSB)
	bad.MemUtilization = 0
	if _, err := Run(bad, smallTrace(5, 1)); err == nil {
		t.Error("MemUtilization=0 accepted")
	}
	bad = fastCfg(2, PPHB)
	bad.ChunkTokens = 0
	if _, err := Run(bad, smallTrace(5, 1)); err == nil {
		t.Error("ChunkTokens=0 accepted")
	}
}

func TestAllMethodsCompleteAllRequests(t *testing.T) {
	reqs := smallTrace(80, 7)
	wantOut := 0
	for _, r := range reqs {
		wantOut += r.OutputLen
	}
	for _, m := range Methods() {
		res, err := Run(fastCfg(4, m), reqs)
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if res.Report.OutputTokens != wantOut {
			t.Errorf("%v: output = %d, want %d", m, res.Report.OutputTokens, wantOut)
		}
		if res.Report.Elapsed <= 0 {
			t.Errorf("%v: elapsed = %v", m, res.Report.Elapsed)
		}
		if u := res.Report.MeanUtilization; u <= 0 || u > 1 {
			t.Errorf("%v: utilization = %v", m, u)
		}
	}
}

func TestAllMethodsDeterministic(t *testing.T) {
	reqs := smallTrace(50, 11)
	for _, m := range Methods() {
		a, err := Run(fastCfg(4, m), reqs)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		b, err := Run(fastCfg(4, m), reqs)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if a.Report.Elapsed != b.Report.Elapsed {
			t.Errorf("%v not deterministic: %v vs %v", m, a.Report.Elapsed, b.Report.Elapsed)
		}
	}
}

func TestSingleGPUAllMethods(t *testing.T) {
	reqs := smallTrace(30, 13)
	for _, m := range Methods() {
		if _, err := Run(fastCfg(1, m), reqs); err != nil {
			t.Errorf("%v on 1 GPU: %v", m, err)
		}
	}
}

func TestOOMReported(t *testing.T) {
	for _, m := range Methods() {
		cfg := DefaultConfig(hw.L20, model.Llama2_70B, 1, m)
		if _, err := Run(cfg, smallTrace(5, 1)); err == nil {
			t.Errorf("%v: 70B on one L20 did not OOM", m)
		}
	}
	// Paper Fig. 11: 70B needs all 4 A100s; 2 is OOM.
	for _, m := range []Method{TPSB, PPSB} {
		cfg := DefaultConfig(hw.A100, model.Llama2_70B, 2, m)
		if _, err := Run(cfg, smallTrace(5, 1)); err == nil {
			t.Errorf("%v: 70B on 2x A100 did not OOM", m)
		}
	}
}

func TestRecomputeUnderMemoryPressure(t *testing.T) {
	reqs := smallTrace(150, 17)
	for _, m := range Methods() {
		cfg := fastCfg(4, m)
		cfg.MemUtilization = 0.0001
		res, err := Run(cfg, reqs)
		if err != nil {
			t.Errorf("%v under pressure: %v", m, err)
			continue
		}
		wantOut := 0
		for _, r := range reqs {
			wantOut += r.OutputLen
		}
		if res.Report.OutputTokens != wantOut {
			t.Errorf("%v: output = %d, want %d", m, res.Report.OutputTokens, wantOut)
		}
	}
}

func TestNonDenseIDsRejected(t *testing.T) {
	reqs := smallTrace(10, 1)
	reqs[4].ID = 77
	if _, err := Run(fastCfg(2, TPSB), reqs); err == nil {
		t.Error("non-dense IDs accepted")
	}
}

// PP methods must show visible pipeline bubbles on mixed workloads —
// that inefficiency is the paper's motivation.
func TestPPBaselinesHaveBubbles(t *testing.T) {
	reqs := smallTrace(120, 19)
	for _, m := range []Method{PPSB, PPHB} {
		cfg := fastCfg(4, m)
		cfg.MemUtilization = 0.0002
		res, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Report.BubbleRatio < 0.02 {
			t.Errorf("%v: bubble ratio = %v, expected visible bubbles", m, res.Report.BubbleRatio)
		}
	}
}

func TestTPUtilizationReflectsCommStalls(t *testing.T) {
	// On multi-GPU TP, the all-reduce time must show up as idle time.
	reqs := smallTrace(60, 23)
	res, err := Run(fastCfg(4, TPSB), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MeanUtilization > 0.98 {
		t.Errorf("TP utilization = %v, communication stalls missing", res.Report.MeanUtilization)
	}
}

// A prompt longer than the KV capacity can never be admitted. Run
// refuses the trace up front with ErrRequestTooLarge under every method,
// where PP used to retry its empty round until the runaway guard
// panicked and TP stopped with "made no progress".
func TestUnservablePromptRejected(t *testing.T) {
	reqs := smallTrace(1, 31)
	reqs[0].InputLen = 1 << 20
	for _, m := range Methods() {
		t.Run(m.String(), func(t *testing.T) {
			cfg := fastCfg(2, m)
			cfg.MemUtilization = 0.0004
			if _, err := Run(cfg, reqs); !errors.Is(err, ErrRequestTooLarge) {
				t.Fatalf("Run error = %v, want ErrRequestTooLarge", err)
			}
		})
	}
}

// A request whose decode-plane peak fills the pool exactly is served;
// one token more is refused.
func TestPeakAtCapacityServed(t *testing.T) {
	for _, m := range Methods() {
		t.Run(m.String(), func(t *testing.T) {
			cfg := fastCfg(2, m)
			cfg.MemUtilization = 0.0004
			capTok, err := kvCapacity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			capTok = kvcache.AlignTokens(capTok, cfg.BlockSize)
			reqs := smallTrace(1, 31)
			reqs[0].InputLen = capTok - reqs[0].OutputLen + 2
			res, err := Run(cfg, reqs)
			if err != nil || res.Report.OutputTokens != reqs[0].OutputLen {
				t.Fatalf("request at capacity: err %v, report %+v", err, res)
			}
			reqs[0].InputLen++
			if _, err := Run(cfg, reqs); !errors.Is(err, ErrRequestTooLarge) {
				t.Fatalf("request one token over capacity: error %v, want ErrRequestTooLarge", err)
			}
		})
	}
}
