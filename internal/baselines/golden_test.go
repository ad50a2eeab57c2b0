package baselines

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/baselines/testdata golden digests")

// baselineGolden pins one baseline run: the SHA-256 of the JSON report
// and of the per-request records, plus the recompute count that shows
// the run went through eviction.
type baselineGolden struct {
	ReportSHA256  string `json:"report_sha256"`
	RecordsSHA256 string `json:"records_sha256"`
	Recomputes    int    `json:"recomputes"`
}

const baselinesGoldenPath = "testdata/baselines_golden.json"

func sha256JSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestBaselinesGolden runs every baseline method on a small trace,
// queued at t=0 ("offline") and under a Poisson stream ("poisson"), on
// memory tight enough to force recompute evictions, again with small
// batch and chunk caps ("tight"), plus the two PP baselines on a
// paper-scale A100 pipeline ("a100"), and compares the output digests
// with the committed goldens. Regenerate with
// `go test ./internal/baselines -run TestBaselinesGolden -update` only
// when a change is meant to alter simulated output.
func TestBaselinesGolden(t *testing.T) {
	traces := []struct {
		name string
		reqs []workload.Request
	}{
		{"offline", smallTrace(400, 31)},
		{"poisson", workload.StampArrivals(smallTrace(400, 32), workload.Poisson{Rate: 200}, 33)},
	}
	got := map[string]baselineGolden{}
	pin := func(name string, cfg Config, reqs []workload.Request) {
		res, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = baselineGolden{
			ReportSHA256:  sha256JSON(t, res.Report),
			RecordsSHA256: sha256JSON(t, res.Records),
			Recomputes:    res.Report.Recomputes,
		}
	}
	for _, m := range Methods() {
		for _, tr := range traces {
			cfg := fastCfg(4, m)
			cfg.MemUtilization = 0.0004
			pin(m.String()+"/"+tr.name, cfg, tr.reqs)
		}
	}
	// "tight" caps the decode batch and the chunk budget below what the
	// trace asks for, and gives every 7th request a single output token,
	// so TP+SB hits MaxBatch and a one-token request finishes the moment
	// its last prefill chunk lands.
	tight := smallTrace(400, 35)
	for i := range tight {
		if i%7 == 0 {
			tight[i].OutputLen = 1
		}
	}
	for _, m := range Methods() {
		cfg := fastCfg(4, m)
		cfg.MemUtilization = 0.0004
		cfg.ChunkTokens = 32
		cfg.MaxBatch = 16
		pin(m.String()+"/tight", cfg, tight)
	}
	// The PP baselines' blocking send waits for the receiver's queue as
	// it stands at send time. The tiny model above seldom makes that
	// wait matter; the paper's A100 + Llama2-70B pipeline on a longer
	// trace does, so a runtime that reserved a blocking pass's later
	// stages before their sends (reading the queue too early) moves
	// these digests.
	a100 := workload.MustGenerate(workload.DefaultConfig(400, 34))
	for _, m := range []Method{PPSB, PPHB} {
		pin(m.String()+"/a100", DefaultConfig(hw.A100, model.Llama2_70B, 4, m), a100)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(baselinesGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinesGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(baselinesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]baselineGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, test produced %d", len(want), len(got))
	}
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s: baseline run diverged from golden:\n got  %+v\n want %+v", name, g, want[name])
		}
	}
}
