package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/core/testdata golden digests")

// deepQueueGolden pins one deep-queue run: the SHA-256 of the JSON
// report and of the per-request records, plus the counts that show the
// run exercised the decode->prefill switch check under memory pressure
// (phase switches, and the eviction-recompute path that pushes victims
// back onto the front of the waiting queue).
type deepQueueGolden struct {
	Requests      int    `json:"requests"`
	ReportSHA256  string `json:"report_sha256"`
	RecordsSHA256 string `json:"records_sha256"`
	PhaseSwitches int    `json:"phase_switches"`
	Recomputes    int    `json:"recomputes"`
}

const deepQueueGoldenPath = "testdata/deep_queue_golden.json"

func sha256JSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestDeepQueueByteIdentity runs 3,000-request traces on low-memory
// engines, so the waiting queue stays thousands deep across many decode
// phases and evictions interleave with switch checks, and compares the
// output digests with the committed goldens. "offline" queues the whole
// trace at t=0; "arrivals" overloads the engine with a Poisson stream,
// so arrivals also land in the queue while decode phases run.
// Regenerate with `go test ./internal/core -run TestDeepQueueByteIdentity
// -update` only when a change is meant to alter simulated output.
func TestDeepQueueByteIdentity(t *testing.T) {
	cases := []struct {
		name  string
		world int
		reqs  func() []workload.Request
	}{
		{"offline", 4, func() []workload.Request { return smallTrace(3000, 21) }},
		{"arrivals", 2, func() []workload.Request {
			return workload.StampArrivals(smallTrace(3000, 22), workload.Poisson{Rate: 2000}, 23)
		}},
	}
	got := map[string]deepQueueGolden{}
	for _, c := range cases {
		reqs := c.reqs()
		res, err := Run(detConfig(c.world), reqs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g := deepQueueGolden{
			Requests:      len(reqs),
			ReportSHA256:  sha256JSON(t, res.Report),
			RecordsSHA256: sha256JSON(t, res.Records),
			PhaseSwitches: res.Report.PhaseSwitches,
			Recomputes:    res.Report.Recomputes,
		}
		if g.Recomputes == 0 || g.PhaseSwitches < 10 {
			t.Fatalf("%s: run too gentle to exercise the switch check: %+v", c.name, g)
		}
		got[c.name] = g
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(deepQueueGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deepQueueGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(deepQueueGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]deepQueueGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: deep-queue run diverged from golden:\n got  %+v\n want %+v", c.name, got[c.name], want[c.name])
		}
	}
}
