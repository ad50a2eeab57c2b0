package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// The fleet-level determinism regression suite: the shared-clock online
// router — with its incremental load counters and pooled events — must
// produce byte-identical reports run-to-run.

func onlineReportJSON(t *testing.T, cfg core.Config, reqs []workload.Request) []byte {
	t.Helper()
	p := mustPolicy(t, PredictedCost, Options{Seed: 1})
	res, err := Serve(cfg, reqs, ServeConfig{Replicas: 4, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOnlineReportByteIdenticalAcrossRuns(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(400, 3), workload.Poisson{Rate: 300}, 9)
	a := onlineReportJSON(t, fastConfig(2), reqs)
	b := onlineReportJSON(t, fastConfig(2), reqs)
	if !bytes.Equal(a, b) {
		t.Errorf("online fleet reports differ across identical runs:\n%s\n%s", a, b)
	}
}
