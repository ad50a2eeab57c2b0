package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// The determinism regression suite: the same seed must reproduce every
// bit of the report. Each test serializes the full metrics.Report to
// JSON and compares bytes.

// detTraces returns the trace shapes the suite runs: offline batch,
// open-loop arrivals, and a prefix-structured trace under memory
// pressure (evictions + recompute + shared KV all exercised).
func detTraces(t *testing.T) map[string][]workload.Request {
	t.Helper()
	offline := smallTrace(150, 11)
	arrivals := workload.StampArrivals(smallTrace(150, 12), workload.Poisson{Rate: 400}, 5)
	prefixed, err := workload.StampPrefixes(smallTrace(150, 13), workload.PrefixConfig{
		Groups: 6, PrefixLen: 96, Turns: 3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]workload.Request{
		"offline":  offline,
		"arrivals": arrivals,
		"prefixed": prefixed,
	}
}

func detConfig(world int) Config {
	cfg := fastConfig(world)
	// Low memory forces multiple phases and recompute evictions.
	cfg.MemUtilization = 0.001
	return cfg
}

func reportJSON(t *testing.T, cfg Config, reqs []workload.Request) []byte {
	t.Helper()
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Same seed, two runs: byte-identical reports.
func TestReportByteIdenticalAcrossRuns(t *testing.T) {
	for name, reqs := range detTraces(t) {
		t.Run(name, func(t *testing.T) {
			a := reportJSON(t, detConfig(4), reqs)
			b := reportJSON(t, detConfig(4), reqs)
			if !bytes.Equal(a, b) {
				t.Errorf("reports differ across identical runs:\n%s\n%s", a, b)
			}
		})
	}
}
