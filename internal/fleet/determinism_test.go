package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// The fleet-level determinism regression suite: the shared-clock online
// router — with its incremental load counters, pooled events and direct
// worker transport — must produce byte-identical reports run-to-run and
// across transports.

func onlineReportJSON(t *testing.T, cfg core.Config, reqs []workload.Request) []byte {
	t.Helper()
	p := mustPolicy(t, PredictedCost, Options{Seed: 1})
	res, err := RunOnlineWorkers(cfg, 4, p, reqs, 1)
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

func TestOnlineReportByteIdenticalAcrossTransports(t *testing.T) {
	reqs := workload.StampArrivals(smallTrace(400, 4), workload.Poisson{Rate: 300}, 9)
	direct := fastConfig(2)
	direct.Transport = runtime.TransportDirect
	mailbox := fastConfig(2)
	mailbox.Transport = runtime.TransportMailbox
	a := onlineReportJSON(t, direct, reqs)
	b := onlineReportJSON(t, mailbox, reqs)
	if !bytes.Equal(a, b) {
		t.Errorf("direct vs mailbox online fleet reports differ:\n%s\n%s", a, b)
	}
}

// The offline pre-shard path must also be transport-invariant, with
// replicas running concurrently on real goroutines.
func TestFleetRunByteIdenticalAcrossTransports(t *testing.T) {
	reqs := smallTrace(400, 5)
	run := func(tr runtime.Transport) []byte {
		cfg := fastConfig(2)
		cfg.Transport = tr
		p := mustPolicy(t, LeastWork, Options{Seed: 1})
		res, err := Run(cfg, 4, p, reqs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run(runtime.TransportDirect)
	b := run(runtime.TransportMailbox)
	if !bytes.Equal(a, b) {
		t.Errorf("direct vs mailbox fleet reports differ:\n%s\n%s", a, b)
	}
}
