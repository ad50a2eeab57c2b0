package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func prefixTrace(n int, seed int64, groups, plen int) []workload.Request {
	reqs, err := workload.StampPrefixes(smallTrace(n, seed), workload.PrefixConfig{
		Groups: groups, PrefixLen: plen, Turns: 3, Seed: seed + 50,
	})
	if err != nil {
		panic(err)
	}
	return reqs
}

// Unstructured traces must be untouched by the prefix-cache machinery:
// with sharing enabled (the default) and disabled, reports, completion
// times and records are bit-identical — the regression gate that keeps
// the PR-1/PR-2 offline and online numbers authoritative.
func TestNoPrefixTraceBitIdenticalWithSharingOnOff(t *testing.T) {
	reqs := smallTrace(300, 21)
	on, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(4)
	cfg.DisablePrefixCache = true
	off, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if on.Report != off.Report {
		t.Errorf("reports differ on an unstructured trace:\non:  %+v\noff: %+v", on.Report, off.Report)
	}
	if on.Report.PrefixCachedTokens != 0 {
		t.Errorf("cached %d tokens with no prefix structure", on.Report.PrefixCachedTokens)
	}
	for i := range on.Records {
		if on.Records[i] != off.Records[i] {
			t.Fatalf("request %d records differ: %+v vs %+v", i, on.Records[i], off.Records[i])
		}
	}
}

// On a prefix-structured trace, sharing must actually reuse KV: the
// report shows a positive hit rate and the run completes no slower
// (virtual time) than the no-sharing ablation.
func TestPrefixSharingSkipsPrefillWork(t *testing.T) {
	reqs := prefixTrace(300, 23, 6, 128)
	shared, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(4)
	cfg.DisablePrefixCache = true
	cold, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Report.PrefixCachedTokens <= 0 {
		t.Fatal("no tokens served from the prefix cache on a structured trace")
	}
	if cold.Report.PrefixCachedTokens != 0 {
		t.Errorf("ablation cached %d tokens", cold.Report.PrefixCachedTokens)
	}
	if hr := shared.Report.PrefixHitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %v, want in (0,1)", hr)
	}
	if shared.Report.Elapsed > cold.Report.Elapsed {
		t.Errorf("sharing slowed the run: %.3fs vs %.3fs cold", shared.Report.Elapsed, cold.Report.Elapsed)
	}
	if shared.Report.Requests != len(reqs) || cold.Report.Requests != len(reqs) {
		t.Errorf("incomplete runs: %d/%d of %d", shared.Report.Requests, cold.Report.Requests, len(reqs))
	}
}

// The warmth probe must see blocks left behind by finished requests
// and respect the disable flag.
func TestPrefixWarmTokens(t *testing.T) {
	reqs := prefixTrace(100, 27, 2, 256)
	cfg := fastConfig(2)
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.PrefixCachedTokens <= 0 {
		t.Fatal("two-group trace produced no cache hits")
	}
	// Exercise the probe on a fresh engine: before any allocation
	// nothing is warm, and unstructured requests always read 0.
	e, err := NewEngine(sim.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w := e.PrefixWarmTokens(reqs[0]); w != 0 {
		t.Errorf("cold engine reports %d warm tokens", w)
	}
	bare := workload.StripPrefixes(reqs)
	if w := e.PrefixWarmTokens(bare[0]); w != 0 {
		t.Errorf("unstructured request reports %d warm tokens", w)
	}
}

// Instant arrivals on a prefix trace must reproduce the offline prefix
// run exactly — the online/offline equivalence holds with sharing too.
func TestPrefixInstantArrivalsReproduceOffline(t *testing.T) {
	reqs := prefixTrace(200, 29, 4, 128)
	offline, err := Run(fastConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	online, err := Run(fastConfig(4), workload.StampArrivals(reqs, workload.Instant{}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if offline.Report != online.Report {
		t.Errorf("reports differ:\noffline: %+v\ninstant: %+v", offline.Report, online.Report)
	}
}
