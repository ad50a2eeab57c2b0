package fleet

import (
	"testing"

	"repro/internal/workload"
)

// prefixClosedTrace is a closed-loop (every arrival at t=0) trace of n
// requests over groups shared prefixes of mean length plen.
func prefixClosedTrace(n int, seed int64, groups, plen int) []workload.Request {
	reqs, err := workload.StampPrefixes(smallTrace(n, seed), workload.PrefixConfig{
		Groups: groups, PrefixLen: plen, Turns: 3, Seed: seed + 50,
	})
	if err != nil {
		panic(err)
	}
	return reqs
}

func prefixOnlineTrace(n int, seed int64, rate float64, groups, plen int) []workload.Request {
	return workload.StampArrivals(prefixClosedTrace(n, seed, groups, plen), workload.Poisson{Rate: rate}, seed+7)
}

// The acceptance gate of the prefix tentpole: on a shared-prefix trace
// served online, prefix-affinity dispatch must produce a positive
// cache hit rate and a lower mean TTFT than round-robin, which
// scatters each group across replicas and re-prefills the prefix
// everywhere. The operating point matters: many groups relative to
// per-replica traffic (so scattering actually misses) and offered
// load at saturation (so wasted prefill shows up as queueing delay).
func TestPrefixAffinityBeatsRoundRobinOnSharedPrefixTrace(t *testing.T) {
	reqs := prefixOnlineTrace(400, 31, 16000, 64, 512)
	run := func(policy string) *Result {
		res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 4, Policy: mustPolicy(t, policy, Options{Seed: 1})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aff := run(PrefixAffinity)
	rr := run(RoundRobin)
	if aff.Report.PrefixCachedTokens <= 0 {
		t.Fatal("prefix-affinity produced no cache hits on a shared-prefix trace")
	}
	if ahr, rhr := aff.Report.PrefixHitRate(), rr.Report.PrefixHitRate(); ahr <= rhr {
		t.Errorf("affinity hit rate %.3f not above round-robin %.3f", ahr, rhr)
	}
	if am, rm := aff.Report.Latency.MeanTTFT, rr.Report.Latency.MeanTTFT; am >= rm {
		t.Errorf("affinity mean TTFT %.3fs not below round-robin %.3fs", am, rm)
	}
}

// Pre-start warmth must steer closed-loop dispatch: with the affinity
// policy, each prefix group's requests land on one replica although no
// replica has run yet when they are routed.
func TestDispatchPrefixAffinityKeepsGroupsTogether(t *testing.T) {
	reqs, err := workload.StampPrefixes(smallTrace(200, 33), workload.PrefixConfig{
		Groups: 4, PrefixLen: 128, Turns: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := serveClosed(t, mustPolicy(t, PrefixAffinity, Options{}), 4, reqs)
	home := map[int]int{}
	for k, sh := range res.Shards {
		for _, o := range sh.Origin {
			g := reqs[o].PrefixGroup
			if prev, ok := home[g]; ok && prev != k {
				t.Fatalf("group %d split across replicas %d and %d", g, prev, k)
			}
			home[g] = k
		}
	}
	if len(home) != 4 {
		t.Errorf("%d groups dispatched, want 4", len(home))
	}
}

// Without prefix structure the affinity policy must degrade to
// least-work: identical dispatch of the same closed-loop trace.
func TestPrefixAffinityFallsBackToLeastWork(t *testing.T) {
	reqs := smallTrace(150, 35)
	affinity := serveClosed(t, mustPolicy(t, PrefixAffinity, Options{}), 3, reqs).Shards
	least := serveClosed(t, mustPolicy(t, LeastWork, Options{}), 3, reqs).Shards
	for k := range affinity {
		if len(affinity[k].Origin) != len(least[k].Origin) {
			t.Fatalf("replica %d: affinity %d reqs, least-work %d", k, len(affinity[k].Origin), len(least[k].Origin))
		}
		for j := range affinity[k].Origin {
			if affinity[k].Origin[j] != least[k].Origin[j] {
				t.Fatalf("replica %d slot %d: affinity origin %d, least-work %d",
					k, j, affinity[k].Origin[j], least[k].Origin[j])
			}
		}
	}
}

// The fleet aggregate must sum per-replica prefix hits.
func TestFleetMergeSumsPrefixCachedTokens(t *testing.T) {
	reqs := prefixOnlineTrace(200, 37, 80, 4, 128)
	res, err := Serve(fastConfig(2), reqs, ServeConfig{Replicas: 2, Policy: mustPolicy(t, PrefixAffinity, Options{})})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, rr := range res.Replicas {
		sum += rr.Report.PrefixCachedTokens
	}
	if res.Report.PrefixCachedTokens != sum || sum <= 0 {
		t.Errorf("aggregate cached tokens %d, replica sum %d", res.Report.PrefixCachedTokens, sum)
	}
}
