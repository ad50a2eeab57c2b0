// Prefix caching: shared-prefix KV reuse end to end. A chat-style
// trace (64 conversations, multi-turn, long shared prefixes) is served
// by a four-replica TD-Pipe fleet at saturating open-loop load, three
// ways:
//
//  1. no cache     — every request prefills its full prompt,
//  2. round-robin  — sharing on, but each group's prefix is scattered
//     across all replicas, so every replica warms its own copy,
//  3. prefix-affinity — requests route to the replica already holding
//     their prefix, so the fleet prefills each conversation once.
//
// The interesting outputs are the prefix hit rate (fraction of prompt
// tokens served from resident KV instead of being prefilled) and the
// TTFT distribution: at saturation, prefill work the cache absorbs is
// queueing delay everyone else does not wait behind.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const (
		replicas = 4
		sample   = 1200
	)

	trace, err := tdpipe.NewTrace(20000, 1)
	if err != nil {
		log.Fatal(err)
	}
	clf, err := tdpipe.TrainPredictor(trace.Train)
	if err != nil {
		log.Fatal(err)
	}
	cfg := tdpipe.NewConfig(tdpipe.A100, tdpipe.Llama2_70B, 4)
	cfg.Predictor = clf
	cfg.SLO = tdpipe.DefaultSLO()

	// Chat-shaped workload: 64 conversations, prefixes growing over
	// turns, so later turns extend earlier turns' block chains.
	reqs, err := tdpipe.StampPrefixes(trace.Sample(sample, 42), tdpipe.PrefixConfig{
		Groups: 64, PrefixLen: 512, Turns: 4, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d requests, %d conversations\n", sample, 64)

	// Calibrate saturating load from one engine's closed-loop rate.
	offline, err := tdpipe.Run(cfg, reqs)
	if err != nil {
		log.Fatal(err)
	}
	rate := 1.2 * replicas * float64(sample) / offline.Report.Elapsed
	open, err := tdpipe.StampArrivals(reqs, tdpipe.ArrivalConfig{
		Kind: tdpipe.ArrivalPoisson, Rate: rate, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offered load: %.1f req/s across %d replicas (1.2x capacity)\n\n", rate, replicas)

	show := func(label string, cfg tdpipe.Config, policy string) {
		p, err := tdpipe.NewFleetPolicy(policy, tdpipe.FleetOptions{Seed: 1, Predictor: cfg.Predictor})
		if err != nil {
			log.Fatal(err)
		}
		res, err := tdpipe.RunFleet(cfg, open, tdpipe.FleetConfig{Replicas: replicas, Policy: p})
		if err != nil {
			log.Fatal(err)
		}
		d := res.Report.Latency
		fmt.Printf("%-16s hit rate %5.1f%%  ttft mean %6.2fs p99 %6.2fs  goodput %5.1f%%\n",
			label, 100*res.Report.PrefixHitRate(), d.MeanTTFT, d.TTFTP99, 100*d.Goodput())
	}

	cold := cfg
	cold.DisablePrefixCache = true
	show("no cache", cold, tdpipe.FleetRoundRobin)
	show("round-robin", cfg, tdpipe.FleetRoundRobin)
	show("prefix-affinity", cfg, tdpipe.FleetPrefixAffinity)

	fmt.Println("\ncache-affinity routing turns shared prefixes into skipped")
	fmt.Println("prefill work exactly once per conversation, fleet-wide.")
}
