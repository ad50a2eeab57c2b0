// Online serving: open-loop Poisson traffic against a two-replica
// TD-Pipe fleet (each a simulated 4x A100 node running Llama2-70B).
// For every registered dispatch policy the offered load ramps up as a
// fraction of the fleet's calibrated capacity until the policy violates
// the SLO (goodput drops below 95%), showing each policy's maximum
// sustainable load and how the TTFT/E2E tails degrade on the way.
//
// Closed-loop (offline) runs answer "how fast can we drain a batch";
// this demo answers the production question: "how much traffic can we
// accept while still meeting the latency objective".
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const (
		replicas    = 2
		sampleSize  = 1500
		goodputsBar = 0.95
	)

	// 1. Corpus, trained predictor, SLO.
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
	reqs := trace.Sample(sampleSize, 42)

	// 2. Calibrate fleet capacity: the closed-loop makespan of one
	// engine bounds its service rate; the fleet scales it by replicas.
	offline, err := tdpipe.Run(cfg, reqs)
	if err != nil {
		log.Fatal(err)
	}
	capacity := replicas * float64(sampleSize) / offline.Report.Elapsed
	fmt.Printf("calibrated fleet capacity ~%.2f req/s (%d replicas), slo %s\n\n",
		capacity, replicas, cfg.SLO)

	// 3. Ramp offered load per policy until the SLO gives way.
	for _, policy := range tdpipe.FleetPolicies() {
		fmt.Printf("policy %s:\n", policy)
		for _, frac := range []float64{0.6, 0.8, 0.9, 1.0, 1.1} {
			rate := frac * capacity
			stamped, err := tdpipe.StampArrivals(reqs, tdpipe.ArrivalConfig{
				Kind: tdpipe.ArrivalPoisson,
				Rate: rate,
				Seed: 7,
			})
			if err != nil {
				log.Fatal(err)
			}
			p, err := tdpipe.NewFleetPolicy(policy, tdpipe.FleetOptions{Seed: 1, Predictor: cfg.Predictor})
			if err != nil {
				log.Fatal(err)
			}
			// Arrival-stamped traces route online: one shared clock,
			// per-arrival dispatch on live load snapshots.
			res, err := tdpipe.RunFleet(cfg, stamped, tdpipe.FleetConfig{Replicas: replicas, Policy: p})
			if err != nil {
				log.Fatal(err)
			}
			d := res.Report.Latency
			fmt.Printf("  %.2fx load (%5.2f req/s): ttft p99 %6.1fs, e2e p99 %6.1fs, goodput %5.1f%%\n",
				frac, rate, d.TTFTP99, d.E2EP99, 100*d.Goodput())
			if d.Goodput() < goodputsBar {
				fmt.Printf("  -> SLO violated at %.2fx; max sustainable load is below %.2f req/s\n",
					frac, rate)
				break
			}
		}
		fmt.Println()
	}
}
