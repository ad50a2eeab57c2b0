// Fleet: serve one 5,000-request trace on four data-parallel TD-Pipe
// replicas (each a simulated 4x A100 node running Llama2-70B) and
// compare the registered dispatch policies — round-robin, seeded
// random, least known work, and predicted-cost using the paper's
// output-length classifier.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// 1. Corpus, trained predictor, and a 5k evaluation sample.
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
	reqs := trace.Sample(5000, 42)

	// 2. One fleet run per registered dispatch policy.
	for _, policy := range tdpipe.FleetPolicies() {
		p, err := tdpipe.NewFleetPolicy(policy, tdpipe.FleetOptions{Seed: 1, Predictor: cfg.Predictor})
		if err != nil {
			log.Fatal(err)
		}
		res, err := tdpipe.RunFleet(cfg, reqs, tdpipe.FleetConfig{Replicas: 4, Policy: p})
		if err != nil {
			log.Fatal(err)
		}
		if err := res.CheckConservation(len(reqs)); err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Report)
		for i, rr := range res.Replicas {
			fmt.Printf("  replica %d: %4d reqs, %7.1fs, util %.1f%%\n",
				i, rr.Report.Requests, rr.Report.Elapsed, 100*rr.Report.MeanUtilization)
		}
		fmt.Printf("  fleet throughput: %.0f tok/s out\n\n", res.Report.OutputThroughput())
	}
}
