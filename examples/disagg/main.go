// Disaggregated serving: a bursty open-loop workload against a
// four-replica deployment, served two ways — colocated (every replica
// interleaves prefill and decode phases) and phase-disaggregated
// (dedicated prefill replicas migrate each request's finished prefix
// KV to dedicated decode replicas over the node's modeled hand-off
// link).
//
// A colocated TD-Pipe replica keeps its pipeline in one phase for long
// stretches, so a burst arriving mid-decode queues until the phase
// switches — that wait lands in the TTFT tail. The disaggregated split
// prefills arrivals immediately and pays instead with the KV transfer
// and fewer decode-side token slots; the demo prints both sides of the
// trade at the same offered load.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const (
		replicas   = 4
		sampleSize = 1500
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

	// 2. Calibrate the fleet's service rate and stamp bursty (MMPP)
	// arrivals at saturation.
	offline, err := tdpipe.Run(cfg, reqs)
	if err != nil {
		log.Fatal(err)
	}
	rate := replicas * float64(sampleSize) / offline.Report.Elapsed
	open, err := tdpipe.StampArrivals(reqs, tdpipe.ArrivalConfig{
		Kind: tdpipe.ArrivalBursty, Rate: rate, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offered load ~%.2f req/s (bursty), slo %s\n\n", rate, cfg.SLO)

	// 3. Colocated control: 4 replicas, least-work dispatch.
	lw, err := tdpipe.NewFleetPolicy(tdpipe.FleetLeastWork, tdpipe.FleetOptions{Seed: 1, Predictor: cfg.Predictor})
	if err != nil {
		log.Fatal(err)
	}
	colo, err := tdpipe.RunFleet(cfg, open, tdpipe.FleetConfig{Replicas: replicas, Policy: lw})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("colocated:   ", colo.Report)
	fmt.Println("             ", colo.Report.Latency)

	// 4. Disaggregated splits over the same 4 replicas.
	for _, dc := range []tdpipe.DisaggConfig{
		{PrefillReplicas: 2, DecodeReplicas: 2},
		{PrefillReplicas: 3, DecodeReplicas: 1},
	} {
		res, err := tdpipe.RunDisagg(cfg, dc, open)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%dP+%dD:       %v\n", dc.PrefillReplicas, dc.DecodeReplicas, res.Report)
		fmt.Println("             ", res.Report.Latency)
		fmt.Printf("              %d hand-offs (%d queued), %.1f GB KV migrated\n",
			res.Handoffs, res.QueuedHandoffs, res.TransferredBytes/1e9)
	}
}
