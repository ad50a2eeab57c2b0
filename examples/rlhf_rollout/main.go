// RLHF rollout: the second offline scenario the paper motivates (§1,
// §2.2.1) — short, templated prompts that generate long continuations.
// The example builds that workload shape with a custom trace config,
// runs TD-Pipe on a 4x A100 node, and prints a per-window GPU
// utilization timeline alongside the throughput report.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	// Rollout prompts are short (tens of tokens) and completions long:
	// shift the prompt distribution down and widen outputs.
	tc := tdpipe.DefaultTraceConfig(12000, 99)
	tc.InputLogMean = 3.6 // median prompt ~37 tokens
	tc.InputLogStd = 0.5
	tc.MaxOutputLen = 2048

	trace, err := tdpipe.GenerateTrace(tc)
	if err != nil {
		log.Fatal(err)
	}
	clf, err := tdpipe.TrainPredictor(trace.Train)
	if err != nil {
		log.Fatal(err)
	}

	cfg := tdpipe.NewConfig(tdpipe.A100, tdpipe.Llama2_70B, 4)
	cfg.Predictor = clf
	cfg.RecordBusy = true // keep busy intervals for the timeline below
	rollouts := trace.Sample(3000, 5)

	res, err := tdpipe.Run(cfg, rollouts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("RLHF rollout: %d prompts on 4x A100 + 70B\n", len(rollouts))
	fmt.Println(res.Report)

	// Utilization timeline, 40 windows across the run.
	window := res.Report.Elapsed / 40
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, p := range res.Rec.Timeline(window, res.Report.Elapsed) {
		g := int(p.Utilization * float64(len(glyphs)))
		if g >= len(glyphs) {
			g = len(glyphs) - 1
		}
		sb.WriteRune(glyphs[g])
	}
	fmt.Printf("utilization: %s\n", sb.String())
	fmt.Printf("mean %.1f%%, bubbles %.1f%%, %d phase switches\n",
		100*res.Report.MeanUtilization, 100*res.Report.BubbleRatio, res.Report.PhaseSwitches)
}
