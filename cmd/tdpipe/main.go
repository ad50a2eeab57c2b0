// Command tdpipe regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	tdpipe -exp fig11              # one experiment at quick scale
//	tdpipe -exp all -paper         # the full evaluation at paper scale
//	tdpipe -exp fig13 -requests 3000 -seed 7
//
// Experiments: table1 table2 fig2 fig6 fig11 fig12 fig13 fig14 fig15
// fig16 fleet online prefix disagg faults chaos autoscale all. "fleet" sweeps the
// data-parallel serving layer (replica count x dispatch policy) beyond
// the paper's single-engine evaluation; "online" sweeps open-loop
// Poisson offered load and reports TTFT/TPOT/E2E tails plus SLO
// goodput; "prefix" serves a shared-prefix trace under each dispatch
// policy and compares cache hit rates and TTFT against a no-cache
// control; "disagg" splits the fleet into prefill and decode pools
// with an explicit KV hand-off and sweeps the split ratio against a
// colocated control under bursty load; "faults" injects seeded replica
// crashes, stragglers and KV-link impairments and measures recovery
// (recompute vs periodic KV checkpointing) against the fault-free
// control; "chaos" compares correlated failure domains (rack/zone
// power and network outages over a fleet topology) against
// independent crashes at equal aggregate failure rate;
// "autoscale" serves a diurnal trace under static-peak,
// static-mean and elastic provisioning and reports the GPU-hours vs
// goodput frontier.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (table1,table2,fig2,fig6,fig11,fig12,fig13,fig14,fig15,fig16,fleet,online,prefix,disagg,faults,chaos,autoscale,all)")
		requests = flag.Int("requests", 0, "evaluation sample size (default: quick scale)")
		pool     = flag.Int("pool", 0, "corpus size (default: quick scale)")
		seed     = flag.Int64("seed", 1, "trace seed")
		paper    = flag.Bool("paper", false, "use paper-scale options (86,612-pair corpus, 5,000 requests)")
		workers  = flag.Int("workers", 0, "fleet simulation workers for every fleet experiment (0/1 sequential, -1 auto; pre-sharded closed-loop fleets read 0 and -1 as one per replica); results are byte-identical across counts")
	)
	flag.Parse()

	opts := experiments.Quick()
	if *paper {
		opts = experiments.Paper()
	}
	if *requests > 0 {
		opts.Requests = *requests
	}
	if *pool > 0 {
		opts.PoolSize = *pool
	}
	opts.Seed = *seed
	opts.Workers = *workers

	if err := run(*exp, opts); err != nil {
		fmt.Fprintln(os.Stderr, "tdpipe:", err)
		os.Exit(1)
	}
}

func run(exp string, opts experiments.Options) error {
	names := strings.Split(exp, ",")
	if exp == "all" {
		names = []string{"table1", "table2", "fig2", "fig6", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "offload", "fleet", "online", "prefix", "disagg", "faults", "chaos", "autoscale"}
	}

	var env *experiments.Env
	getEnv := func() (*experiments.Env, error) {
		if env != nil {
			return env, nil
		}
		fmt.Printf("building corpus (%d pairs), training predictor, sampling %d requests...\n\n",
			opts.PoolSize, opts.Requests)
		var err error
		env, err = experiments.NewEnv(opts)
		return env, err
	}

	for _, name := range names {
		switch name {
		case "table1":
			fmt.Println(experiments.FormatTable1())
		case "table2":
			fmt.Println(experiments.FormatTable2())
		case "fig2":
			e, err := getEnv()
			if err != nil {
				return err
			}
			r, err := experiments.Fig2(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFig2(r))
		case "fig6":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Fig6(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFig6(rows))
		case "fig11":
			e, err := getEnv()
			if err != nil {
				return err
			}
			cells, err := experiments.Fig11(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFig11(cells))
		case "fig12":
			e, err := getEnv()
			if err != nil {
				return err
			}
			r, err := experiments.Fig12(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFig12(r))
		case "fig13":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Fig13(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatAblation("Figure 13: prefill-to-decode switching ablation", rows))
		case "fig14":
			e, err := getEnv()
			if err != nil {
				return err
			}
			r, err := experiments.Fig14(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFig14(r))
		case "fig15":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Fig15(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatAblation("Figure 15: inter-batch work stealing ablation", rows))
		case "fig16":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Fig16(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatAblation("Figure 16: decode-to-prefill switching ablation", rows))
		case "offload":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Offload(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatOffload(rows))
		case "fleet":
			e, err := getEnv()
			if err != nil {
				return err
			}
			cells, err := experiments.Fleet(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFleet(cells))
		case "online":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Online(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatOnline(rows))
		case "prefix":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Prefix(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatPrefix(rows))
		case "disagg":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Disagg(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatDisagg(rows))
		case "faults":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Faults(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFaults(rows))
		case "chaos":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Chaos(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatChaos(rows))
		case "autoscale":
			e, err := getEnv()
			if err != nil {
				return err
			}
			rows, err := experiments.Autoscale(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatAutoscale(rows))
		case "sweep":
			e, err := getEnv()
			if err != nil {
				return err
			}
			pb, err := experiments.SweepPrefillBatch(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatSweep("Sweep: TD-Pipe prefill batch size (4xA100 + 70B)", pb))
			ct, err := experiments.SweepChunkTokens(e)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatSweep("Sweep: PP+HB chunk token budget (4xA100 + 70B)", ct))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	return nil
}
