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
// fig16 offload fleet online prefix disagg faults chaos autoscale
// sweep, or "all" for every one of them but sweep. "offload" is the
// §2.2.2 motivation: offloading instances against TD-Pipe's pipeline
// on the same GPUs. "fleet" sweeps the data-parallel serving layer
// (replica count x dispatch policy) beyond the paper's single-engine
// evaluation; "online" sweeps open-loop Poisson offered load and
// reports TTFT/TPOT/E2E tails plus SLO goodput; "prefix" serves a
// shared-prefix trace under each dispatch policy and compares cache
// hit rates and TTFT against a no-cache control; "disagg" splits the
// fleet into prefill and decode pools with an explicit KV hand-off and
// sweeps the split ratio against a colocated control under bursty
// load; "faults" injects seeded replica crashes, stragglers and
// KV-link impairments and measures recovery (recompute vs periodic KV
// checkpointing) against the fault-free control; "chaos" compares
// correlated failure domains (rack/zone power and network outages over
// a fleet topology) against independent crashes at equal aggregate
// failure rate; "autoscale" serves a diurnal trace under static-peak,
// static-mean and elastic provisioning and reports the GPU-hours vs
// goodput frontier; "sweep" varies TD-Pipe's prefill batch size and
// the hybrid baselines' chunk token budget. Experiments run in the
// order named; an unknown name fails before any of them runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments to run ("+strings.Join(experiments.Names(), ",")+")")
		requests = flag.Int("requests", 0, "evaluation sample size (default: quick scale)")
		pool     = flag.Int("pool", 0, "corpus size (default: quick scale)")
		seed     = flag.Int64("seed", 1, "trace seed")
		paper    = flag.Bool("paper", false, "use paper-scale options (86,612-pair corpus, 5,000 requests)")
		workers  = flag.Int("workers", 0, "fleet simulation workers for every fleet experiment (0/1 sequential, -1 auto: GOMAXPROCS on fleets of 16+ replicas; workers run replicas only after the last routing decision, at t=0 for closed-loop fleets); results are byte-identical across counts")
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

	if err := run(os.Stdout, *exp, opts); err != nil {
		fmt.Fprintln(os.Stderr, "tdpipe:", err)
		os.Exit(1)
	}
}

// run renders the selected experiments to w, building the shared Env
// just before the first experiment that needs it.
func run(w io.Writer, exp string, opts experiments.Options) error {
	exps, err := experiments.Select(exp)
	if err != nil {
		return err
	}
	var env *experiments.Env
	for _, x := range exps {
		if x.NeedsEnv && env == nil {
			fmt.Fprintf(w, "building corpus (%d pairs), training predictor, sampling %d requests...\n\n",
				opts.PoolSize, opts.Requests)
			if env, err = experiments.NewEnv(opts); err != nil {
				return err
			}
		}
		out, err := x.Run(env)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	return nil
}
