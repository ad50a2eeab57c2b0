package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// PrefixRow is one policy point of the shared-prefix serving sweep.
type PrefixRow struct {
	// Label names the point: a dispatch policy, or the no-cache
	// control.
	Label string
	// Report carries throughput, the prefix hit rate and the latency
	// digest.
	Report metrics.Report
}

// prefixPolicies are the dispatch policies the sweep compares: the
// affinity policy against the oblivious baseline and the load-only
// fallback it degrades to.
var prefixPolicies = []string{fleet.RoundRobin, fleet.LeastWork, fleet.PrefixAffinity}

// Prefix sweeps shared-prefix KV reuse on a 4-replica fleet of 4xA100 +
// 70B deployments: the evaluation sample is stamped with multi-turn
// prefix groups (system prompts / conversations), offered at saturating
// Poisson load, and served online under each dispatch policy. Cache
// hits shrink prefill work, so the question is how much of that the
// router can bank: round-robin scatters each group over every replica
// (each must warm its own copy), while prefix-affinity routes a group
// to the replica already holding its blocks. A no-cache control run
// isolates what sharing itself buys.
func Prefix(e *Env) ([]PrefixRow, error) {
	const replicas = 4
	cfg := sloConfig(e)

	groups := len(e.Requests) / 12
	if groups < 8 {
		groups = 8
	}
	stamped, err := workload.StampPrefixes(e.Requests, workload.PrefixConfig{
		Groups: groups, PrefixLen: 512, Turns: 3, Seed: e.Opts.Seed + 40,
	})
	if err != nil {
		return nil, err
	}

	// Calibrate offered load from the closed-loop service rate of one
	// engine, then push the fleet slightly past saturation so wasted
	// prefill work surfaces as queueing delay in TTFT.
	offline, err := calibrate("prefix", cfg, stamped)
	if err != nil {
		return nil, err
	}
	rate := 1.2 * float64(replicas) * float64(len(stamped)) / offline.Elapsed
	open := workload.StampArrivals(stamped, workload.Poisson{Rate: rate}, e.Opts.Seed+41)

	runPolicy := func(cfg core.Config, policy string) (metrics.Report, error) {
		res, err := serve(e, cfg, open, policy, fleet.ServeConfig{Replicas: replicas})
		if err != nil {
			return metrics.Report{}, err
		}
		return res.Report, nil
	}

	cold := cfg
	cold.DisablePrefixCache = true
	rep, err := runPolicy(cold, fleet.RoundRobin)
	if err != nil {
		return nil, err
	}
	rows := []PrefixRow{{Label: "no-cache", Report: rep}}
	for _, policy := range prefixPolicies {
		rep, err := runPolicy(cfg, policy)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PrefixRow{Label: policy, Report: rep})
	}
	return rows, nil
}

// FormatPrefix renders the shared-prefix sweep.
func FormatPrefix(rows []PrefixRow) string {
	header := []string{"dispatch", "hit %", "out tok/s", "ttft mean/p99 (s)", "e2e p99 (s)", "goodput %"}
	var table [][]string
	for _, r := range rows {
		d := r.Report.Latency
		table = append(table, []string{
			r.Label,
			fmt.Sprintf("%.1f", 100*r.Report.PrefixHitRate()),
			fmt.Sprintf("%.0f", r.Report.OutputThroughput()),
			fmt.Sprintf("%.1f/%.1f", d.MeanTTFT, d.TTFTP99),
			fmt.Sprintf("%.1f", d.E2EP99),
			fmt.Sprintf("%.1f", 100*d.Goodput()),
		})
	}
	return renderTable("Prefix: shared-prefix KV reuse across dispatch policies (4 replicas x 4xA100 + 70B, saturating load)", header, table)
}
