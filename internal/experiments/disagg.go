package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// DisaggRow is one cell of the disaggregation sweep: a pool split
// (or the colocated control) served at one offered load.
type DisaggRow struct {
	// Load labels the offered load as a fraction of fleet capacity.
	Load string
	// Split names the deployment: "colocated" or "<p>P+<d>D".
	Split string
	// Rate is the offered arrival rate in requests/s.
	Rate float64
	// Report carries throughput plus the latency digest.
	Report metrics.Report
	// Handoffs counts KV migrations (0 for the colocated control);
	// Queued of them waited for decode-pool headroom.
	Handoffs int
	Queued   int
}

// disaggSplits are the pool splits swept against the colocated
// control, all over the same total replica count.
var disaggSplits = []fleet.ServeConfig{
	{PrefillReplicas: 1, DecodeReplicas: 3},
	{PrefillReplicas: 2, DecodeReplicas: 2},
	{PrefillReplicas: 3, DecodeReplicas: 1},
}

// disaggLoadFactors are the swept offered loads as fractions of the
// fleet's closed-loop service capacity: below, near and past
// saturation. Bursty arrivals push instantaneous load to twice the
// mean, so even the 0.7x point spends its bursts saturated — where
// phase interference shows up in the TTFT tail.
var disaggLoadFactors = []float64{0.7, 0.9, 1.2}

// disaggReplicas is the total replica count every deployment uses.
const disaggReplicas = 4

// Disagg sweeps phase-disaggregated serving on the 4xA100 + 70B
// deployment: 4 replicas are split into prefill and decode pools with
// an explicit KV hand-off over the node's KV link, versus a colocated
// least-work control, under bursty (MMPP) arrivals at and past
// saturation. Colocated replicas interleave prefill and decode phases,
// so a burst arriving mid-decode waits out the phase — the TTFT tail
// the split is designed to cut. The decode pools pay for it with the
// modeled transfer and fewer token slots, which the TPOT and goodput
// columns surface.
func Disagg(e *Env) ([]DisaggRow, error) {
	cfg := sloConfig(e)

	// Calibrate: one replica's closed-loop makespan bounds the fleet's
	// service rate.
	offline, err := calibrate("disagg", cfg, e.Requests)
	if err != nil {
		return nil, err
	}
	capacity := float64(disaggReplicas) * float64(len(e.Requests)) / offline.Elapsed

	var rows []DisaggRow
	for _, f := range disaggLoadFactors {
		rate := f * capacity
		acfg := workload.ArrivalConfig{Kind: workload.ArrivalBursty, Rate: rate, Seed: e.Opts.Seed + 51}
		open, err := acfg.Stamp(e.Requests)
		if err != nil {
			return nil, err
		}
		load := fmt.Sprintf("%.1fx", f)

		colo, err := serve(e, cfg, open, fleet.LeastWork, fleet.ServeConfig{Replicas: disaggReplicas})
		if err != nil {
			return nil, err
		}
		rows = append(rows, DisaggRow{Load: load, Split: "colocated", Rate: rate, Report: colo.Report})

		for _, sc := range disaggSplits {
			res, err := fleet.Serve(cfg, open, sc)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DisaggRow{
				Load:     load,
				Split:    fmt.Sprintf("%dP+%dD", sc.PrefillReplicas, sc.DecodeReplicas),
				Rate:     rate,
				Report:   res.Report,
				Handoffs: res.Handoffs,
				Queued:   res.QueuedHandoffs,
			})
		}
	}
	return rows, nil
}

// FormatDisagg renders the disaggregation sweep.
func FormatDisagg(rows []DisaggRow) string {
	header := []string{"load", "split", "req/s", "out tok/s", "ttft p50/p99 (s)", "tpot p99 (ms)", "goodput %", "handoffs (queued)"}
	var table [][]string
	for _, r := range rows {
		d := r.Report.Latency
		hand := "-"
		if r.Split != "colocated" {
			hand = fmt.Sprintf("%d (%d)", r.Handoffs, r.Queued)
		}
		table = append(table, []string{
			r.Load,
			r.Split,
			fmt.Sprintf("%.2f", r.Rate),
			fmt.Sprintf("%.0f", r.Report.OutputThroughput()),
			fmt.Sprintf("%.1f/%.1f", d.TTFTP50, d.TTFTP99),
			fmt.Sprintf("%.0f", 1e3*d.TPOTP99),
			fmt.Sprintf("%.1f", 100*d.Goodput()),
			hand,
		})
	}
	return renderTable(fmt.Sprintf("Disagg: prefill/decode disaggregation vs colocated under bursty arrivals (%d replicas x 4xA100 + 70B, slo %s)",
		disaggReplicas, metrics.DefaultSLO()), header, table)
}
