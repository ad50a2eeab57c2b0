package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// OnlineRow is one point of the open-loop rate sweep: a Poisson offered
// load against the 4xA100 + 70B TD-Pipe deployment.
type OnlineRow struct {
	// Label names the point ("offline" or the load factor, e.g. "0.75x").
	Label string
	// Rate is the offered arrival rate in requests/s (0 for offline).
	Rate float64
	// Report carries throughput plus the latency digest.
	Report metrics.Report
}

// onlineLoadFactors are the sweep points as fractions of the offline
// (closed-loop) service rate: comfortably under capacity, near
// saturation, and just past it.
var onlineLoadFactors = []float64{0.5, 0.75, 0.9, 1.1}

// Online sweeps offered load on the 4xA100 + 70B deployment: the
// closed-loop run calibrates the service capacity in requests/s, then
// Poisson arrivals at increasing fractions of that capacity show how
// TTFT/E2E tails and SLO goodput degrade as the system approaches and
// passes saturation — the open-loop view the paper's offline evaluation
// cannot give.
func Online(e *Env) ([]OnlineRow, error) {
	cfg := sloConfig(e)

	// Calibrate: the offline makespan bounds the service rate.
	offline, err := calibrate("online", cfg, e.Requests)
	rows := []OnlineRow{{Label: "offline", Rate: 0, Report: offline}}
	if errors.Is(err, errDegenerate) {
		return rows, nil
	}
	if err != nil {
		return nil, err
	}
	capacity := float64(len(e.Requests)) / offline.Elapsed

	for _, f := range onlineLoadFactors {
		rate := f * capacity
		stamped := workload.StampArrivals(e.Requests, workload.Poisson{Rate: rate}, e.Opts.Seed+7)
		res, err := core.Run(cfg, stamped)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OnlineRow{
			Label:  fmt.Sprintf("%.2fx", f),
			Rate:   rate,
			Report: res.Report,
		})
	}
	return rows, nil
}

// FormatOnline renders the rate sweep with latency and goodput columns.
func FormatOnline(rows []OnlineRow) string {
	header := []string{"load", "req/s", "out tok/s", "ttft p50/p99 (s)", "tpot p99 (ms)", "e2e p99 (s)", "goodput %"}
	var table [][]string
	for _, r := range rows {
		rate := "-"
		if r.Rate > 0 {
			rate = fmt.Sprintf("%.2f", r.Rate)
		}
		d := r.Report.Latency
		table = append(table, []string{
			r.Label,
			rate,
			fmt.Sprintf("%.0f", r.Report.OutputThroughput()),
			fmt.Sprintf("%.1f/%.1f", d.TTFTP50, d.TTFTP99),
			fmt.Sprintf("%.0f", 1e3*d.TPOTP99),
			fmt.Sprintf("%.1f", d.E2EP99),
			fmt.Sprintf("%.1f", 100*d.Goodput()),
		})
	}
	return renderTable(fmt.Sprintf("Online: open-loop Poisson rate sweep (4xA100 + 70B, slo %s)", metrics.DefaultSLO()), header, table)
}
