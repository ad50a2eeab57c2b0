package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// FaultsRow is one cell of the fault-injection study: a failure
// scenario served on the 4-replica fleet, with the recovery accounting
// next to the goodput it costs.
type FaultsRow struct {
	// Scenario names the injected failure mode.
	Scenario string
	// Ckpt labels the checkpoint cadence ("off" or the interval).
	Ckpt string
	// Report carries throughput, the latency digest and Report.Faults.
	Report metrics.Report
}

// faultsMTBFFractions sweeps crash pressure as fractions of the
// fault-free makespan: one expected crash per replica per run, two,
// and four.
var faultsMTBFFractions = []float64{1.0, 0.5, 0.25}

// Faults sweeps seeded fault injection on the 4xA100 + 70B online
// fleet: replica crashes at increasing MTBF pressure, each served
// recompute-only and with periodic KV checkpointing (the recovery
// trade-off: checkpoint stall time vs. redone generation), plus a
// straggler scenario and a disaggregated deployment whose crashes and
// KV-link impairments cross the hand-off path. Every scenario is a
// deterministic plan drawn from the run seed; crash-lost requests are
// re-dispatched with a bounded retry budget, and requests that exhaust
// it are dropped with a reason — the goodput column pays for them.
func Faults(e *Env) ([]FaultsRow, error) {
	s, err := newFaultStudy(e, "faults", 61)
	if err != nil {
		return nil, err
	}
	rows := []FaultsRow{{Scenario: "fault-free", Ckpt: "off", Report: s.control}}
	for _, frac := range faultsMTBFFractions {
		for _, ckpt := range []float64{0, s.ckptInterval} {
			fc := s.faultConfig(71, ckpt)
			fc.MTBF = frac * s.control.Elapsed
			rep, err := s.serve(fc)
			if err != nil {
				return nil, err
			}
			rows = append(rows, FaultsRow{Scenario: fmt.Sprintf("crash mtbf=%gx", frac), Ckpt: ckptLabel(ckpt), Report: rep})
		}
	}

	// One straggler at 30% slower: no losses, pure makespan stretch.
	rep, err := s.serve(faults.Config{Seed: e.Opts.Seed + 73, Stragglers: 1, StragglerFactor: 1.3})
	if err != nil {
		return nil, err
	}
	rows = append(rows, FaultsRow{Scenario: "1 straggler 1.3x", Ckpt: "off", Report: rep})

	// Disaggregated deployment under the same crash pressure plus an
	// impaired KV hand-off link (degraded and partitioned windows).
	fc := s.faultConfig(79, s.ckptInterval)
	fc.MTBF = s.control.Elapsed / 2
	fc.LinkDegradeFrac, fc.LinkDegradeFactor, fc.LinkPartitionFrac = 0.25, 4, 0.125
	if rep, err = s.disagg(fc); err != nil {
		return nil, err
	}
	rows = append(rows, FaultsRow{Scenario: "disagg 2P+2D mtbf=0.5x +link", Ckpt: ckptLabel(s.ckptInterval), Report: rep})
	return rows, nil
}

// ckptLabel labels a checkpoint cadence: "off" or the interval.
func ckptLabel(ckpt float64) string {
	if ckpt > 0 {
		return fmt.Sprintf("%.0fs", ckpt)
	}
	return "off"
}

// FormatFaults renders the fault-injection study.
func FormatFaults(rows []FaultsRow) string {
	header := []string{"scenario", "ckpt", "crashes", "aborted", "recovered (rc/ck)", "dropped", "out tok/s", "ttft p99 (s)", "goodput %"}
	var table [][]string
	for _, r := range rows {
		f := r.Report.Faults
		table = append(table, []string{
			r.Scenario,
			r.Ckpt,
			fmt.Sprintf("%d", f.Crashes),
			fmt.Sprintf("%d", f.AbortedRequests),
			fmt.Sprintf("%d/%d", f.RecoveredRecompute, f.RecoveredCheckpoint),
			fmt.Sprintf("%d", f.Dropped),
			fmt.Sprintf("%.0f", r.Report.OutputThroughput()),
			fmt.Sprintf("%.1f", r.Report.Latency.TTFTP99),
			fmt.Sprintf("%.1f", 100*r.Report.Latency.Goodput()),
		})
	}
	return renderTable(fmt.Sprintf("Faults: seeded crash/straggler/link injection with recovery (%d replicas x 4xA100 + 70B, slo %s)",
		faultReplicas, metrics.DefaultSLO()), header, table)
}
