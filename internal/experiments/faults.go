package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
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

// faultsReplicas is the fleet size every scenario uses.
const faultsReplicas = 4

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
	cfg := core.DefaultConfig(hw.A100, model.Llama2_70B, 4)
	cfg.Predictor = e.Classifier
	cfg.SLO = metrics.DefaultSLO()

	// Calibrate: one replica's closed-loop makespan bounds the fleet's
	// service rate; offer 80% of it so the control run has headroom.
	offline, err := core.Run(cfg, e.Requests)
	if err != nil {
		return nil, err
	}
	if offline.Report.Elapsed <= 0 {
		return nil, fmt.Errorf("experiments: degenerate faults calibration run")
	}
	rate := 0.8 * float64(faultsReplicas) * float64(len(e.Requests)) / offline.Report.Elapsed
	acfg := workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Rate: rate, Seed: e.Opts.Seed + 61}
	open, err := acfg.Stamp(e.Requests)
	if err != nil {
		return nil, err
	}

	newPolicy := func() (fleet.Policy, error) {
		return fleet.New(fleet.LeastWork, fleet.Options{Seed: e.Opts.Seed, Predictor: e.Classifier})
	}

	p, err := newPolicy()
	if err != nil {
		return nil, err
	}
	control, err := fleet.Serve(cfg, open, fleet.ServeConfig{Replicas: faultsReplicas, Policy: p, Workers: e.Opts.Workers})
	if err != nil {
		return nil, err
	}
	makespan := control.Report.Elapsed
	rows := []FaultsRow{{Scenario: "fault-free", Ckpt: "off", Report: control.Report}}

	// Each crash's outage: process restart plus reloading the largest
	// pipeline stage's weights over the host link.
	restartDelay := makespan / 50
	downtime := restartDelay + faults.WeightReloadTime(cfg.Node, cfg.Spec, cfg.World)
	ckptInterval := makespan / 8

	for _, frac := range faultsMTBFFractions {
		for _, ckpt := range []float64{0, ckptInterval} {
			fc := faults.Config{
				Seed:               e.Opts.Seed + 71,
				Horizon:            makespan,
				MTBF:               frac * makespan,
				RestartDelay:       restartDelay,
				CheckpointInterval: ckpt,
			}
			plan, err := faults.NewPlan(fc, faultsReplicas, downtime)
			if err != nil {
				return nil, err
			}
			p, err := newPolicy()
			if err != nil {
				return nil, err
			}
			res, err := fleet.Serve(cfg, open, fleet.ServeConfig{Replicas: faultsReplicas, Policy: p, Workers: e.Opts.Workers, Faults: plan})
			if err != nil {
				return nil, err
			}
			ck := "off"
			if ckpt > 0 {
				ck = fmt.Sprintf("%.0fs", ckpt)
			}
			rows = append(rows, FaultsRow{
				Scenario: fmt.Sprintf("crash mtbf=%gx", frac),
				Ckpt:     ck,
				Report:   res.Report,
			})
		}
	}

	// One straggler at 30% slower: no losses, pure makespan stretch.
	strag, err := faults.NewPlan(faults.Config{
		Seed: e.Opts.Seed + 73, Stragglers: 1, StragglerFactor: 1.3,
	}, faultsReplicas, 0)
	if err != nil {
		return nil, err
	}
	p, err = newPolicy()
	if err != nil {
		return nil, err
	}
	sres, err := fleet.Serve(cfg, open, fleet.ServeConfig{Replicas: faultsReplicas, Policy: p, Workers: e.Opts.Workers, Faults: strag})
	if err != nil {
		return nil, err
	}
	rows = append(rows, FaultsRow{Scenario: "1 straggler 1.3x", Ckpt: "off", Report: sres.Report})

	// Disaggregated deployment under the same crash pressure plus an
	// impaired KV hand-off link (degraded and partitioned windows).
	dfc := faults.Config{
		Seed:               e.Opts.Seed + 79,
		Horizon:            makespan,
		MTBF:               makespan / 2,
		RestartDelay:       restartDelay,
		LinkDegradeFrac:    0.25,
		LinkDegradeFactor:  4,
		LinkPartitionFrac:  0.125,
		CheckpointInterval: ckptInterval,
	}
	dplan, err := faults.NewPlan(dfc, faultsReplicas, downtime)
	if err != nil {
		return nil, err
	}
	dc := fleet.DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2, Workers: e.Opts.Workers, Faults: dplan}
	dres, err := fleet.RunDisagg(cfg, dc, open)
	if err != nil {
		return nil, err
	}
	rows = append(rows, FaultsRow{Scenario: "disagg 2P+2D mtbf=0.5x +link", Ckpt: fmt.Sprintf("%.0fs", ckptInterval), Report: dres.Report})
	return rows, nil
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
		faultsReplicas, metrics.DefaultSLO()), header, table)
}
