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

// ChaosRow is one cell of the correlated-failure study: an outage
// model served on the 4-replica fleet, with the domain accounting next
// to the goodput it costs.
type ChaosRow struct {
	// Scenario names the outage model.
	Scenario string
	// Ckpt labels the checkpoint cadence ("off" or the interval).
	Ckpt string
	// Report carries throughput, the latency digest and Report.Faults.
	Report metrics.Report
}

// chaosReplicas is the fleet size every scenario uses.
const chaosReplicas = 4

// Chaos compares correlated failure domains against independent
// per-replica crashes at equal aggregate failure rate on the 4xA100 +
// 70B fleet. Per-rack domain draws with mean DomainMTBF produce the
// same expected replica-crash rate as independent draws with MTBF set
// to the same value (each of the Racks streams fires rack outages that
// crash Replicas/Racks members), so any difference between the rows is
// the correlation itself: whole racks vanishing together concentrates
// recovery pressure and lengthens the tail, where the same failure
// mass spread independently is absorbed by the survivors. Network
// domains partition KV links instead of crashing members and are
// served disaggregated, where the hand-off path pays for them.
func Chaos(e *Env) ([]ChaosRow, error) {
	cfg := core.DefaultConfig(hw.A100, model.Llama2_70B, 4)
	cfg.Predictor = e.Classifier
	cfg.SLO = metrics.DefaultSLO()

	// Calibrate exactly like the faults study: offer 80% of the fleet's
	// closed-loop service rate so the control run has headroom.
	offline, err := core.Run(cfg, e.Requests)
	if err != nil {
		return nil, err
	}
	if offline.Report.Elapsed <= 0 {
		return nil, fmt.Errorf("experiments: degenerate chaos calibration run")
	}
	rate := 0.8 * float64(chaosReplicas) * float64(len(e.Requests)) / offline.Report.Elapsed
	acfg := workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Rate: rate, Seed: e.Opts.Seed + 83}
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
	control, err := fleet.Serve(cfg, open, fleet.ServeConfig{Replicas: chaosReplicas, Policy: p, Workers: e.Opts.Workers})
	if err != nil {
		return nil, err
	}
	makespan := control.Report.Elapsed
	rows := []ChaosRow{{Scenario: "fault-free", Ckpt: "off", Report: control.Report}}

	restartDelay := makespan / 50
	downtime := restartDelay + faults.WeightReloadTime(cfg.Node, cfg.Spec, cfg.World)
	ckptInterval := makespan / 8
	ckptLabel := fmt.Sprintf("%.0fs", ckptInterval)
	mtbf := makespan / 2

	online := func(scenario string, fc faults.Config) error {
		plan, err := faults.NewPlan(fc, chaosReplicas, downtime)
		if err != nil {
			return err
		}
		p, err := newPolicy()
		if err != nil {
			return err
		}
		res, err := fleet.Serve(cfg, open, fleet.ServeConfig{Replicas: chaosReplicas, Policy: p, Workers: e.Opts.Workers, Faults: plan})
		if err != nil {
			return err
		}
		rows = append(rows, ChaosRow{Scenario: scenario, Ckpt: ckptLabel, Report: res.Report})
		return nil
	}

	// Independent per-replica crashes: the baseline failure mass.
	if err := online("independent mtbf=0.5x", faults.Config{
		Seed:               e.Opts.Seed + 89,
		Horizon:            makespan,
		MTBF:               mtbf,
		RestartDelay:       restartDelay,
		CheckpointInterval: ckptInterval,
	}); err != nil {
		return nil, err
	}
	// The same aggregate rate, correlated: whole racks crash together.
	if err := online("rack power dmtbf=0.5x", faults.Config{
		Seed:               e.Opts.Seed + 89,
		Horizon:            makespan,
		RestartDelay:       restartDelay,
		CheckpointInterval: ckptInterval,
		Topology:           hw.Topology{Racks: 2},
		DomainMTBF:         mtbf,
		DomainKind:         faults.DomainPower,
	}); err != nil {
		return nil, err
	}
	// Zone escalation: every rack outage widens to its whole zone.
	if err := online("zone power dmtbf=0.5x", faults.Config{
		Seed:               e.Opts.Seed + 89,
		Horizon:            makespan,
		RestartDelay:       restartDelay,
		CheckpointInterval: ckptInterval,
		Topology:           hw.Topology{Racks: 2, RacksPerZone: 2},
		DomainMTBF:         mtbf,
		DomainKind:         faults.DomainPower,
		ZoneFrac:           1,
	}); err != nil {
		return nil, err
	}

	// Network domains partition KV links without crashing members; the
	// disaggregated hand-off path is where they bite.
	dfc := faults.Config{
		Seed:               e.Opts.Seed + 89,
		Horizon:            makespan,
		RestartDelay:       restartDelay,
		CheckpointInterval: ckptInterval,
		Topology:           hw.Topology{Racks: 2},
		DomainMTBF:         mtbf,
		DomainKind:         faults.DomainNetwork,
	}
	dplan, err := faults.NewPlan(dfc, chaosReplicas, downtime)
	if err != nil {
		return nil, err
	}
	dc := fleet.DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 2, Workers: e.Opts.Workers, Faults: dplan}
	dres, err := fleet.RunDisagg(cfg, dc, open)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ChaosRow{Scenario: "disagg 2P+2D rack network", Ckpt: ckptLabel, Report: dres.Report})
	return rows, nil
}

// FormatChaos renders the correlated-failure study.
func FormatChaos(rows []ChaosRow) string {
	header := []string{"scenario", "ckpt", "domains", "crashes", "aborted", "dropped", "out tok/s", "ttft p99 (s)", "goodput %"}
	var table [][]string
	for _, r := range rows {
		f := r.Report.Faults
		table = append(table, []string{
			r.Scenario,
			r.Ckpt,
			fmt.Sprintf("%d", f.DomainOutages),
			fmt.Sprintf("%d", f.Crashes),
			fmt.Sprintf("%d", f.AbortedRequests),
			fmt.Sprintf("%d", f.Dropped),
			fmt.Sprintf("%.0f", r.Report.OutputThroughput()),
			fmt.Sprintf("%.1f", r.Report.Latency.TTFTP99),
			fmt.Sprintf("%.1f", 100*r.Report.Latency.Goodput()),
		})
	}
	return renderTable(fmt.Sprintf("Chaos: correlated failure domains vs independent crashes at equal aggregate rate (%d replicas x 4xA100 + 70B, slo %s)",
		chaosReplicas, metrics.DefaultSLO()), header, table)
}
