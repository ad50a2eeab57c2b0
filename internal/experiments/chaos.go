package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
)

// ChaosRow is one cell of the correlated-failure study: an outage
// model served on the 4-replica fleet, with the domain accounting in
// Report.Faults next to the goodput it costs.
type ChaosRow = FaultsRow

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
	s, err := newFaultStudy(e, "chaos", 83)
	if err != nil {
		return nil, err
	}
	rows := []ChaosRow{{Scenario: "fault-free", Ckpt: "off", Report: s.control}}
	mtbf := s.control.Elapsed / 2
	// domains draws rack-scoped outages of kind at the same aggregate
	// rate as the independent row.
	domains := func(topo hw.Topology, kind string) faults.Config {
		fc := s.faultConfig(89, s.ckptInterval)
		fc.Topology, fc.DomainMTBF, fc.DomainKind = topo, mtbf, kind
		return fc
	}
	// Independent per-replica crashes: the baseline failure mass.
	independent := s.faultConfig(89, s.ckptInterval)
	independent.MTBF = mtbf
	// The same aggregate rate, correlated: whole racks crash together.
	rack := domains(hw.Topology{Racks: 2}, faults.DomainPower)
	// Zone escalation: every rack outage widens to its whole zone.
	zone := domains(hw.Topology{Racks: 2, RacksPerZone: 2}, faults.DomainPower)
	zone.ZoneFrac = 1
	for _, sc := range []struct {
		name string
		fc   faults.Config
	}{{"independent mtbf=0.5x", independent}, {"rack power dmtbf=0.5x", rack}, {"zone power dmtbf=0.5x", zone}} {
		rep, err := s.serve(sc.fc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ChaosRow{Scenario: sc.name, Ckpt: ckptLabel(s.ckptInterval), Report: rep})
	}

	// Network domains partition KV links without crashing members; the
	// disaggregated hand-off path is where they bite.
	rep, err := s.disagg(domains(hw.Topology{Racks: 2}, faults.DomainNetwork))
	if err != nil {
		return nil, err
	}
	rows = append(rows, ChaosRow{Scenario: "disagg 2P+2D rack network", Ckpt: ckptLabel(s.ckptInterval), Report: rep})
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
		faultReplicas, metrics.DefaultSLO()), header, table)
}
