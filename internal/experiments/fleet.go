package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/metrics"
)

// FleetCell is one fleet-size x dispatch-policy measurement.
type FleetCell struct {
	Policy   string
	Replicas int
	Report   metrics.Report
	// MinShard/MaxShard are the smallest and largest shard sizes, a
	// direct view of dispatch balance.
	MinShard, MaxShard int
}

// Fleet sweeps the data-parallel serving layer on the 4xA100 + 70B
// deployment: every registered dispatch policy at 1, 2 and 4 replicas
// over the shared evaluation sample. This is the scenario axis
// (replica count x policy x workload) later scaling work builds on.
func Fleet(e *Env) ([]FleetCell, error) {
	var out []FleetCell
	var base *FleetCell
	for _, replicas := range []int{1, 2, 4} {
		for _, name := range fleet.Names() {
			// With one replica every policy produces the same single
			// shard and the engine is deterministic, so simulate the
			// baseline once and reuse it across policies.
			if replicas == 1 && base != nil {
				cell := *base
				cell.Policy = name
				out = append(out, cell)
				continue
			}
			res, err := serve(e, servingConfig(e), e.Requests, name, fleet.ServeConfig{Replicas: replicas})
			if err != nil {
				return nil, err
			}
			cell := FleetCell{Policy: name, Replicas: replicas, Report: res.Report, MinShard: -1}
			for _, sh := range res.Shards {
				if cell.MinShard < 0 || len(sh.Origin) < cell.MinShard {
					cell.MinShard = len(sh.Origin)
				}
				if len(sh.Origin) > cell.MaxShard {
					cell.MaxShard = len(sh.Origin)
				}
			}
			if replicas == 1 {
				base = &cell
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// FormatFleet renders the fleet sweep with per-cell throughput,
// utilization and the speedup over the single-replica run of the same
// policy.
func FormatFleet(cells []FleetCell) string {
	base := map[string]float64{}
	for _, c := range cells {
		if c.Replicas == 1 {
			base[c.Policy] = c.Report.OutputThroughput()
		}
	}
	header := []string{"policy", "replicas", "gpus", "out tok/s", "speedup", "util %", "shard min/max"}
	var rows [][]string
	for _, c := range cells {
		speedup := "-"
		if b := base[c.Policy]; b > 0 {
			speedup = fmt.Sprintf("%.2fx", c.Report.OutputThroughput()/b)
		}
		rows = append(rows, []string{
			c.Policy,
			fmt.Sprintf("%d", c.Replicas),
			fmt.Sprintf("%d", c.Report.GPUs),
			fmt.Sprintf("%.0f", c.Report.OutputThroughput()),
			speedup,
			fmt.Sprintf("%.1f", 100*c.Report.MeanUtilization),
			fmt.Sprintf("%d/%d", c.MinShard, c.MaxShard),
		})
	}
	return renderTable("Fleet: data-parallel TD-Pipe replicas (4xA100 + 70B each)", header, rows)
}
