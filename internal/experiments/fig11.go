package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
)

// Combo is one node-model pairing from the paper's Figure 11.
type Combo struct {
	Node hw.Node
	Spec model.Spec
}

// Fig11Combos returns the four evaluated pairings: L20+13B, L20+32B,
// A100+32B, A100+70B.
func Fig11Combos() []Combo {
	return []Combo{
		{hw.L20, model.Llama2_13B},
		{hw.L20, model.Qwen2_5_32B},
		{hw.A100, model.Qwen2_5_32B},
		{hw.A100, model.Llama2_70B},
	}
}

// Fig11Schedulers lists the five compared systems in plot order.
func Fig11Schedulers() []string {
	return []string{"TP+SB", "TP+HB", "PP+SB", "PP+HB", "TD-Pipe"}
}

// Fig11Cell is one bar of Figure 11.
type Fig11Cell struct {
	Node      string
	Model     string
	GPUs      int
	Scheduler string
	// TokensPerSec is generated-token throughput; 0 when OOM.
	TokensPerSec float64
	OOM          bool
	// Utilization is the mean GPU busy fraction.
	Utilization float64
}

// Fig11 regenerates the overall-performance grid: every scheduler on
// every node-model combination at 1, 2 and 4 GPUs.
func Fig11(env *Env) ([]Fig11Cell, error) {
	var cells []Fig11Cell
	for _, combo := range Fig11Combos() {
		for _, gpus := range []int{1, 2, 4} {
			for _, sched := range Fig11Schedulers() {
				cell, err := runFig11Cell(env, combo, gpus, sched)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

func runFig11Cell(env *Env, combo Combo, gpus int, sched string) (Fig11Cell, error) {
	cell := Fig11Cell{Node: combo.Node.Name, Model: combo.Spec.Name, GPUs: gpus, Scheduler: sched}
	if sched == "TD-Pipe" {
		cfg := core.DefaultConfig(combo.Node, combo.Spec, gpus)
		cfg.Predictor = env.Classifier
		res, err := core.Run(cfg, env.Requests)
		if err != nil {
			cell.OOM = true
			return cell, nil
		}
		cell.TokensPerSec = res.Report.OutputThroughput()
		cell.Utilization = res.Report.MeanUtilization
		return cell, nil
	}
	method, ok := baselines.ParseMethod(sched)
	if !ok {
		return cell, fmt.Errorf("experiments: unknown scheduler %q", sched)
	}
	res, err := baselines.Run(baselines.DefaultConfig(combo.Node, combo.Spec, gpus, method), env.Requests)
	if err != nil {
		cell.OOM = true
		return cell, nil
	}
	cell.TokensPerSec = res.Report.OutputThroughput()
	cell.Utilization = res.Report.MeanUtilization
	return cell, nil
}

// FormatFig11 renders the grid as the paper's four sub-plots.
func FormatFig11(cells []Fig11Cell) string {
	var out string
	type key struct{ node, mdl string }
	groups := map[key][]Fig11Cell{}
	var order []key
	for _, c := range cells {
		k := key{c.Node, c.Model}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		header := []string{"scheduler", "1 GPU", "2 GPUs", "4 GPUs"}
		var rows [][]string
		for _, sched := range Fig11Schedulers() {
			row := []string{sched}
			for _, gpus := range []int{1, 2, 4} {
				val := "?"
				for _, c := range groups[k] {
					if c.Scheduler == sched && c.GPUs == gpus {
						if c.OOM {
							val = "OOM"
						} else {
							val = fmt.Sprintf("%.0f", c.TokensPerSec)
						}
					}
				}
				row = append(row, val)
			}
			rows = append(rows, row)
		}
		out += renderTable(fmt.Sprintf("Figure 11: throughput (tokens/s), %s + %s", k.node, k.mdl), header, rows) + "\n"
	}
	return out
}

// Fig11Cell lookup helper for tests and EXPERIMENTS.md claims.
func FindCell(cells []Fig11Cell, node, mdl string, gpus int, sched string) (Fig11Cell, bool) {
	for _, c := range cells {
		if c.Node == node && c.Model == mdl && c.GPUs == gpus && c.Scheduler == sched {
			return c, true
		}
	}
	return Fig11Cell{}, false
}
