package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/plot"
)

// Fig2Result holds the two utilization timelines of Figure 2: the
// chunked-prefill pipeline baseline (PP+HB) against TD-Pipe on the same
// workload and hardware.
type Fig2Result struct {
	Window   float64
	Baseline []metrics.UtilPoint
	TDPipe   []metrics.UtilPoint
	// Mean utilizations over each full run.
	BaselineMean, TDPipeMean float64
}

// Fig2 regenerates the GPU-utilization comparison on 4xL20 + 32B.
func Fig2(env *Env) (*Fig2Result, error) {
	node, spec := hw.L20, model.Qwen2_5_32B
	world := 4

	bres, err := baselines.Run(baselines.DefaultConfig(node, spec, world, baselines.PPHB), env.Requests)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(node, spec, world)
	cfg.Predictor = env.Classifier
	cfg.RecordBusy = true
	tres, err := core.Run(cfg, env.Requests)
	if err != nil {
		return nil, err
	}
	window := bres.Report.Elapsed / 50
	if w2 := tres.Report.Elapsed / 50; w2 > window {
		window = w2
	}
	return &Fig2Result{
		Window:       window,
		Baseline:     bres.Rec.Timeline(window, bres.Report.Elapsed),
		TDPipe:       tres.Rec.Timeline(window, tres.Report.Elapsed),
		BaselineMean: bres.Report.MeanUtilization,
		TDPipeMean:   tres.Report.MeanUtilization,
	}, nil
}

// FormatFig2 renders both series as sparkline rows plus a shared line
// chart, the closest text analogue of the paper's two panels.
func FormatFig2(r *Fig2Result) string {
	rows := [][]string{
		{"vLLM chunked prefill PP", sparkline(r.Baseline), fmt.Sprintf("mean %.1f%%", 100*r.BaselineMean)},
		{"TD-Pipe", sparkline(r.TDPipe), fmt.Sprintf("mean %.1f%%", 100*r.TDPipeMean)},
	}
	out := renderTable("Figure 2: GPU utilization over time (4xL20 + 32B)",
		[]string{"system", "utilization timeline", ""}, rows)
	toSeries := func(name string, pts []metrics.UtilPoint) plot.Series {
		s := plot.Series{Name: name}
		for _, p := range pts {
			s.X = append(s.X, p.Time)
			s.Y = append(s.Y, p.Utilization)
		}
		return s
	}
	out += "\n" + plot.Line([]plot.Series{
		toSeries("vLLM chunked prefill PP", r.Baseline),
		toSeries("TD-Pipe", r.TDPipe),
	}, 72, 10, 1)
	return out
}

func sparkline(pts []metrics.UtilPoint) string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, len(pts))
	for i, p := range pts {
		g := int(p.Utilization * float64(len(glyphs)))
		if g >= len(glyphs) {
			g = len(glyphs) - 1
		}
		if g < 0 {
			g = 0
		}
		out[i] = glyphs[g]
	}
	return string(out)
}

// Fig6Row is one bar group of Figure 6: the prefill execution-time
// breakdown under tensor parallelism.
type Fig6Row struct {
	Node string
	GPUs int
	// Normalized is total time relative to the 1-GPU run.
	Normalized float64
	// ComputeFrac and CommFrac split the bar.
	ComputeFrac, CommFrac float64
}

// Fig6 regenerates the TP prefill breakdown: Llama-30B, 2048 prompts,
// L20 and A100 nodes, 1/2/4 GPUs (§2.2.3).
func Fig6(env *Env) ([]Fig6Row, error) {
	prompts := env.Pool
	if len(prompts) > 2048 {
		prompts = prompts[:2048]
	}
	var rows []Fig6Row
	for _, node := range []hw.Node{hw.L20, hw.A100} {
		cm, err := costmodel.New(node, model.Llama30B)
		if err != nil {
			return nil, err
		}
		base := 0.0
		for _, world := range []int{1, 2, 4} {
			var comp, comm float64
			// Batch prompts as the serving engine would (2048-token
			// prefill batches).
			var lens []int
			tokens := 0
			flush := func() {
				if len(lens) == 0 {
					return
				}
				c, m := cm.TPPrefill(world, costmodel.NewPrefillBatch(lens))
				comp += c
				comm += m
				lens, tokens = nil, 0
			}
			for _, r := range prompts {
				lens = append(lens, r.InputLen)
				tokens += r.InputLen
				if tokens >= 2048 {
					flush()
				}
			}
			flush()
			total := comp + comm
			if world == 1 {
				base = total
			}
			rows = append(rows, Fig6Row{
				Node:        node.Name,
				GPUs:        world,
				Normalized:  total / base,
				ComputeFrac: comp / total,
				CommFrac:    comm / total,
			})
		}
	}
	return rows, nil
}

// FormatFig6 renders the breakdown table.
func FormatFig6(rows []Fig6Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Node, fmt.Sprintf("%d", r.GPUs),
			fmt.Sprintf("%.2f", r.Normalized),
			fmt.Sprintf("%.1f%%", 100*r.ComputeFrac),
			fmt.Sprintf("%.1f%%", 100*r.CommFrac),
		})
	}
	return renderTable("Figure 6: TP prefill time breakdown (Llama-30B, 2048 prompts)",
		[]string{"node", "GPUs", "normalized time", "computation", "communication"}, out)
}

// Fig12Result is the KV-usage timeline of Figure 12.
type Fig12Result struct {
	Points []metrics.KVPoint
	Peak   float64
	// PhaseSwitches counts prefill<->decode alternations.
	PhaseSwitches int
}

// Fig12 regenerates the KV-cache fluctuation trace on 4xA100 + 70B.
func Fig12(env *Env) (*Fig12Result, error) {
	cfg := servingConfig(env)
	cfg.RecordKV = true
	res, err := core.Run(cfg, env.Requests)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{
		Points:        res.KV.Points,
		Peak:          res.KV.Peak(),
		PhaseSwitches: res.KV.PhaseSwitches(),
	}, nil
}

// FormatFig12 renders the usage trace compressed to a fixed width.
func FormatFig12(r *Fig12Result) string {
	const width = 72
	pts := r.Points
	line := make([]metrics.UtilPoint, 0, width)
	if len(pts) > 0 {
		stride := len(pts) / width
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(pts); i += stride {
			line = append(line, metrics.UtilPoint{Time: pts[i].Time, Utilization: pts[i].Usage})
		}
	}
	rows := [][]string{
		{"KV usage", sparkline(line)},
		{"peak", fmt.Sprintf("%.2f", r.Peak)},
		{"phase switches", fmt.Sprintf("%d", r.PhaseSwitches)},
	}
	out := renderTable("Figure 12: KV cache memory usage over steps (4xA100 + 70B)",
		[]string{"", ""}, rows)
	s := plot.Series{Name: "KV usage ratio"}
	for _, p := range r.Points {
		s.X = append(s.X, float64(p.Step))
		s.Y = append(s.Y, p.Usage)
	}
	out += "\n" + plot.Line([]plot.Series{s}, 72, 10, 1)
	return out
}
