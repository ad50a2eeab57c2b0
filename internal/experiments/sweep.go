package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
)

// Design-choice sweeps: ablation benches for two knobs beyond the
// paper's own figures — the TD-Pipe prefill batch size and the
// chunked-prefill token budget of the hybrid baselines.

// SweepRow is one setting of a sweep.
type SweepRow struct {
	Param        string
	Value        int
	TokensPerSec float64
}

// SweepPrefillBatch varies TD-Pipe's MaxPrefillTokens on 4xA100 + 70B.
// Larger batches amortize per-pass overheads but coarsen Algorithm 1's
// admission granularity.
func SweepPrefillBatch(env *Env) ([]SweepRow, error) {
	var rows []SweepRow
	for _, tokens := range []int{512, 1024, 2048, 4096, 8192} {
		cfg := servingConfig(env)
		cfg.MaxPrefillTokens = tokens
		res, err := core.Run(cfg, env.Requests)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{"MaxPrefillTokens", tokens, res.Report.OutputThroughput()})
	}
	return rows, nil
}

// SweepChunkTokens varies the hybrid baselines' per-iteration token
// budget (vLLM's max_num_batched_tokens) on 4xA100 + 70B: small budgets
// starve decode batches, huge ones reintroduce prefill-decode
// imbalance.
func SweepChunkTokens(env *Env) ([]SweepRow, error) {
	var rows []SweepRow
	for _, tokens := range []int{256, 512, 1024, 2048} {
		cfg := baselines.DefaultConfig(hw.A100, model.Llama2_70B, 4, baselines.PPHB)
		cfg.ChunkTokens = tokens
		res, err := baselines.Run(cfg, env.Requests)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{"ChunkTokens", tokens, res.Report.OutputThroughput()})
	}
	return rows, nil
}

// FormatSweep renders sweep rows.
func FormatSweep(title string, rows []SweepRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Param, fmt.Sprintf("%d", r.Value), fmt.Sprintf("%.0f", r.TokensPerSec)})
	}
	return renderTable(title, []string{"parameter", "value", "tokens/s"}, out)
}
