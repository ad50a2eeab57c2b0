package experiments

import (
	"strings"
	"sync"
	"testing"
)

// Tests share one Env (trace generation + predictor training are the
// slow parts) and a cached Fig11 grid.
var (
	envOnce sync.Once
	envInst *Env
	envErr  error

	fig11Once  sync.Once
	fig11Cells []Fig11Cell
	fig11Err   error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { envInst, envErr = NewEnv(Quick()) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envInst
}

func fig11Grid(t *testing.T) []Fig11Cell {
	t.Helper()
	env := testEnv(t)
	fig11Once.Do(func() { fig11Cells, fig11Err = Fig11(env) })
	if fig11Err != nil {
		t.Fatal(fig11Err)
	}
	return fig11Cells
}

func TestOptionsValidate(t *testing.T) {
	if err := Quick().Validate(); err != nil {
		t.Error(err)
	}
	if err := Paper().Validate(); err != nil {
		t.Error(err)
	}
	// Each refusal names the bound that failed.
	for _, tc := range []struct {
		o    Options
		want string
	}{
		{Options{PoolSize: 2000, Requests: 2001}, "Requests 2001 exceeds PoolSize 2000"},
		{Options{PoolSize: 99, Requests: 10}, "PoolSize 99 is below the minimum of 100"},
		{Options{PoolSize: 2000, Requests: 9}, "Requests 9 is below the minimum of 10"},
		{Options{}, "PoolSize 0 is below the minimum of 100"},
	} {
		if err := tc.o.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one naming %q", tc.o, err, tc.want)
		}
	}
}

func TestNewEnvBuildsEverything(t *testing.T) {
	env := testEnv(t)
	if len(env.Pool) != env.Opts.PoolSize || len(env.Requests) != env.Opts.Requests {
		t.Fatalf("env sizes: pool=%d sample=%d", len(env.Pool), len(env.Requests))
	}
	if env.Classifier == nil {
		t.Fatal("no classifier")
	}
	if acc := env.Classifier.Accuracy(env.Test); acc < 0.3 {
		t.Errorf("classifier accuracy = %v", acc)
	}
}

func TestFig11GridComplete(t *testing.T) {
	cells := fig11Grid(t)
	want := 4 * 3 * 5
	if len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if !c.OOM && c.TokensPerSec <= 0 {
			t.Errorf("cell %+v has no throughput and no OOM", c)
		}
	}
}

// Paper Fig. 11 headline: at 4 GPUs TD-Pipe beats every baseline in
// every node-model combination.
func TestFig11TDPipeWinsAtFourGPUs(t *testing.T) {
	cells := fig11Grid(t)
	for _, combo := range Fig11Combos() {
		td, ok := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, "TD-Pipe")
		if !ok || td.OOM {
			t.Fatalf("missing TD-Pipe cell for %s+%s", combo.Node.Name, combo.Spec.Name)
		}
		for _, sched := range []string{"TP+SB", "TP+HB", "PP+SB", "PP+HB"} {
			b, ok := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, sched)
			if !ok {
				t.Fatalf("missing %s cell", sched)
			}
			if b.OOM {
				continue
			}
			if td.TokensPerSec <= b.TokensPerSec {
				t.Errorf("%s+%s x4: TD-Pipe (%.0f) did not beat %s (%.0f)",
					combo.Node.Name, combo.Spec.Name, td.TokensPerSec, sched, b.TokensPerSec)
			}
		}
	}
}

// Paper: "up to 1.91x over TP and 2.73x over PP" — our factors must be
// comfortably above 1 and PP+SB must be the weakest pipeline baseline.
func TestFig11SpeedupFactors(t *testing.T) {
	cells := fig11Grid(t)
	var maxTP, maxPPSB float64
	for _, combo := range Fig11Combos() {
		td, _ := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, "TD-Pipe")
		tp, _ := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, "TP+SB")
		pp, _ := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, "PP+SB")
		if !td.OOM && !tp.OOM && td.TokensPerSec/tp.TokensPerSec > maxTP {
			maxTP = td.TokensPerSec / tp.TokensPerSec
		}
		if !td.OOM && !pp.OOM && td.TokensPerSec/pp.TokensPerSec > maxPPSB {
			maxPPSB = td.TokensPerSec / pp.TokensPerSec
		}
	}
	if maxTP < 1.2 || maxTP > 3.0 {
		t.Errorf("max TD/TP+SB factor = %.2f, want paper-like (1.91x) in [1.2, 3.0]", maxTP)
	}
	if maxPPSB < 1.5 || maxPPSB > 4.5 {
		t.Errorf("max TD/PP+SB factor = %.2f, want paper-like (2.73x) in [1.5, 4.5]", maxPPSB)
	}
	if maxPPSB <= maxTP {
		t.Errorf("PP+SB factor (%.2f) should exceed TP factor (%.2f) as in the paper", maxPPSB, maxTP)
	}
}

// Paper: hybrid batching helps pipeline parallelism (PP+HB > PP+SB)
// while TP+SB and TP+HB show fewer differences.
func TestFig11HybridBatchingEffects(t *testing.T) {
	cells := fig11Grid(t)
	for _, combo := range Fig11Combos() {
		ppsb, _ := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, "PP+SB")
		pphb, _ := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, "PP+HB")
		if ppsb.OOM || pphb.OOM {
			continue
		}
		if pphb.TokensPerSec <= ppsb.TokensPerSec {
			t.Errorf("%s+%s: PP+HB (%.0f) not above PP+SB (%.0f)",
				combo.Node.Name, combo.Spec.Name, pphb.TokensPerSec, ppsb.TokensPerSec)
		}
		tpsb, _ := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, "TP+SB")
		tphb, _ := FindCell(cells, combo.Node.Name, combo.Spec.Name, 4, "TP+HB")
		ratio := tphb.TokensPerSec / tpsb.TokensPerSec
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("%s+%s: TP+HB/TP+SB = %.2f, paper reports few differences",
				combo.Node.Name, combo.Spec.Name, ratio)
		}
	}
}

// Paper Fig. 11: the OOM pattern — 32B does not fit one L20; 70B does
// not fit 1-2 A100s; 13B fits everywhere on L20.
func TestFig11OOMPattern(t *testing.T) {
	cells := fig11Grid(t)
	for _, sched := range Fig11Schedulers() {
		if c, _ := FindCell(cells, "L20", "Qwen2.5-32B-Instruct", 1, sched); !c.OOM {
			t.Errorf("%s: 32B on one L20 not OOM", sched)
		}
		if c, _ := FindCell(cells, "A100", "Llama2-70B-chat", 1, sched); !c.OOM {
			t.Errorf("%s: 70B on one A100 not OOM", sched)
		}
		if c, _ := FindCell(cells, "A100", "Llama2-70B-chat", 2, sched); !c.OOM {
			t.Errorf("%s: 70B on two A100s not OOM", sched)
		}
		for _, gpus := range []int{1, 2, 4} {
			if c, _ := FindCell(cells, "L20", "Llama2-13B-chat", gpus, sched); c.OOM {
				t.Errorf("%s: 13B on %d L20s OOM", sched, gpus)
			}
		}
	}
}

// Paper §4.2: TD-Pipe shows super-linear speedup from 2 to 4 GPUs where
// memory capacity relief kicks in (L20 + 32B grew 2.97x).
func TestFig11SuperLinearScaling(t *testing.T) {
	cells := fig11Grid(t)
	td2, _ := FindCell(cells, "L20", "Qwen2.5-32B-Instruct", 2, "TD-Pipe")
	td4, _ := FindCell(cells, "L20", "Qwen2.5-32B-Instruct", 4, "TD-Pipe")
	if td2.OOM || td4.OOM {
		t.Fatal("unexpected OOM")
	}
	growth := td4.TokensPerSec / td2.TokensPerSec
	if growth <= 2.0 {
		t.Errorf("L20+32B 2->4 GPU growth = %.2fx, want super-linear (> 2)", growth)
	}
}

func TestFig2UtilizationGap(t *testing.T) {
	env := testEnv(t)
	r, err := Fig2(env)
	if err != nil {
		t.Fatal(err)
	}
	if r.TDPipeMean <= r.BaselineMean {
		t.Errorf("TD-Pipe utilization (%.2f) not above chunked-prefill PP (%.2f)",
			r.TDPipeMean, r.BaselineMean)
	}
	if len(r.Baseline) == 0 || len(r.TDPipe) == 0 {
		t.Error("empty timelines")
	}
	if s := FormatFig2(r); !strings.Contains(s, "TD-Pipe") {
		t.Error("format output incomplete")
	}
}

func TestFig6BreakdownShape(t *testing.T) {
	env := testEnv(t)
	rows, err := Fig6(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.GPUs == 1 && r.CommFrac != 0 {
			t.Errorf("%s x1: comm frac = %v, want 0", r.Node, r.CommFrac)
		}
		if r.GPUs == 4 && (r.CommFrac < 0.3 || r.CommFrac > 0.65) {
			t.Errorf("%s x4: comm frac = %v, want ~half (paper: 47-54%%)", r.Node, r.CommFrac)
		}
		if r.Normalized <= 0 || r.Normalized > 1.01 {
			t.Errorf("%s x%d: normalized = %v", r.Node, r.GPUs, r.Normalized)
		}
	}
	// A100's 4-GPU comm share exceeds L20's (paper: 53.9% vs 47.4%).
	var l20, a100 float64
	for _, r := range rows {
		if r.GPUs == 4 {
			if r.Node == "L20" {
				l20 = r.CommFrac
			} else {
				a100 = r.CommFrac
			}
		}
	}
	if a100 <= l20 {
		t.Errorf("A100 comm frac (%.2f) not above L20 (%.2f)", a100, l20)
	}
}

func TestFig12KVDynamics(t *testing.T) {
	env := testEnv(t)
	r, err := Fig12(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no KV points")
	}
	if r.Peak <= 0 || r.Peak > 1 {
		t.Errorf("peak = %v", r.Peak)
	}
	// Usage must decline to ~zero at the end (all requests finished).
	last := r.Points[len(r.Points)-1]
	if last.Usage > 0.2 {
		t.Errorf("final usage = %v", last.Usage)
	}
}

// Paper Fig. 13: the AI-based greedy prefill beats (or matches within
// noise) every fixed occupancy ratio.
func TestFig13GreedyPrefillCompetitive(t *testing.T) {
	env := testEnv(t)
	rows, err := Fig13(env)
	if err != nil {
		t.Fatal(err)
	}
	assertAdaptiveBest(t, rows, "TD-Pipe", 0.97)
}

// Paper Fig. 15: stealing gives 1.07-1.14x; at least it must not hurt.
func TestFig15WorkStealingHelps(t *testing.T) {
	env := testEnv(t)
	rows, err := Fig15(env)
	if err != nil {
		t.Fatal(err)
	}
	byConfig := map[string]map[string]float64{}
	for _, r := range rows {
		k := r.Node + r.Model
		if byConfig[k] == nil {
			byConfig[k] = map[string]float64{}
		}
		byConfig[k][r.Label] = r.TokensPerSec
	}
	for k, m := range byConfig {
		if m["wi"] < m["wo"]*0.98 {
			t.Errorf("%s: stealing hurt: wi=%.0f wo=%.0f", k, m["wi"], m["wo"])
		}
	}
}

// Paper Fig. 16: the intensity comparison is at least as good as every
// fixed finish ratio.
func TestFig16IntensityCompetitive(t *testing.T) {
	env := testEnv(t)
	rows, err := Fig16(env)
	if err != nil {
		t.Fatal(err)
	}
	assertAdaptiveBest(t, rows, "TD-Pipe", 0.97)
}

// assertAdaptiveBest checks per config that the adaptive label is within
// slack of the best fixed setting (and usually above it).
func assertAdaptiveBest(t *testing.T, rows []AblationRow, label string, slack float64) {
	t.Helper()
	type cfg struct{ node, mdl string }
	best := map[cfg]float64{}
	adaptive := map[cfg]float64{}
	for _, r := range rows {
		k := cfg{r.Node, r.Model}
		if r.Label == label {
			adaptive[k] = r.TokensPerSec
			continue
		}
		if r.TokensPerSec > best[k] {
			best[k] = r.TokensPerSec
		}
	}
	for k, a := range adaptive {
		if a < best[k]*slack {
			t.Errorf("%v: adaptive %.0f below best fixed %.0f", k, a, best[k])
		}
	}
}

func TestFig14PredictorQuality(t *testing.T) {
	env := testEnv(t)
	r, err := Fig14(env)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range r.ModelNames {
		if r.Accuracies[i] < 0.30 || r.Accuracies[i] > 0.85 {
			t.Errorf("%s accuracy = %v, outside paper-like range", name, r.Accuracies[i])
		}
		if r.Accuracies[i] <= r.Baselines[i] {
			t.Errorf("%s accuracy below majority baseline", name)
		}
		first, last := r.AccumErr[i][0], r.AccumErr[i][len(r.AccumErr[i])-1]
		if last >= first {
			t.Errorf("%s accumulated error did not shrink: %v -> %v", name, first, last)
		}
		if last > 0.15 {
			t.Errorf("%s error at 512 = %v, want small (paper: 2.8-6.2%% at 256)", name, last)
		}
	}
}

func TestFormatters(t *testing.T) {
	env := testEnv(t)
	cells := fig11Grid(t)
	if s := FormatFig11(cells); !strings.Contains(s, "OOM") || !strings.Contains(s, "TD-Pipe") {
		t.Error("Fig11 format incomplete")
	}
	rows6, err := Fig6(env)
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatFig6(rows6); !strings.Contains(s, "communication") {
		t.Error("Fig6 format incomplete")
	}
	r14, err := Fig14(env)
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatFig14(r14); !strings.Contains(s, "accuracy") {
		t.Error("Fig14 format incomplete")
	}
	if s := FormatTable1(); !strings.Contains(s, "L20") || !strings.Contains(s, "A100") {
		t.Error("Table1 format incomplete")
	}
	if s := FormatTable2(); !strings.Contains(s, "Llama2-70B-chat") {
		t.Error("Table2 format incomplete")
	}
	if s := FormatAblation("x", []AblationRow{{"n", "m", "l", 1}}); !strings.Contains(s, "tokens/s") {
		t.Error("ablation format incomplete")
	}
}

// Paper §2.2.2: offloading stops scaling with GPU count (root-complex
// contention) while TD-Pipe's pipeline uses the same GPUs effectively.
func TestOffloadMotivation(t *testing.T) {
	env := testEnv(t)
	rows, err := Offload(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	var off1, off4, td float64
	for _, r := range rows {
		switch {
		case r.System == "Offload" && r.GPUs == 1:
			off1 = r.TokensPerSec
		case r.System == "Offload" && r.GPUs == 4:
			off4 = r.TokensPerSec
		case r.System == "TD-Pipe":
			td = r.TokensPerSec
		}
	}
	if off4 > 2.2*off1 {
		t.Errorf("offload scaled %0.2fx from 1 to 4 GPUs; contention should cap it", off4/off1)
	}
	if td <= off4 {
		t.Errorf("TD-Pipe (%.0f) did not beat 4-GPU offloading (%.0f)", td, off4)
	}
	if s := FormatOffload(rows); !strings.Contains(s, "Offload") {
		t.Error("format incomplete")
	}
}

// Design-choice sweeps: every setting must complete, and the defaults
// must be competitive (within 10% of the best swept value).
func TestSweeps(t *testing.T) {
	env := testEnv(t)
	pb, err := SweepPrefillBatch(env)
	if err != nil {
		t.Fatal(err)
	}
	var best, def float64
	for _, r := range pb {
		if r.TokensPerSec > best {
			best = r.TokensPerSec
		}
		if r.Value == 2048 {
			def = r.TokensPerSec
		}
	}
	if def < 0.9*best {
		t.Errorf("default MaxPrefillTokens=2048 (%.0f) more than 10%% below best (%.0f)", def, best)
	}
	ct, err := SweepChunkTokens(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ct {
		if r.TokensPerSec <= 0 {
			t.Errorf("chunk sweep %d produced no throughput", r.Value)
		}
	}
	if s := FormatSweep("t", pb); !strings.Contains(s, "MaxPrefillTokens") {
		t.Error("sweep format incomplete")
	}
}
