// Command tdpipe-bench is the end-to-end benchmark of the simulator. It
// runs fixed serving scenarios (see scenarios), each in child processes
// of its own, and prints host metrics (wall time of the run call, set-up
// time, peak RSS) with the simulated results, then checks them: every
// request finishes exactly once or is dropped, repeated runs give
// byte-identical output, and at seed 1 the output digest matches the
// golden in testdata/golden.json.
//
// Usage, from this directory:
//
//	go run .                                   # all workloads, untraced
//	go run . -workload prefix-chat -trace 1    # plus per-layer metrics
//	go run . -seed 1 -update testdata/golden.json
//
// With -trace 1 a further child wraps the dispatch policy and length
// predictor with timers and CPU-profiles the run call alone; the
// profile is folded by `go tool pprof -traces` into self time per
// simulator layer. A fleet workload also runs once at one worker to
// measure the fabric's two-worker speedup. Traced, one-worker and
// untraced runs must all produce the same digest.
//
// The last line printed for a workload is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end-to-end metrics, or with -trace 1 the per-layer ones.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number: its unit, which direction is better
// and, for end-to-end metrics, by what share of the baseline median it
// may worsen before a change counts as a regression.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the host costs a user of the simulator waits on and
// pays for, each the median over the untraced runs of one invocation.
// The bounds are as tight as a shared 2-vCPU VM allows: there the time
// of a fixed simulation drifts between two modes about 37% apart, in
// phases that can outlast an invocation, so ten invocations at
// different seeds spread by 4% to 28% (IQR over median).
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of a traced invocation. The sim_* values are
// the simulated serving results (virtual seconds, "sim-s"); they depend
// only on the inputs and must not move in a change that claims only
// speed. They vary too much across seeds to carry a bound, so the
// golden digest guards them instead.
var perLayer = func() []metric {
	ms := []metric{
		{name: "sim_output_tok_s", unit: "tok/sim-s", better: "higher"},
		{name: "sim_ttft_p50_s", unit: "sim-s", better: "lower"},
		{name: "sim_ttft_p99_s", unit: "sim-s", better: "lower"},
		{name: "sim_tpot_p99_s", unit: "sim-s", better: "lower"},
		{name: "sim_goodput_pct", unit: "%", better: "higher"},
		{name: "sim_dropped", unit: "requests", better: "lower"},
	}
	for _, l := range layers {
		ms = append(ms, metric{name: l + ".self_s", unit: "s", better: "lower"})
	}
	return append(ms, []metric{
		{name: "trace.cpu_s", unit: "s", better: "lower"},
		{name: "trace.overhead_pct", unit: "%", better: "lower"},
		{name: "sim.ns_per_event", unit: "ns/event", better: "lower"},
		{name: "core.us_per_request", unit: "us/request", better: "lower"},
		{name: "kvcache.us_per_request", unit: "us/request", better: "lower"},
		{name: "fleet.router.ns_per_arrival", unit: "ns/arrival", better: "lower"},
		{name: "fleet.policy.ns_per_pick", unit: "ns/pick", better: "lower"},
		{name: "predictor.ns_per_predict", unit: "ns/predict", better: "lower"},
		{name: "fleet.fabric.speedup_w2", unit: "x", better: "higher"},
		{name: "workload.gen_s", unit: "s", better: "lower"},
		{name: "predictor.train_s", unit: "s", better: "lower"},
		{name: "go.alloc_mb", unit: "MB", better: "lower"},
		{name: "go.gc_cycles", unit: "count", better: "lower"},
		{name: "sim.events", unit: "count", better: "lower"},
		{name: "fleet.policy.picks", unit: "count", better: "lower"},
		{name: "predictor.predicts", unit: "count", better: "lower"},
		{name: "core.util_pct", unit: "%", better: "higher"},
		{name: "core.phase_switches", unit: "count", better: "lower"},
		{name: "core.recomputes", unit: "count", better: "lower"},
		{name: "core.kv_peak_pct", unit: "%", better: "lower"},
		{name: "kvcache.prefix_hit_pct", unit: "%", better: "higher"},
		{name: "fleet.handoffs", unit: "count", better: "lower"},
		{name: "fleet.handoffs_queued", unit: "count", better: "lower"},
		{name: "fleet.kv_migrated_gb", unit: "GB", better: "lower"},
		{name: "faults.crashes", unit: "count", better: "lower"},
		{name: "faults.aborted", unit: "count", better: "lower"},
		{name: "faults.recovered", unit: "count", better: "higher"},
		{name: "faults.checkpoints", unit: "count", better: "lower"},
		{name: "policy.shed", unit: "count", better: "lower"},
		{name: "policy.retries", unit: "count", better: "lower"},
		{name: "policy.breaker_skips", unit: "count", better: "lower"},
		{name: "policy.scale_events", unit: "count", better: "lower"},
		{name: "policy.gpu_hours", unit: "GPU-h", better: "lower"},
	}...)
}()

// minRuns is the fewest untraced runs per workload: two, so run-to-run
// identity is checked at every seed.
const minRuns = 2

//go:embed testdata/golden.json
var goldenJSON []byte

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	update   string
	child    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; digests are checked against the goldens at seed 1")
	flag.Float64Var(&o.seconds, "seconds", 15, "start untraced runs of a workload while the next should end within this many seconds (at least 2 runs)")
	flag.IntVar(&o.trace, "trace", 0, "1 adds a traced run and reports the per-layer metrics")
	flag.StringVar(&o.update, "update", "", "write the digests of this invocation to this golden file (needs -seed 1)")
	flag.BoolVar(&o.child, "child", false, "internal: run the job read from stdin and print its measurement")
	flag.Parse()
	var err error
	if o.child {
		err = child()
	} else {
		err = parent(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdpipe-bench:", err)
		os.Exit(1)
	}
}

// child runs one job in this process and prints its measurement as
// JSON on stdout.
func child() error {
	var j job
	if err := json.NewDecoder(os.Stdin).Decode(&j); err != nil {
		return fmt.Errorf("child: read job: %w", err)
	}
	m, err := measure(j)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(m)
}

func parent(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.update != "" && o.seed != 1 {
		return errors.New("-update records seed-1 goldens: run it with -seed 1")
	}
	todo := scenarios
	if o.workload != "" {
		s, err := lookup(o.workload)
		if err != nil {
			return err
		}
		todo = []scenario{s}
	}
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	ok := true
	for _, s := range todo {
		want := golden[s.name]
		if o.seed != 1 || o.update != "" {
			want = "" // goldens hold seed 1, and -update replaces them
		}
		r, err := bench(s, o, want)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r.print(s, o)
		ok = ok && r.failed == 0
		golden[s.name] = r.digest
	}
	if o.update != "" {
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.update, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return errors.New("correctness check failed")
	}
	return nil
}

// result is one workload's outcome across all of its child runs.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	digest    string
	golden    string // "ok", "MISMATCH" or "not checked"
	runs      int
}

// check accounts one child run: its requests are attempted, and all of
// them fail when its digest differs from want (when want is set).
func (r *result) check(m *measurement, want, what string) {
	r.attempted += m.Requests
	failed := m.Failed
	if m.Problem != "" {
		r.problems = append(r.problems, what+": "+m.Problem)
	}
	if want != "" && m.Digest != want {
		failed = m.Requests
		r.problems = append(r.problems, fmt.Sprintf("%s: digest %.12s differs from %.12s", what, m.Digest, want))
	}
	r.failed += failed
}

// bench measures one workload: untraced runs for o.seconds, then with
// o.trace a traced run and, on a multi-worker workload, a one-worker
// run. Every run's digest must equal golden, or the first run's digest
// when golden is empty.
func bench(s scenario, o options, golden string) (*result, error) {
	r := &result{metrics: map[string]float64{}, golden: "not checked"}
	want := golden // later runs must repeat the first when there is none
	var runs []*measurement
	var rss []float64
	// Start another run only while it should end within o.seconds.
	start, last := time.Now(), 0.0
	for len(runs) < minRuns || time.Since(start).Seconds()+last <= o.seconds {
		t := time.Now()
		m, mb, err := spawn(job{Workload: s.name, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		last = time.Since(t).Seconds()
		r.check(m, want, fmt.Sprintf("run %d", len(runs)+1))
		if want == "" {
			want = m.Digest
		}
		runs = append(runs, m)
		rss = append(rss, mb)
	}
	first := runs[0]
	r.digest, r.runs = first.Digest, len(runs)
	if golden != "" {
		r.golden = "ok"
		if first.Digest != golden {
			r.golden = "MISMATCH"
		}
	}
	med := func(f func(*measurement) float64) float64 {
		vs := make([]float64, len(runs))
		for i, m := range runs {
			vs[i] = f(m)
		}
		return median(vs)
	}
	wall := med(func(m *measurement) float64 { return m.WallS })
	r.metrics["wall_s"] = wall
	r.metrics["setup_s"] = med(func(m *measurement) float64 { return m.SetupS })
	r.metrics["max_rss_mb"] = median(rss)
	r.metrics["workload.gen_s"] = med(func(m *measurement) float64 { return m.GenS })
	r.metrics["predictor.train_s"] = med(func(m *measurement) float64 { return m.TrainS })
	r.metrics["go.alloc_mb"] = med(func(m *measurement) float64 { return m.AllocMB })
	r.metrics["go.gc_cycles"] = med(func(m *measurement) float64 { return m.GCCycles })
	for k, v := range first.Sim {
		r.metrics[k] = v
	}
	if o.trace == 0 {
		return r, nil
	}

	speedup := 1.0 // a single engine has no fabric to parallelize
	if s.workers > 1 {
		m, _, err := spawn(job{Workload: s.name, Seed: o.seed, Workers: 1})
		if err != nil {
			return nil, err
		}
		r.check(m, want, "one-worker run")
		speedup = m.WallS / wall
	}
	r.metrics["fleet.fabric.speedup_w2"] = speedup

	dir, err := os.MkdirTemp("", "tdpipe-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	profile := filepath.Join(dir, "cpu.pprof")
	t, _, err := spawn(job{Workload: s.name, Seed: o.seed, Trace: true, Profile: profile})
	if err != nil {
		return nil, err
	}
	r.check(t, want, "traced run")
	self, err := profileLayers(profile)
	if err != nil {
		return nil, err
	}
	for l, v := range self {
		r.metrics[l+".self_s"] = v
	}
	n := float64(t.Requests)
	per := func(num, den, scale float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den * scale
	}
	r.metrics["trace.cpu_s"] = t.CPUS
	r.metrics["trace.overhead_pct"] = 100 * (t.WallS/wall - 1)
	r.metrics["sim.ns_per_event"] = per(self["sim"], r.metrics["sim.events"], 1e9)
	r.metrics["core.us_per_request"] = per(self["core"], n, 1e6)
	r.metrics["kvcache.us_per_request"] = per(self["kvcache"], n, 1e6)
	r.metrics["fleet.router.ns_per_arrival"] = per(self["fleet.router"], n, 1e9)
	r.metrics["fleet.policy.ns_per_pick"] = per(float64(t.PickNs), float64(t.Picks), 1)
	r.metrics["predictor.ns_per_predict"] = per(float64(t.PredictNs), float64(t.Predicts), 1)
	r.metrics["fleet.policy.picks"] = float64(t.Picks)
	r.metrics["predictor.predicts"] = float64(t.Predicts)
	return r, nil
}

// spawn runs one job in a child process of this executable and returns
// its measurement and the child's peak resident set in MB.
func spawn(j job) (*measurement, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "-child")
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child %+v: %w", j, err)
	}
	var m measurement
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		return nil, 0, fmt.Errorf("child %+v: %w", j, err)
	}
	// Linux reports Maxrss in KiB.
	rss := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	return &m, rss, nil
}

// print writes every metric by name with its unit, the correctness
// verdict, and the JSON result line.
func (r *result) print(s scenario, o options) {
	fmt.Printf("== %s (seed %d, %d untraced runs)\n", s.name, o.seed, r.runs)
	fmt.Printf("   %s\n", s.cmdline())
	show := func(ms []metric) {
		for _, m := range ms {
			if v, ok := r.metrics[m.name]; ok {
				fmt.Printf("   %-30s %16.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	show(endToEnd)
	show(perLayer) // those an untraced invocation measured
	fmt.Printf("   digest %s, golden %s\n", r.digest, r.golden)
	for _, p := range r.problems {
		fmt.Printf("   FAILED %s\n", p)
	}
	report := endToEnd
	if o.trace == 1 {
		report = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range report {
		line.Metrics[m.name] = value{r.metrics[m.name], m.unit}
	}
	b, err := json.Marshal(line) // map keys come out sorted
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdpipe-bench:", err)
		return
	}
	fmt.Println(string(b))
}

// median of vs (the mean of the middle two for an even count).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
