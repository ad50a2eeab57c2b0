package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// timedPolicy times every Pick of the wrapped dispatch policy. Routers
// call Pick on the fabric's control timeline only, so plain counters
// suffice.
type timedPolicy struct {
	fleet.Policy
	picks, ns int64
}

// Pick forwards to the wrapped policy and accumulates its duration.
func (p *timedPolicy) Pick(r workload.Request, loads []fleet.Load) int {
	t := time.Now()
	i := p.Policy.Pick(r, loads)
	p.ns += time.Since(t).Nanoseconds()
	p.picks++
	return i
}

// timedPredictor times every PredictLen of the wrapped predictor.
// Engines predict on shard workers, so the counters are atomic.
type timedPredictor struct {
	inner        core.LenPredictor
	predicts, ns atomic.Int64
}

// PredictLen forwards to the wrapped predictor and accumulates its
// duration.
func (p *timedPredictor) PredictLen(r workload.Request) int {
	t := time.Now()
	n := p.inner.PredictLen(r)
	p.ns.Add(time.Since(t).Nanoseconds())
	p.predicts.Add(1)
	return n
}

// job is what the parent asks one child process to do.
type job struct {
	Workload string
	Seed     int64
	Scale    float64
	// Workers overrides the scenario's worker count when positive.
	Workers int
	// Trace wraps the policy and predictor and CPU-profiles the run
	// call into Profile.
	Trace   bool
	Profile string
}

// measurement is one child's report: host timings of setup and of the
// run call, the output digest, and the simulated metrics.
type measurement struct {
	Requests int
	// Failed counts requests not accounted for exactly once (finished
	// xor dropped); every request when the run errored.
	Failed  int
	Problem string
	Digest  string

	SetupS, GenS, TrainS float64
	WallS, CPUS          float64
	AllocMB              float64
	GCCycles             float64

	Picks, PickNs, Predicts, PredictNs int64

	// Sim holds the simulated outputs by metric name. They depend only
	// on the inputs, so they repeat exactly run to run.
	Sim map[string]float64
}

// measure sets up and runs one scenario in this process.
func measure(j job) (*measurement, error) {
	s, err := lookup(j.Workload)
	if err != nil {
		return nil, err
	}
	if j.Scale > 0 {
		s = s.scaled(j.Scale)
	}
	m := &measurement{Requests: s.requests}
	start := time.Now()
	in, err := s.setup(j.Seed, j.Trace)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", s.name, err)
	}
	m.SetupS = time.Since(start).Seconds()
	m.GenS, m.TrainS = in.genS, in.trainS

	var before, after runtime.MemStats
	runtime.GC() // set-up's garbage is not the run call's to collect
	runtime.ReadMemStats(&before)
	var prof *os.File
	if j.Profile != "" {
		if prof, err = os.Create(j.Profile); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	cpu0 := cpuSeconds()
	start = time.Now()
	out, runErr := s.run(in, j.Workers)
	m.WallS = time.Since(start).Seconds()
	m.CPUS = cpuSeconds() - cpu0
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	m.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m.GCCycles = float64(after.NumGC - before.NumGC)
	if p := in.timedPol; p != nil {
		m.Picks, m.PickNs = p.picks, p.ns
	}
	if p := in.timedPred; p != nil {
		m.Predicts, m.PredictNs = p.predicts.Load(), p.ns.Load()
	}
	if runErr != nil {
		m.Failed, m.Problem = s.requests, runErr.Error()
		return m, nil
	}
	if m.Digest, err = digest(out); err != nil {
		return nil, err
	}
	var dropped int
	dropped, m.Failed, m.Problem = conservation(out, s.requests)
	m.Sim = simMetrics(out, dropped)
	return m, nil
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// digest is the SHA-256 of json.Marshal(struct{Report; Records}) for
// the run. The records are encoded one at a time so the digest does not
// add the whole encoding to the process's peak memory; the bytes hashed
// are exactly those json.Marshal produces for the struct.
func digest(o *outcome) (string, error) {
	h := sha256.New()
	write := func(prefix string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		h.Write([]byte(prefix))
		h.Write(b)
		return nil
	}
	if err := write(`{"Report":`, o.report); err != nil {
		return "", err
	}
	if len(o.records) == 0 {
		if err := write(`,"Records":`, o.records); err != nil {
			return "", err
		}
	} else {
		sep := `,"Records":[`
		for _, r := range o.records {
			if err := write(sep, r); err != nil {
				return "", err
			}
			sep = ","
		}
		h.Write([]byte("]"))
	}
	h.Write([]byte("}"))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// conservation checks that each of the n trace requests finished
// exactly once xor was dropped with the report accounting for it. It
// returns the drop count, the number of requests that break the rule
// and a description of the first.
func conservation(o *outcome, n int) (dropped, failed int, problem string) {
	fail := func(format string, args ...any) {
		failed++
		if problem == "" {
			problem = fmt.Sprintf(format, args...)
		}
	}
	if len(o.records) != n {
		return 0, n, fmt.Sprintf("%d records for %d requests", len(o.records), n)
	}
	finished := 0
	for i, r := range o.records {
		switch {
		case r.ID != i:
			fail("record %d carries ID %d", i, r.ID)
		case r.Finished():
			finished++
		case r.OutputTokens == 0 && r.FirstToken == 0 && r.Finish == 0:
			dropped++
		default:
			fail("record %d is neither finished nor dropped: %+v", i, r)
		}
	}
	rep := o.report
	if rep.Requests != finished {
		fail("report counts %d finished requests, records %d", rep.Requests, finished)
	}
	if want := rep.Faults.Dropped + rep.Admission.Dropped; want != dropped {
		fail("report counts %d dropped requests, records %d", want, dropped)
	}
	return dropped, failed, problem
}

// simMetrics extracts the simulated outputs the benchmark reports.
func simMetrics(o *outcome, dropped int) map[string]float64 {
	rep := o.report
	gpuHours := rep.Autoscale.GPUSeconds / 3600
	if gpuHours == 0 {
		gpuHours = float64(rep.GPUs) * rep.Elapsed / 3600
	}
	return map[string]float64{
		"sim_output_tok_s": rep.OutputThroughput(),
		"sim_ttft_p50_s":   rep.Latency.TTFTP50,
		"sim_ttft_p99_s":   rep.Latency.TTFTP99,
		"sim_tpot_p99_s":   rep.Latency.TPOTP99,
		"sim_goodput_pct":  100 * rep.Latency.Goodput(),
		"sim_dropped":      float64(dropped),

		"sim.events":             float64(o.steps),
		"core.util_pct":          100 * rep.MeanUtilization,
		"core.phase_switches":    float64(rep.PhaseSwitches),
		"core.recomputes":        float64(rep.Recomputes),
		"core.kv_peak_pct":       100 * rep.KVPeakUsage,
		"kvcache.prefix_hit_pct": 100 * rep.PrefixHitRate(),
		"fleet.handoffs":         float64(o.handoffs),
		"fleet.handoffs_queued":  float64(o.queuedHandoffs),
		"fleet.kv_migrated_gb":   o.movedBytes / 1e9,
		"faults.crashes":         float64(rep.Faults.Crashes),
		"faults.aborted":         float64(rep.Faults.AbortedRequests),
		"faults.recovered":       float64(rep.Faults.RecoveredRecompute + rep.Faults.RecoveredCheckpoint),
		"faults.checkpoints":     float64(rep.Faults.Checkpoints),
		"policy.shed":            float64(rep.Admission.Shed),
		"policy.retries":         float64(rep.Admission.Retries),
		"policy.breaker_skips":   float64(rep.Admission.BreakerSkips),
		"policy.scale_events":    float64(rep.Autoscale.ScaleUps + rep.Autoscale.ScaleDowns),
		"policy.gpu_hours":       gpuHours,
	}
}
