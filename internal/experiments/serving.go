package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// Set-up shared by the serving studies (fleet, online, prefix, disagg,
// faults, chaos, autoscale), Fig. 12 and the sweeps.

// servingConfig is one 4xA100 + 70B TD-Pipe replica on the env's
// trained predictor, with no SLO set.
func servingConfig(e *Env) core.Config {
	cfg := core.DefaultConfig(hw.A100, model.Llama2_70B, 4)
	cfg.Predictor = e.Classifier
	return cfg
}

// sloConfig is servingConfig scored against the default SLO.
func sloConfig(e *Env) core.Config {
	cfg := servingConfig(e)
	cfg.SLO = metrics.DefaultSLO()
	return cfg
}

// errDegenerate reports a calibration run that finished without a
// makespan.
var errDegenerate = errors.New("degenerate calibration run")

// calibrate serves reqs closed-loop on one replica of cfg for the named
// study: its makespan bounds the replica's service rate. A run without
// a makespan returns errDegenerate, still with its report.
func calibrate(study string, cfg core.Config, reqs []workload.Request) (metrics.Report, error) {
	res, err := core.Run(cfg, reqs)
	if err != nil {
		return metrics.Report{}, err
	}
	if res.Report.Elapsed <= 0 {
		return res.Report, fmt.Errorf("experiments: %s: %w", study, errDegenerate)
	}
	return res.Report, nil
}

// serve runs reqs on a colocated fleet under a fresh dispatch policy of
// the named kind (seeded and predicted from e).
func serve(e *Env, cfg core.Config, reqs []workload.Request, policy string, sc fleet.ServeConfig) (*fleet.Result, error) {
	p, err := fleet.New(policy, fleet.Options{Seed: e.Opts.Seed, Predictor: e.Classifier})
	if err != nil {
		return nil, err
	}
	sc.Policy = p
	return fleet.Serve(cfg, reqs, sc)
}

// faultReplicas is the fleet size of the faults and chaos studies.
const faultReplicas = 4

// faultStudy is the scaffold the faults and chaos studies share: a
// Poisson trace at 80% of the fleet's closed-loop service rate, so the
// fault-free control has headroom, and crash timings scaled to that
// control's makespan.
type faultStudy struct {
	e    *Env
	cfg  core.Config
	open []workload.Request
	// control is the fault-free run.
	control metrics.Report
	// restartDelay and downtime are each crash's process restart and
	// its whole outage (restart plus reloading the largest pipeline
	// stage's weights over the host link); ckptInterval is the
	// checkpointing cadence, all scaled to the control's makespan.
	restartDelay, downtime, ckptInterval float64
}

// newFaultStudy calibrates the named study, stamps the arrivals at e's
// seed plus arrivalSeed, and serves the fault-free control.
func newFaultStudy(e *Env, study string, arrivalSeed int64) (*faultStudy, error) {
	s := &faultStudy{e: e, cfg: sloConfig(e)}
	offline, err := calibrate(study, s.cfg, e.Requests)
	if err != nil {
		return nil, err
	}
	rate := 0.8 * faultReplicas * float64(len(e.Requests)) / offline.Elapsed
	acfg := workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Rate: rate, Seed: e.Opts.Seed + arrivalSeed}
	if s.open, err = acfg.Stamp(e.Requests); err != nil {
		return nil, err
	}
	control, err := serve(e, s.cfg, s.open, fleet.LeastWork, fleet.ServeConfig{Replicas: faultReplicas})
	if err != nil {
		return nil, err
	}
	s.control = control.Report
	makespan := control.Report.Elapsed
	s.restartDelay = makespan / 50
	s.downtime = s.restartDelay + faults.WeightReloadTime(s.cfg.Node, s.cfg.Spec, s.cfg.World)
	s.ckptInterval = makespan / 8
	return s, nil
}

// faultConfig is a fault config over the control's makespan at e's seed
// plus seed, with the study's restart delay and checkpoint cadence ckpt
// (0 for recompute-only recovery).
func (s *faultStudy) faultConfig(seed int64, ckpt float64) faults.Config {
	return faults.Config{
		Seed:               s.e.Opts.Seed + seed,
		Horizon:            s.control.Elapsed,
		RestartDelay:       s.restartDelay,
		CheckpointInterval: ckpt,
	}
}

// serve runs the trace on the colocated fleet under the plan drawn from
// fc.
func (s *faultStudy) serve(fc faults.Config) (metrics.Report, error) {
	plan, err := faults.NewPlan(fc, faultReplicas, s.downtime)
	if err != nil {
		return metrics.Report{}, err
	}
	res, err := serve(s.e, s.cfg, s.open, fleet.LeastWork, fleet.ServeConfig{Replicas: faultReplicas, Faults: plan})
	if err != nil {
		return metrics.Report{}, err
	}
	return res.Report, nil
}

// disagg runs the trace on a 2P+2D split under the plan drawn from fc.
func (s *faultStudy) disagg(fc faults.Config) (metrics.Report, error) {
	plan, err := faults.NewPlan(fc, faultReplicas, s.downtime)
	if err != nil {
		return metrics.Report{}, err
	}
	res, err := fleet.Serve(s.cfg, s.open, fleet.ServeConfig{PrefillReplicas: 2, DecodeReplicas: 2, Faults: plan})
	if err != nil {
		return metrics.Report{}, err
	}
	return res.Report, nil
}
