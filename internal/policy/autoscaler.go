package policy

import "fmt"

// Signals is the windowed SLO view the router hands the autoscaler at
// each evaluation tick: everything observed since the previous tick.
type Signals struct {
	// QueuePerReplica is the outstanding (admitted, unfinished) request
	// count divided by the active replica count at the tick instant.
	QueuePerReplica float64
	// TTFTP99 is the 99th-percentile time-to-first-token of the
	// completions in the window (0 when nothing completed).
	TTFTP99 float64
	// Active is the number of replicas currently serving traffic;
	// Warming counts replicas paying their cold-start weight load.
	Active, Warming int
}

// Autoscaler decides replica-count changes from windowed SLO signals.
// It is a pure state machine over virtual time: the same tick sequence
// always produces the same decisions. The router executes decisions on
// the fleet's control timeline — scale-ups pay ColdStart seconds of
// weight-load warming before the replica becomes routable, scale-downs
// drain the victim (no new traffic, running requests finish) before
// its GPU-second meter stops.
type Autoscaler struct {
	cfg        AutoscalerConfig
	lastUp     float64
	lastDown   float64
	everTicked bool
}

// AutoscalerConfig parameterizes the controller.
type AutoscalerConfig struct {
	// Min and Max bound the active replica count. The router clamps
	// Max to the provisioned fleet size.
	Min, Max int
	// Initial is the active count at t=0 (0 defaults to Min).
	Initial int
	// Interval is the evaluation cadence in virtual seconds.
	Interval float64
	// ColdStart is the scale-up delay in virtual seconds (weight-load
	// time for the replica's pipeline stages; see
	// faults.WeightReloadTime).
	ColdStart float64
	// ScaleUpQueue adds a replica when QueuePerReplica exceeds it.
	ScaleUpQueue float64
	// ScaleDownQueue removes a replica when QueuePerReplica (counted
	// against one fewer replica) stays under it.
	ScaleDownQueue float64
	// TTFTTarget, when > 0, also votes to scale up while the windowed
	// TTFT p99 exceeds it, and blocks scale-downs while it does.
	TTFTTarget float64
	// UpCooldown and DownCooldown are the minimum virtual seconds
	// between consecutive scale-ups / scale-downs. Zero means the
	// Interval itself is the only pacing.
	UpCooldown, DownCooldown float64
	// Step is the replica count per scale action. Zero defaults to 1.
	Step int
}

// Validate reports a configuration error, if any.
func (c AutoscalerConfig) Validate() error {
	switch {
	case c.Min < 1:
		return fmt.Errorf("policy: autoscaler Min = %d", c.Min)
	case c.Max < c.Min:
		return fmt.Errorf("policy: autoscaler Max %d < Min %d", c.Max, c.Min)
	case c.Initial != 0 && (c.Initial < c.Min || c.Initial > c.Max):
		return fmt.Errorf("policy: autoscaler Initial %d outside [%d, %d]", c.Initial, c.Min, c.Max)
	case c.Interval <= 0:
		return fmt.Errorf("policy: autoscaler Interval = %v", c.Interval)
	case c.ColdStart < 0:
		return fmt.Errorf("policy: autoscaler ColdStart = %v", c.ColdStart)
	case c.ScaleUpQueue <= 0:
		return fmt.Errorf("policy: autoscaler ScaleUpQueue = %v", c.ScaleUpQueue)
	case c.ScaleDownQueue < 0 || c.ScaleDownQueue >= c.ScaleUpQueue:
		return fmt.Errorf("policy: autoscaler ScaleDownQueue %v must be in [0, ScaleUpQueue)", c.ScaleDownQueue)
	}
	return nil
}

// NewAutoscaler builds the controller; cfg must validate.
func NewAutoscaler(cfg AutoscalerConfig) (*Autoscaler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Step <= 0 {
		cfg.Step = 1
	}
	return &Autoscaler{cfg: cfg}, nil
}

// Config returns the validated configuration.
func (a *Autoscaler) Config() AutoscalerConfig { return a.cfg }

// InitialReplicas returns the active count the fleet starts with.
func (a *Autoscaler) InitialReplicas() int {
	if a.cfg.Initial > 0 {
		return a.cfg.Initial
	}
	return a.cfg.Min
}

// Decide returns the replica delta for the tick at virtual time t:
// positive to scale up (the router warms that many replicas), negative
// to scale down (the router drains that many), zero to hold. The
// provisioned count (active + warming) is what the decision moves.
func (a *Autoscaler) Decide(t float64, s Signals) int {
	provisioned := s.Active + s.Warming
	overloaded := s.QueuePerReplica > a.cfg.ScaleUpQueue ||
		(a.cfg.TTFTTarget > 0 && s.TTFTP99 > a.cfg.TTFTTarget)
	if overloaded && provisioned < a.cfg.Max {
		if a.everTicked && a.cfg.UpCooldown > 0 && t-a.lastUp < a.cfg.UpCooldown {
			return 0
		}
		a.everTicked = true
		a.lastUp = t
		n := a.cfg.Step
		if provisioned+n > a.cfg.Max {
			n = a.cfg.Max - provisioned
		}
		return n
	}
	// Scale down only when the remaining replicas would still sit
	// under the low-water queue mark and the latency tail is healthy.
	if provisioned > a.cfg.Min && s.Warming == 0 && !overloaded &&
		(a.cfg.TTFTTarget <= 0 || s.TTFTP99 <= a.cfg.TTFTTarget) {
		shrunk := float64(s.Active) * s.QueuePerReplica / float64(max(s.Active-a.cfg.Step, 1))
		if shrunk >= a.cfg.ScaleDownQueue {
			return 0
		}
		if a.everTicked && a.cfg.DownCooldown > 0 && t-a.lastDown < a.cfg.DownCooldown {
			return 0
		}
		a.everTicked = true
		a.lastDown = t
		n := a.cfg.Step
		if provisioned-n < a.cfg.Min {
			n = provisioned - a.cfg.Min
		}
		return -n
	}
	return 0
}
