package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// ArrivalProcess generates the arrival times of a trace: a
// non-decreasing sequence of virtual-time seconds, deterministic for a
// seeded rng. Processes describe when requests enter the system; what
// the requests are stays with the trace generator.
type ArrivalProcess interface {
	// Name identifies the process in reports and flags.
	Name() string
	// Times returns n non-decreasing arrival times in seconds.
	Times(n int, rng *rand.Rand) []float64
}

// Instant is the closed-loop process: every request arrives at t=0,
// reproducing the offline-batch behavior the system had before open-loop
// serving.
type Instant struct{}

// Name returns "instant".
func (Instant) Name() string { return "instant" }

// Times returns n zeros.
func (Instant) Times(n int, _ *rand.Rand) []float64 { return make([]float64, n) }

// Poisson is a homogeneous Poisson process: independent exponential
// inter-arrival gaps at Rate requests per second.
type Poisson struct {
	// Rate is the mean arrival rate in requests per second.
	Rate float64
}

// Name returns "poisson".
func (Poisson) Name() string { return "poisson" }

// Times draws n exponential gaps.
func (p Poisson) Times(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / p.Rate
		out[i] = t
	}
	return out
}

// Bursty is a two-state MMPP (Markov-modulated Poisson process): the
// system alternates between an "on" state emitting at OnRate and an
// "off" state emitting at OffRate, with exponentially distributed state
// holding times. OffRate may be zero (pure on/off bursts).
type Bursty struct {
	// OnRate/OffRate are the per-state arrival rates in requests/s.
	OnRate, OffRate float64
	// MeanOn/MeanOff are the mean state holding times in seconds.
	MeanOn, MeanOff float64
}

// Name returns "bursty".
func (Bursty) Name() string { return "bursty" }

// Times simulates the modulated process.
func (b Bursty) Times(n int, rng *rand.Rand) []float64 {
	out := make([]float64, 0, n)
	t := 0.0
	on := true
	periodEnd := rng.ExpFloat64() * b.MeanOn
	for len(out) < n {
		rate := b.OnRate
		if !on {
			rate = b.OffRate
		}
		// With a silent state, jump straight to the next transition.
		var gap float64
		if rate > 0 {
			gap = rng.ExpFloat64() / rate
		} else {
			gap = math.Inf(1)
		}
		if t+gap <= periodEnd {
			t += gap
			out = append(out, t)
			continue
		}
		t = periodEnd
		on = !on
		if on {
			periodEnd = t + rng.ExpFloat64()*b.MeanOn
		} else {
			periodEnd = t + rng.ExpFloat64()*b.MeanOff
		}
	}
	return out
}

// Diurnal is a non-homogeneous Poisson process whose rate ramps
// sinusoidally between BaseRate and PeakRate with the given period — a
// compressed day/night traffic curve. Arrivals are drawn by thinning
// against PeakRate.
type Diurnal struct {
	// BaseRate/PeakRate bound the instantaneous rate in requests/s.
	BaseRate, PeakRate float64
	// Period is the cycle length in seconds; the rate starts at
	// BaseRate, peaks at Period/2, and returns to BaseRate at Period.
	Period float64
}

// Name returns "diurnal".
func (Diurnal) Name() string { return "diurnal" }

// RateAt returns the instantaneous arrival rate at time t.
func (d Diurnal) RateAt(t float64) float64 {
	phase := (1 - math.Cos(2*math.Pi*t/d.Period)) / 2
	return d.BaseRate + (d.PeakRate-d.BaseRate)*phase
}

// Times draws n arrivals by thinning a PeakRate Poisson stream.
func (d Diurnal) Times(n int, rng *rand.Rand) []float64 {
	out := make([]float64, 0, n)
	t := 0.0
	for len(out) < n {
		t += rng.ExpFloat64() / d.PeakRate
		if rng.Float64()*d.PeakRate <= d.RateAt(t) {
			out = append(out, t)
		}
	}
	return out
}

// Arrival process kinds accepted by ArrivalConfig and the CLIs.
const (
	ArrivalInstant = "instant"
	ArrivalPoisson = "poisson"
	ArrivalBursty  = "bursty"
	ArrivalDiurnal = "diurnal"
)

// ArrivalKinds lists the built-in processes.
func ArrivalKinds() []string {
	return []string{ArrivalInstant, ArrivalPoisson, ArrivalBursty, ArrivalDiurnal}
}

// ArrivalConfig is the flag-friendly description of an arrival process:
// a kind, a target mean rate, and a seed. The bursty and diurnal
// processes derive their shape parameters from the mean rate so a
// single -rate flag moves the whole family.
type ArrivalConfig struct {
	// Kind selects the process (see ArrivalKinds).
	Kind string
	// Rate is the target mean arrival rate in requests per second.
	// Ignored by the instant process.
	Rate float64
	// Seed drives the process's randomness; arrival times are
	// deterministic for a (config, seed) pair.
	Seed int64
}

// Validate reports a configuration error, if any.
func (c ArrivalConfig) Validate() error {
	switch strings.ToLower(c.Kind) {
	case ArrivalInstant:
		return nil
	case ArrivalPoisson, ArrivalBursty, ArrivalDiurnal:
		if c.Rate <= 0 {
			return fmt.Errorf("workload: arrival kind %q needs Rate > 0 (got %v)", c.Kind, c.Rate)
		}
		return nil
	}
	return fmt.Errorf("workload: unknown arrival kind %q (have %v)", c.Kind, ArrivalKinds())
}

// Process builds the configured arrival process.
func (c ArrivalConfig) Process() (ArrivalProcess, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	switch strings.ToLower(c.Kind) {
	case ArrivalInstant:
		return Instant{}, nil
	case ArrivalPoisson:
		return Poisson{Rate: c.Rate}, nil
	case ArrivalBursty:
		// 50% duty cycle, silent off state: bursts at twice the mean
		// rate keep the long-run average at Rate.
		return Bursty{OnRate: 2 * c.Rate, OffRate: 0, MeanOn: 30, MeanOff: 30}, nil
	case ArrivalDiurnal:
		// Sinusoid between 0.5x and 1.5x averages to Rate over a
		// compressed 600 s "day".
		return Diurnal{BaseRate: 0.5 * c.Rate, PeakRate: 1.5 * c.Rate, Period: 600}, nil
	}
	return nil, fmt.Errorf("workload: unknown arrival kind %q", c.Kind)
}

// StampArrivals returns a copy of reqs with arrival times drawn from p
// under the seed, assigned in request order (times are non-decreasing,
// so request order is arrival order). The input slice is not modified.
func StampArrivals(reqs []Request, p ArrivalProcess, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	times := p.Times(len(reqs), rng)
	out := append([]Request(nil), reqs...)
	for i := range out {
		out[i].ArrivalTime = times[i]
	}
	return out
}

// Stamp applies the configured process to reqs (see StampArrivals).
func (c ArrivalConfig) Stamp(reqs []Request) ([]Request, error) {
	p, err := c.Process()
	if err != nil {
		return nil, err
	}
	return StampArrivals(reqs, p, c.Seed), nil
}

// HasArrivals reports whether any request arrives after t=0, i.e.
// whether the trace is open-loop.
func HasArrivals(reqs []Request) bool {
	for _, r := range reqs {
		if r.ArrivalTime > 0 {
			return true
		}
	}
	return false
}

// SortByArrival returns request indices ordered by (ArrivalTime, ID) —
// the canonical online processing order.
func SortByArrival(reqs []Request) []int {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := reqs[idx[a]], reqs[idx[b]]
		if ra.ArrivalTime != rb.ArrivalTime {
			return ra.ArrivalTime < rb.ArrivalTime
		}
		return ra.ID < rb.ID
	})
	return idx
}
