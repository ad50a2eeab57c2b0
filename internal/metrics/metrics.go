// Package metrics collects simulation observables: per-GPU busy time
// (streamed into a running sum, or kept as intervals for the Fig.-2
// utilization timelines and bubble accounting), KV-cache usage
// timelines (Fig. 12), and the run report all schedulers return.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// Interval is one busy span of a device.
type Interval struct {
	Start, End float64
}

// ErrFoldedPastEnd reports a utilization query on a streaming Recorder
// that ends before the recorder's watermark: intervals up to the
// watermark were already folded into the running sums and can no
// longer be clipped to the earlier end.
var ErrFoldedPastEnd = errors.New("metrics: busy time folded past the end of the utilization window")

// Recorder accumulates busy time for a fixed set of GPUs. A keeping
// recorder (NewRecorder) stores every interval and answers any window
// query. A streaming recorder (NewStreamingRecorder) answers only
// Utilization: once Fold has declared busy time up to a watermark
// final, an interval that ends by it goes straight into its GPU's
// running sum, and one still in flight waits in a short per-GPU tail
// until the watermark passes it.
type Recorder struct {
	stream bool
	// pending counts the GPUs whose tail holds intervals. While it is
	// zero, a streaming recorder touches only the sums.
	pending int
	// mark is the fold watermark: the highest w given to Fold.
	mark float64
	// sums[g] is the busy time of GPU g's folded intervals, added in
	// recording order (always zero on a keeping recorder).
	sums []float64
	// tails[g] holds GPU g's intervals not yet folded: every interval
	// on a keeping recorder.
	tails [][]Interval
}

// NewRecorder tracks gpus devices and keeps every busy interval.
func NewRecorder(gpus int) *Recorder {
	return &Recorder{sums: make([]float64, gpus), tails: make([][]Interval, gpus)}
}

// NewStreamingRecorder tracks gpus devices for Utilization only. Its
// window queries (BusyTime, MeanUtilization, Timeline) count the folded
// sums whatever the window, so they are exact only for windows that
// start at 0 and end at or past the watermark; Intervals returns only
// the unfolded tail.
func NewStreamingRecorder(gpus int) *Recorder {
	r := NewRecorder(gpus)
	r.stream = true
	return r
}

// GPUs returns the tracked device count.
func (r *Recorder) GPUs() int { return len(r.tails) }

// Add records a busy interval for gpu. A streaming recorder adds an
// interval that ends by the watermark straight to the GPU's sum once
// no older interval waits in its tail; before queueing one, it folds
// the tail's leading intervals that the watermark has passed.
//
//det:hotpath
func (r *Recorder) Add(gpu int, start, end float64) {
	if end <= start {
		return
	}
	if r.stream {
		if r.pending == 0 && end <= r.mark {
			r.sums[gpu] += busy(start, end)
			return
		}
		if t := r.tails[gpu]; len(t) > 0 && (len(t) == cap(t) || t[0].End <= r.mark) {
			r.fold(gpu)
		}
		if len(r.tails[gpu]) == 0 {
			if end <= r.mark {
				r.sums[gpu] += busy(start, end)
				return
			}
			r.pending++
		}
	}
	r.tails[gpu] = append(r.tails[gpu], Interval{start, end}) //det:ignore hotalloc amortized growth; a streaming tail stops growing once it holds the intervals in flight at one time
}

// busy is the length of [start, end] clipped to start at 0, as
// BusyTime clips to a window from 0.
//
//det:hotpath
func busy(start, end float64) float64 {
	if start < 0 {
		start = 0
	}
	if end > start {
		return end - start
	}
	return 0
}

// Fold raises the watermark to w, declaring busy time up to w final:
// the caller promises that no later Utilization window ends before w.
// A streaming recorder may then fold any interval that ends by w into
// its GPU's running sum; a keeping recorder folds nothing.
//
//det:hotpath
func (r *Recorder) Fold(w float64) {
	if w > r.mark {
		r.mark = w
	}
}

// fold adds gpu's leading tail intervals that end by the watermark to
// its sum, front to back and clipped to [0, mark] exactly as BusyTime
// clips to [0, to], so the sum is the same sequence of float additions
// BusyTime(gpu, 0, to) performs for any to >= mark. The rest of the
// tail moves to the front.
//
//det:hotpath
func (r *Recorder) fold(gpu int) {
	t := r.tails[gpu]
	k := 0
	for ; k < len(t) && t[k].End <= r.mark; k++ {
		r.sums[gpu] += busy(t[k].Start, t[k].End)
	}
	r.tails[gpu] = t[:copy(t, t[k:])]
	if len(r.tails[gpu]) == 0 {
		r.pending--
	}
}

// Utilization returns the mean busy fraction over all GPUs in
// [0, until]: MeanUtilization(0, until), bit for bit, on either kind
// of recorder. A streaming recorder returns ErrFoldedPastEnd when until
// precedes its watermark.
func (r *Recorder) Utilization(until float64) (float64, error) {
	if r.stream && until < r.mark {
		return 0, fmt.Errorf("%w: window ends at %v, watermark is %v", ErrFoldedPastEnd, until, r.mark)
	}
	return r.MeanUtilization(0, until), nil
}

// BusyTime returns total busy seconds of gpu within [from, to].
func (r *Recorder) BusyTime(gpu int, from, to float64) float64 {
	t := r.sums[gpu]
	for _, iv := range r.tails[gpu] {
		s, e := iv.Start, iv.End
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			t += e - s
		}
	}
	return t
}

// MeanUtilization returns the average busy fraction over all GPUs in
// [from, to].
func (r *Recorder) MeanUtilization(from, to float64) float64 {
	if to <= from || len(r.tails) == 0 {
		return 0
	}
	var sum float64
	for g := range r.tails {
		sum += r.BusyTime(g, from, to) / (to - from)
	}
	return sum / float64(len(r.tails))
}

// UtilPoint is one sample of a utilization timeline.
type UtilPoint struct {
	// Time is the window end in seconds.
	Time float64
	// Utilization is the mean busy fraction across GPUs in the window.
	Utilization float64
}

// Timeline samples mean utilization in consecutive windows of width
// window seconds from 0 to until: ceil(until/window) points, the last
// one ending exactly at until. Window i spans [i*window, (i+1)*window],
// computed from i rather than accumulated, and a remainder narrower
// than a billionth of a window is float noise in until/window, not a
// window of its own.
func (r *Recorder) Timeline(window, until float64) []UtilPoint {
	if window <= 0 || until <= 0 {
		return nil
	}
	n := int(math.Ceil(until/window - 1e-9))
	if n < 1 {
		n = 1
	}
	out := make([]UtilPoint, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := float64(i)*window, float64(i+1)*window
		if i == n-1 || hi > until {
			hi = until
		}
		out = append(out, UtilPoint{Time: hi, Utilization: r.MeanUtilization(lo, hi)})
	}
	return out
}

// BubbleRatio returns 1 - mean utilization over [0, until]: the
// fraction of GPU-time lost to pipeline bubbles.
func (r *Recorder) BubbleRatio(until float64) float64 {
	if until <= 0 {
		return 0
	}
	return 1 - r.MeanUtilization(0, until)
}

// Phase labels a scheduler phase for KV timelines.
type Phase int

// Phases of the temporally-disaggregated schedule.
const (
	PhasePrefill Phase = iota
	PhaseDecode
)

// String names the execution phase.
func (p Phase) String() string {
	if p == PhasePrefill {
		return "prefill"
	}
	return "decode"
}

// KVPoint is one sample of KV-cache occupancy.
type KVPoint struct {
	// Step is the engine iteration number.
	Step int
	// Time is the virtual time of the sample.
	Time float64
	// Usage is used/capacity in [0,1].
	Usage float64
	// Phase is the phase active when sampled.
	Phase Phase
}

// KVTimeline accumulates KV usage samples (paper Fig. 12).
type KVTimeline struct {
	Points []KVPoint
}

// Add appends a sample.
func (k *KVTimeline) Add(step int, t, usage float64, ph Phase) {
	k.Points = append(k.Points, KVPoint{Step: step, Time: t, Usage: usage, Phase: ph})
}

// Peak returns the maximum recorded usage.
func (k *KVTimeline) Peak() float64 {
	var m float64
	for _, p := range k.Points {
		if p.Usage > m {
			m = p.Usage
		}
	}
	return m
}

// PhaseSwitches counts prefill<->decode transitions.
func (k *KVTimeline) PhaseSwitches() int {
	n := 0
	for i := 1; i < len(k.Points); i++ {
		if k.Points[i].Phase != k.Points[i-1].Phase {
			n++
		}
	}
	return n
}

// Report is the outcome of one simulated run.
type Report struct {
	Scheduler string
	Node      string
	Model     string
	GPUs      int

	Requests     int
	InputTokens  int
	OutputTokens int
	// Elapsed is virtual seconds from first prefill to last completion.
	Elapsed float64

	// MeanUtilization is the average GPU busy fraction.
	MeanUtilization float64
	// BubbleRatio is 1 - MeanUtilization.
	BubbleRatio float64
	// PhaseSwitches counts prefill<->decode transitions (TD-Pipe and
	// PP+SB; 0 where not meaningful).
	PhaseSwitches int
	// Recomputes counts requests evicted and re-prefilled after OOM.
	Recomputes int
	// KVPeakUsage is the high-water KV occupancy ratio.
	KVPeakUsage float64
	// PrefixCachedTokens counts prompt tokens whose prefill was
	// skipped because their KV was already resident in shared prefix
	// blocks (0 unless the trace carries prefix structure and the
	// engine has sharing enabled).
	PrefixCachedTokens int

	// Latency digests per-request records: TTFT/TPOT/E2E percentiles
	// and goodput under the run's SLO. Under instantaneous arrivals
	// (the offline regime) TTFT and E2E include the whole-batch
	// queueing delay from t=0.
	Latency LatencyDigest

	// Faults accounts injected failures and the recovery work they
	// forced. All-zero (the default) for fault-free runs.
	Faults FaultStats

	// Autoscale accounts elastic fleet-size changes and the GPU time
	// they saved or spent. All-zero (the default) for static fleets.
	Autoscale AutoscaleStats

	// Admission accounts front-door policy decisions (shedding,
	// retries, breaker activity, preemption). All-zero (the default)
	// when no policy stack is attached.
	Admission AdmissionStats
}

// FaultStats accounts fault injection and recovery in one run. The
// fields are plain scalars so reports stay comparable (and JSON
// round-trips byte-identically in the determinism suite).
type FaultStats struct {
	// Crashes counts replica crash events executed.
	Crashes int
	// AbortedRequests counts in-flight requests lost to crashes
	// (each re-dispatch that later crashes again counts once more).
	AbortedRequests int
	// Checkpoints counts periodic KV checkpoint rounds taken;
	// CheckpointBytes is the KV volume they serialized.
	Checkpoints     int
	CheckpointBytes float64
	// RecoveredRecompute counts crash-lost requests resumed by
	// re-prefilling input+generated tokens from scratch;
	// RecoveredCheckpoint counts those resumed from a periodic KV
	// checkpoint instead.
	RecoveredRecompute  int
	RecoveredCheckpoint int
	// Dropped counts requests abandoned with a reason (retry budget
	// exhausted, or unplaceable when the run drained).
	Dropped int
	// LostOutputTokens sums output tokens that were resident on a
	// replica when it crashed — generation work recovery must redo
	// (checkpoint resumes redo only the post-checkpoint suffix).
	LostOutputTokens int
	// DomainOutages counts correlated failure-domain events (rack or
	// zone power / network outages) the plan materialized, as opposed
	// to the independent per-replica draws counted by Crashes.
	DomainOutages int
}

// Any reports whether any fault activity was recorded.
func (f FaultStats) Any() bool { return f != FaultStats{} }

// Add accumulates o into f (fleet-level merges).
func (f *FaultStats) Add(o FaultStats) {
	f.Crashes += o.Crashes
	f.AbortedRequests += o.AbortedRequests
	f.Checkpoints += o.Checkpoints
	f.CheckpointBytes += o.CheckpointBytes
	f.RecoveredRecompute += o.RecoveredRecompute
	f.RecoveredCheckpoint += o.RecoveredCheckpoint
	f.Dropped += o.Dropped
	f.LostOutputTokens += o.LostOutputTokens
	f.DomainOutages += o.DomainOutages
}

// AutoscaleStats accounts one run's elastic replica-count activity.
// The fields are plain scalars so reports stay comparable (and JSON
// round-trips byte-identically in the determinism suite).
type AutoscaleStats struct {
	// Ticks counts autoscaler evaluations executed.
	Ticks int
	// ScaleUps and ScaleDowns count replicas added / drained (a Step=2
	// action counts 2).
	ScaleUps   int
	ScaleDowns int
	// PeakReplicas is the largest provisioned (active+warming) count.
	PeakReplicas int
	// GPUSeconds sums, over replicas, GPUs x virtual seconds the
	// replica was provisioned (warming and draining included) — the
	// cost axis of the elastic-vs-static frontier.
	GPUSeconds float64
	// ColdStartSeconds sums the modeled weight-load delays scale-ups
	// paid before their replica became routable.
	ColdStartSeconds float64
}

// Any reports whether any autoscale activity was recorded.
func (a AutoscaleStats) Any() bool { return a != AutoscaleStats{} }

// AdmissionStats accounts one run's front-door policy decisions.
type AdmissionStats struct {
	// Shed counts arrivals refused by the token bucket (each refusal
	// counts, so one request can shed several times while retrying).
	Shed int
	// Retries counts scheduled re-admission attempts.
	Retries int
	// Dropped counts requests abandoned after exhausting the retry
	// budget (or shed with no retry policy attached).
	Dropped int
	// BreakerTrips counts circuit breakers opening; BreakerSkips
	// counts routing decisions that had to exclude an open replica.
	BreakerTrips int
	BreakerSkips int
	// Preemptions counts low-priority requests evicted to recompute by
	// a high-priority arrival.
	Preemptions int
}

// Any reports whether any admission-policy activity was recorded.
func (a AdmissionStats) Any() bool { return a != AdmissionStats{} }

// OutputThroughput returns generated tokens per second, the paper's
// headline metric.
func (r Report) OutputThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OutputTokens) / r.Elapsed
}

// PrefixHitRate returns the fraction of prompt tokens served from
// shared prefix KV instead of being prefilled (0 when no sharing
// happened or no input was processed).
func (r Report) PrefixHitRate() float64 {
	if r.InputTokens <= 0 {
		return 0
	}
	return float64(r.PrefixCachedTokens) / float64(r.InputTokens)
}

// TotalThroughput returns processed (input+output) tokens per second.
func (r Report) TotalThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.InputTokens+r.OutputTokens) / r.Elapsed
}

// String renders the report's headline numbers on one line.
func (r Report) String() string {
	return fmt.Sprintf("%s %s+%s x%d: %d reqs in %.1fs, %.0f tok/s out (%.0f total), util %.1f%%, %d switches",
		r.Scheduler, r.Node, r.Model, r.GPUs, r.Requests, r.Elapsed,
		r.OutputThroughput(), r.TotalThroughput(), 100*r.MeanUtilization, r.PhaseSwitches)
}

// Intervals returns the busy intervals of gpu not yet folded: every
// interval on a keeping recorder.
func (r *Recorder) Intervals(gpu int) []Interval { return r.tails[gpu] }
