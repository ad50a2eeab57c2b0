package metrics

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBusyTimeClipsToWindow(t *testing.T) {
	r := NewRecorder(1)
	r.Add(0, 1, 3)
	r.Add(0, 5, 9)
	if got := r.BusyTime(0, 0, 10); got != 6 {
		t.Errorf("busy = %v, want 6", got)
	}
	if got := r.BusyTime(0, 2, 6); got != 2 {
		t.Errorf("clipped busy = %v, want 2 (1 from each interval)", got)
	}
	if got := r.BusyTime(0, 3, 5); got != 0 {
		t.Errorf("gap busy = %v, want 0", got)
	}
}

func TestAddIgnoresEmptyIntervals(t *testing.T) {
	r := NewRecorder(1)
	r.Add(0, 5, 5)
	r.Add(0, 5, 4)
	if len(r.Intervals(0)) != 0 {
		t.Errorf("empty intervals recorded: %v", r.Intervals(0))
	}
}

func TestMeanUtilization(t *testing.T) {
	r := NewRecorder(2)
	r.Add(0, 0, 10) // GPU0 fully busy
	r.Add(1, 0, 5)  // GPU1 half busy
	if got := r.MeanUtilization(0, 10); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("mean util = %v, want 0.75", got)
	}
	if got := r.MeanUtilization(10, 10); got != 0 {
		t.Errorf("degenerate window util = %v", got)
	}
	if got := NewRecorder(0).MeanUtilization(0, 1); got != 0 {
		t.Errorf("no-gpu util = %v", got)
	}
}

func TestTimelineWindows(t *testing.T) {
	r := NewRecorder(1)
	r.Add(0, 0, 1) // busy during first second only
	pts := r.Timeline(1, 3)
	if len(pts) != 3 {
		t.Fatalf("timeline has %d points, want 3", len(pts))
	}
	if pts[0].Utilization != 1 || pts[1].Utilization != 0 || pts[2].Utilization != 0 {
		t.Errorf("timeline = %v", pts)
	}
	if r.Timeline(0, 3) != nil || r.Timeline(1, 0) != nil {
		t.Error("degenerate timeline not nil")
	}
	// Partial last window.
	pts = r.Timeline(2, 3)
	if len(pts) != 2 || pts[1].Time != 3 {
		t.Errorf("partial window timeline = %v", pts)
	}
}

func TestBubbleRatio(t *testing.T) {
	r := NewRecorder(2)
	r.Add(0, 0, 10)
	r.Add(1, 0, 10)
	if got := r.BubbleRatio(10); got != 0 {
		t.Errorf("full pipeline bubble = %v", got)
	}
	r2 := NewRecorder(1)
	r2.Add(0, 0, 2)
	if got := r2.BubbleRatio(10); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("bubble = %v, want 0.8", got)
	}
}

func TestKVTimeline(t *testing.T) {
	var k KVTimeline
	k.Add(0, 0, 0.3, PhasePrefill)
	k.Add(1, 1, 0.9, PhasePrefill)
	k.Add(2, 2, 0.95, PhaseDecode)
	k.Add(3, 3, 0.5, PhaseDecode)
	k.Add(4, 4, 0.7, PhasePrefill)
	if got := k.Peak(); got != 0.95 {
		t.Errorf("peak = %v", got)
	}
	if got := k.PhaseSwitches(); got != 2 {
		t.Errorf("switches = %d, want 2", got)
	}
}

func TestPhaseString(t *testing.T) {
	if PhasePrefill.String() != "prefill" || PhaseDecode.String() != "decode" {
		t.Error("phase strings wrong")
	}
}

func TestReportThroughputs(t *testing.T) {
	r := Report{InputTokens: 100, OutputTokens: 300, Elapsed: 10}
	if got := r.OutputThroughput(); got != 30 {
		t.Errorf("output throughput = %v", got)
	}
	if got := r.TotalThroughput(); got != 40 {
		t.Errorf("total throughput = %v", got)
	}
	zero := Report{}
	if zero.OutputThroughput() != 0 || zero.TotalThroughput() != 0 {
		t.Error("zero-elapsed throughput not 0")
	}
}

func TestReportString(t *testing.T) {
	r := Report{Scheduler: "TD-Pipe", Node: "A100", Model: "70B", GPUs: 4,
		Requests: 10, OutputTokens: 100, Elapsed: 2, MeanUtilization: 0.9}
	s := r.String()
	for _, want := range []string{"TD-Pipe", "A100", "70B", "x4"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string %q missing %q", s, want)
		}
	}
}

// Property: BusyTime over any window is between 0 and the window width
// times interval count, and utilization is within [0, 1] when intervals
// don't overlap.
func TestBusyTimeBoundsProperty(t *testing.T) {
	prop := func(starts []float64) bool {
		r := NewRecorder(1)
		t0 := 0.0
		for _, d := range starts {
			d = math.Abs(d)
			if math.IsNaN(d) || math.IsInf(d, 0) || d > 1e6 {
				continue
			}
			r.Add(0, t0, t0+d)
			t0 += d + 1 // keep disjoint
		}
		u := r.MeanUtilization(0, t0+1)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Timeline returns exactly one point per window, the last ending at
// until, even when until/window is not exact in floating point: n
// windows over until = k·0.731 used to grow a spurious sliver window
// from the accumulated t += window drift in about 45% of cases.
func TestTimelineWindowCount(t *testing.T) {
	r := NewRecorder(1)
	r.Add(0, 0, 1)
	for _, n := range []int{40, 50, 200} {
		for k := 1; k <= 500; k++ {
			until := float64(k) * 0.731
			window := until / float64(n)
			pts := r.Timeline(window, until)
			if len(pts) != n {
				t.Fatalf("Timeline(%v/%d, %v) has %d points, want %d", until, n, until, len(pts), n)
			}
			if pts[n-1].Time != until {
				t.Fatalf("last point ends at %v, want %v", pts[n-1].Time, until)
			}
			for i := 0; i < n-1; i++ {
				if want := float64(i+1) * window; pts[i].Time != want {
					t.Fatalf("point %d ends at %v, want %v", i, pts[i].Time, want)
				}
			}
		}
	}
	for _, c := range []struct {
		window, until float64
		want          int
	}{{1, 3, 3}, {2, 3, 2}, {0.3, 1, 4}, {5, 1, 1}, {0.25, 1, 4}} {
		if got := len(r.Timeline(c.window, c.until)); got != c.want || got != int(math.Ceil(c.until/c.window)) {
			t.Errorf("Timeline(%v, %v) has %d points, want %d", c.window, c.until, got, c.want)
		}
	}
}

// busyHistory is a random busy history: per-GPU intervals that mostly
// start no earlier than the previous one ended (a sim.Resource's FIFO
// order) with a few out of order, ugly float endpoints, zero-length
// work, and intervals that run past doneAt like crash-aborted passes.
// Fold watermarks at or before doneAt are interleaved with the adds.
type busyHistory struct {
	gpus   int
	doneAt float64
	ops    []busyOp
}

// busyOp is one recorder call: Fold(w) when fold is set, else
// Add(gpu, start, end).
type busyOp struct {
	fold       bool
	w          float64
	gpu        int
	start, end float64
}

func randomBusyHistory(rng *rand.Rand) busyHistory {
	h := busyHistory{gpus: 1 + rng.Intn(4), doneAt: 0.731 * float64(1+rng.Intn(400)) * rng.Float64()}
	free := make([]float64, h.gpus)
	mark := 0.0
	for n := rng.Intn(300); n > 0; n-- {
		if rng.Intn(4) == 0 {
			// Watermarks rise towards doneAt but may repeat or fall
			// back; the recorder keeps the highest.
			mark += (h.doneAt - mark) * rng.Float64() * 0.3
			w := mark
			if rng.Intn(3) == 0 {
				w *= rng.Float64()
			}
			h.ops = append(h.ops, busyOp{fold: true, w: w})
			continue
		}
		g := rng.Intn(h.gpus)
		start := free[g]
		switch rng.Intn(16) {
		case 0: // out of order: the recorder must not rely on FIFO
			start *= rng.Float64()
		case 1, 2, 3, 4, 5, 6, 7:
			start += rng.ExpFloat64() * 0.37
		}
		var dur float64
		switch rng.Intn(8) {
		case 0: // zero-length work records nothing
		case 1: // long pass, likely past doneAt
			dur = rng.Float64() * h.doneAt
		default:
			dur = rng.ExpFloat64() * 0.113
		}
		h.ops = append(h.ops, busyOp{gpu: g, start: start, end: start + dur})
		if start+dur > free[g] {
			free[g] = start + dur
		}
	}
	return h
}

// Property: a streaming recorder's Utilization(doneAt) equals a keeping
// recorder's MeanUtilization(0, doneAt) exactly (==, not within a
// tolerance) on any history with watermarks at or before doneAt.
func TestStreamedUtilizationBitIdentical(t *testing.T) {
	prop := func(seed int64) bool {
		h := randomBusyHistory(rand.New(rand.NewSource(seed)))
		keep, stream := NewRecorder(h.gpus), NewStreamingRecorder(h.gpus)
		for _, op := range h.ops {
			if op.fold {
				keep.Fold(op.w)
				stream.Fold(op.w)
				continue
			}
			keep.Add(op.gpu, op.start, op.end)
			stream.Add(op.gpu, op.start, op.end)
		}
		want := keep.MeanUtilization(0, h.doneAt)
		got, err := stream.Utilization(h.doneAt)
		if err != nil || got != want {
			t.Logf("seed %d: streamed %v (%v), kept %v", seed, got, err, want)
			return false
		}
		kept, err := keep.Utilization(h.doneAt)
		return err == nil && kept == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A streaming recorder holds only the intervals still in flight: a long
// run whose watermark follows the work keeps a short tail.
func TestStreamingRecorderTailStaysShort(t *testing.T) {
	r := NewStreamingRecorder(2)
	for i := 0; i < 100000; i++ {
		s := float64(i)
		r.Add(0, s, s+0.5)
		r.Add(1, s+0.25, s+0.75)
		r.Fold(s + 0.75)
	}
	for g := 0; g < 2; g++ {
		if n := cap(r.Intervals(g)); n > 8 {
			t.Errorf("gpu %d tail capacity %d after 100000 folded passes", g, n)
		}
	}
	if u, err := r.Utilization(100000); err != nil || u != 0.5 {
		t.Errorf("utilization = %v, %v; want 0.5", u, err)
	}
}

// A window that ends before the watermark cannot be answered once its
// intervals are folded: Utilization names the error. A keeping
// recorder answers it.
func TestUtilizationBeforeWatermark(t *testing.T) {
	stream, keep := NewStreamingRecorder(1), NewRecorder(1)
	for _, r := range []*Recorder{stream, keep} {
		r.Add(0, 0, 2)
		r.Fold(3)
		r.Add(0, 3, 4)
	}
	if _, err := stream.Utilization(2.5); !errors.Is(err, ErrFoldedPastEnd) {
		t.Errorf("streamed utilization before the watermark: err = %v, want ErrFoldedPastEnd", err)
	}
	if u, err := keep.Utilization(2.5); err != nil || u != 0.8 {
		t.Errorf("kept utilization = %v, %v; want 0.8", u, err)
	}
	if u, err := stream.Utilization(4); err != nil || u != 0.75 {
		t.Errorf("streamed utilization = %v, %v; want 0.75", u, err)
	}
}
