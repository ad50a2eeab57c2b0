package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// refPendingPrefills is the reference pending-prefill pack the cached
// preview must reproduce: walk the whole waiting queue front to back,
// stop at the first request that overflows free KV tokens, pack
// greedily into MaxPrefillTokens batches, and return nil when the packed
// tokens fall short of min(MaxPrefillTokens, waiting tokens).
func refPendingPrefills(e *Engine, free int) []costmodel.PrefillBatch {
	var batches []costmodel.PrefillBatch
	var lens []int
	tokens, packed, waitingTokens := 0, 0, 0
	for i := 0; i < e.waiting.Len(); i++ {
		waitingTokens += e.states[e.waiting.At(i)].prefillLen
	}
	for i := 0; i < e.waiting.Len(); i++ {
		need := e.states[e.waiting.At(i)].prefillLen
		if packed+need > free {
			break
		}
		packed += need
		lens = append(lens, need)
		tokens += need
		if tokens >= e.cfg.MaxPrefillTokens {
			batches = append(batches, costmodel.NewPrefillBatch(lens))
			lens, tokens = nil, 0
		}
	}
	if len(lens) > 0 {
		batches = append(batches, costmodel.NewPrefillBatch(lens))
	}
	if packed < min(e.cfg.MaxPrefillTokens, waitingTokens) {
		return nil
	}
	return batches
}

// refPendingTemporal costs refPendingPrefills' batches with
// Intensity.Temporal. launchable is false for a nil or empty pack; both
// mean Temporal has nothing to weigh.
func refPendingTemporal(e *Engine, free int, decodeStep float64) (ti float64, launchable bool) {
	pending := refPendingPrefills(e, free)
	return e.inten.Temporal(pending, decodeStep, e.numSlots), len(pending) > 0
}

// TestPendingPreviewMatchesReference drives the cached preview and the
// reference walk through random waiting-queue histories — PushBack,
// PopFront, PushFront of fresh or recompute-grown requests, Reset —
// interleaved with switch checks at random free-token values, including
// cuts that land exactly on a request boundary and batches that close
// exactly on MaxPrefillTokens. TI must match bit for bit.
func TestPendingPreviewMatchesReference(t *testing.T) {
	checks, launchable := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := fastConfig(1 + rng.Intn(4))
		cfg.MaxPrefillTokens = []int{64, 256, 512, 2048}[rng.Intn(4)]
		e, err := NewEngine(sim.NewEngine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.numSlots = cfg.World
		max := cfg.MaxPrefillTokens
		newID := func() int {
			var n int
			switch rng.Intn(6) {
			case 0:
				n = max + 1 + rng.Intn(2*max) // alone overflows a batch
			case 1:
				n = max
			case 2:
				n = max / (1 + rng.Intn(4)) // batches close exactly on the cap
			default:
				n = 1 + rng.Intn(max/2)
			}
			e.states = append(e.states, &reqState{prefillLen: n})
			return len(e.states) - 1
		}
		var popped []int
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(20); {
			case r < 6:
				e.waiting.PushBack(newID())
			case r < 8:
				if e.waiting.Len() > 0 {
					popped = append(popped, e.waiting.PopFront())
				}
			case r < 10:
				id := -1
				if n := len(popped); n > 0 && rng.Intn(2) == 0 {
					// An evicted request returns needing a longer
					// recompute prefill.
					id = popped[n-1]
					popped = popped[:n-1]
					e.states[id].prefillLen += 1 + rng.Intn(max)
				} else {
					id = newID()
				}
				e.waiting.PushFront(id)
			case r == 10:
				e.waiting.Reset()
			default:
				free := pickFree(rng, e)
				step := []float64{0, 1e-4, 1e-3, 0.01, 1}[rng.Intn(5)]
				got, gotOK := e.pendingTemporal(free, step)
				want, wantOK := refPendingTemporal(e, free, step)
				checks++
				if wantOK {
					launchable++
				}
				if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
					t.Errorf("seed %d op %d (max %d, %d waiting, free %d, step %v): preview TI %v launchable %v, reference TI %v launchable %v",
						seed, op, max, e.waiting.Len(), free, step, got, gotOK, want, wantOK)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if launchable == 0 || launchable == checks {
		t.Fatalf("%d of %d switch checks found launchable prefills; the property needs both outcomes", launchable, checks)
	}
	t.Logf("%d switch checks, %d launchable", checks, launchable)
}

// pickFree draws a free-token value for a switch check: nothing, a cut
// exactly on (or one token either side of) a queued request boundary,
// or anything up to past the whole queue.
func pickFree(rng *rand.Rand, e *Engine) int {
	n := e.waiting.Len()
	boundary := 0
	for i, k := 0, rng.Intn(n+1); i < k; i++ {
		boundary += e.states[e.waiting.At(i)].prefillLen
	}
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return boundary
	case 2:
		return boundary + 1
	case 3:
		if boundary > 0 {
			return boundary - 1
		}
		return 0
	default:
		return rng.Intn(boundary + 2*e.cfg.MaxPrefillTokens + 1)
	}
}

// midDecodeEngine returns an engine paused inside a decode phase, right
// after a step boundary, with exactly waiting requests queued for
// prefill — the state every decode step's switch check sees.
func midDecodeEngine(tb testing.TB, cfg Config, reqs []workload.Request, waiting int) *Engine {
	tb.Helper()
	eng := sim.NewEngine()
	e, err := NewEngine(eng, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e.SetOnFinish(func(int) {
		if e.phase == metrics.PhaseDecode {
			eng.Stop()
		}
	})
	if err := e.Start(reqs); err != nil {
		tb.Fatal(err)
	}
	for {
		if eng.Pending() == 0 {
			tb.Fatalf("trace drained before a decode phase with %d waiting", waiting)
		}
		eng.Run()
		if e.phase == metrics.PhaseDecode && !e.switchToPrefil && e.activeBatches > 0 && e.waiting.Len() >= waiting {
			break
		}
	}
	e.SetOnFinish(nil)
	ids := make([]int, waiting)
	for i := range ids {
		ids[i] = e.waiting.At(i)
	}
	e.waiting.Reset()
	for _, id := range ids {
		e.waiting.PushBack(id)
	}
	return e
}

// A steady-state switch check — the same queue, a new decode step — is
// allocation-free, as is a preview lookup at a different free-KV cut.
func TestSwitchCheckDoesNotAllocate(t *testing.T) {
	e := midDecodeEngine(t, detConfig(4), smallTrace(2000, 5), 500)
	free := e.capacityTokens
	sink := 0
	check := func() {
		if e.shouldSwitchToPrefill(0) {
			sink++
		}
		if ti, ok := e.pendingTemporal(free, 0.01); ok && ti > 0 {
			sink++
		}
	}
	check() // build the preview
	if allocs := testing.AllocsPerRun(100, check); allocs != 0 {
		t.Errorf("switch check allocates %v times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Error("no launchable pending prefills at full free KV")
	}
}
