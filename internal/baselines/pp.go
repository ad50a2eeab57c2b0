package baselines

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// roundCheck, when set, runs at the start of every round. Tests install
// an invariant check here; the first error it returns ends the run.
var roundCheck func(*ppRunner) error

// ppRunner executes the PP+SB and PP+HB baselines on the same pipeline
// cluster TD-Pipe uses, but with the stock-vLLM behaviours the paper
// identifies as bubble sources (§2.3, Fig. 1):
//
//   - blocking device-to-device transfers (§3.2);
//   - a synchronous engine loop: microbatches are scheduled in
//     lockstep rounds — exactly the row-by-row schedule Figure 1
//     draws — so one long pass (e.g. a prefill among decode steps
//     under separate batching) stalls every other microbatch;
//   - per-iteration scheduling overhead serialized through the single
//     engine thread.
type ppRunner struct {
	*common
	eng     *sim.Engine
	cluster *runtime.Cluster

	// batch[slot] holds the slot's decode requests.
	batch [][]int
	// partial[slot] holds the slot's mid-chunked-prefill requests
	// (PP+HB only).
	partial [][]int
	// engineFree is when the single-threaded engine loop next becomes
	// available; iteration scheduling serializes through it.
	engineFree sim.Time
	end        sim.Time

	outstanding int
	roundEnd    sim.Time
	rounds      int

	// pendingArrivals counts scheduled arrival events that have not
	// fired; while positive, an empty round parks the runner instead
	// of declaring a stall.
	pendingArrivals int
	// idle is true when the runner is parked between arrivals; the
	// next arrival event restarts the round loop.
	idle bool
	// checkErr is roundCheck's first error.
	checkErr error
}

func newPPRunner(c *common) (*ppRunner, error) {
	eng := sim.NewEngine()
	cluster, err := runtime.NewCluster(eng, c.cfg.Node, c.cfg.Spec, c.cfg.World)
	if err != nil {
		return nil, err
	}
	// Stock vLLM pipeline parallelism sends activations in a blocking
	// style (§3.2) — the bubble amplifier TD-Pipe's asynchronous
	// runtime removes.
	cluster.BlockingP2P = true
	c.rec = &cluster.Rec
	return &ppRunner{
		common:  c,
		eng:     eng,
		cluster: cluster,
		batch:   make([][]int, c.cfg.World),
		partial: make([][]int, c.cfg.World),
	}, nil
}

func (r *ppRunner) run() (sim.Time, error) {
	for _, id := range r.pending {
		r.pendingArrivals++
		r.eng.AtFunc(r.states[id].arrival, ppArrival, r, id, 0)
	}
	r.pending = nil
	r.startRound(0)
	r.eng.Run()
	if r.checkErr != nil {
		return 0, r.checkErr
	}
	if r.finished != len(r.states) {
		return 0, fmt.Errorf("baselines: %s stalled with %d/%d finished (waiting=%d)",
			r.cfg.Method, r.finished, len(r.states), r.waiting.Len())
	}
	return r.end, nil
}

// ppArrival admits request id at its arrival instant (ctx is the
// runner) and, if the pipeline drained to idle in the meantime,
// restarts the round loop.
func ppArrival(ctx any, id, _ int) {
	r := ctx.(*ppRunner)
	r.pendingArrivals--
	r.waiting.PushBack(id)
	if r.idle {
		r.idle = false
		r.startRound(r.eng.Now())
	}
}

// ppRound opens a round at the current instant (ctx is the runner).
func ppRound(ctx any, _, _ int) {
	r := ctx.(*ppRunner)
	r.startRound(r.eng.Now())
}

// gate serializes an iteration's scheduling through the engine loop and
// returns when the iteration may start on the pipeline.
func (r *ppRunner) gate(ready sim.Time, seqs int) sim.Time {
	start := ready
	if r.engineFree > start {
		start = r.engineFree
	}
	end := start + sim.Time(r.cfg.schedOverhead(seqs))
	r.engineFree = end
	return end
}

func (r *ppRunner) noteEnd(t sim.Time) {
	if t > r.end {
		r.end = t
	}
	if t > r.roundEnd {
		r.roundEnd = t
	}
}

// startRound schedules one lockstep round: every slot gets at most one
// pass; the next round begins only after all of them complete.
//
// A recompute eviction spares only the evicting slot's lists, so a
// victim may still be listed, marked evicted, in another slot, or in a
// slot whose pass already completed. Every list drops such entries
// before the round admits anything: re-admission clears the mark, and
// a stale entry would then name the request a second time.
func (r *ppRunner) startRound(now sim.Time) {
	if roundCheck != nil && r.checkErr == nil {
		r.checkErr = roundCheck(r)
	}
	r.rounds++
	if r.rounds > 64*len(r.states)*1024+1024 {
		panic(fmt.Sprintf("baselines: %s runaway after %d rounds", r.cfg.Method, r.rounds))
	}
	r.outstanding = 0
	r.roundEnd = now
	for slot := range r.batch {
		r.batch[slot] = r.live(r.batch[slot])
		r.partial[slot] = r.live(r.partial[slot])
	}
	for slot := 0; slot < r.cfg.World; slot++ {
		if r.cfg.Method == PPSB {
			r.submitSB(slot, now)
		} else {
			r.submitHB(slot, now)
		}
	}
	if r.outstanding == 0 {
		// Nothing runnable anywhere: either we are done or the pipeline
		// is idle between arrivals.
		if r.finished == len(r.states) {
			return
		}
		if r.waiting.Len() == 0 && r.pendingArrivals > 0 {
			// Drained with more traffic to come: park until the next
			// arrival event restarts the loop.
			r.idle = true
			return
		}
		r.eng.AtFunc(r.eng.Now(), ppRound, r, 0, 0)
	}
}

// passDone accounts one pass completion and opens the next round at the
// barrier.
func (r *ppRunner) passDone() {
	r.outstanding--
	if r.outstanding == 0 {
		r.eng.AtFunc(r.roundEnd, ppRound, r, 0, 0)
	}
}

// --- PP + separate batching -------------------------------------------

func (r *ppRunner) submitSB(slot int, now sim.Time) {
	// Prefill priority, as in vLLM's default scheduler.
	if r.waiting.Len() > 0 {
		ids, lens := r.admitPrefill()
		if len(ids) > 0 {
			r.outstanding++
			r.cluster.SubmitPrefill(costmodel.NewPrefillBatch(lens), r.gate(now, len(ids)), func(res runtime.PassResult) {
				r.noteEnd(res.End)
				r.batch[slot] = append(r.batch[slot], r.completePrefill(ids, res.End)...)
				r.passDone()
			})
			return
		}
	}
	if len(r.batch[slot]) > 0 {
		ids := r.batch[slot]
		r.outstanding++
		r.cluster.SubmitDecode(len(ids), r.kvTokens(ids), r.gate(now, len(ids)), func(res runtime.PassResult) {
			r.noteEnd(res.End)
			r.completeDecode(slot, res.End)
			r.passDone()
		})
	}
}

func (r *ppRunner) completeDecode(slot int, t sim.Time) {
	ids := r.batch[slot]
	r.decodeAll(ids, t, ids)
	r.batch[slot] = r.live(ids)
}

// --- PP + hybrid batching (chunked prefill) ----------------------------

func (r *ppRunner) submitHB(slot int, now sim.Time) {
	decodes := min(len(r.batch[slot]), r.cfg.ChunkTokens)
	chunkTokens, chunkCtx := r.admitChunks(&r.partial[slot], r.cfg.ChunkTokens-decodes)
	if decodes == 0 && chunkTokens == 0 {
		return
	}

	r.outstanding++
	r.cluster.SubmitHybrid(decodes, r.kvTokens(r.batch[slot][:decodes]), chunkTokens, chunkCtx, r.gate(now, decodes+len(r.partial[slot])), func(res runtime.PassResult) {
		r.noteEnd(res.End)
		r.completeHybrid(slot, decodes, res.End)
		r.passDone()
	})
}

// completeHybrid applies one hybrid iteration's effects. Recompute
// evictions spare the slot's whole batch and its partial prefills.
func (r *ppRunner) completeHybrid(slot, decodes int, t sim.Time) {
	ids := r.batch[slot]
	r.decodeAll(ids[:min(decodes, len(ids))], t, ids, r.partial[slot])
	r.batch[slot] = r.live(ids)
	r.promoteChunks(&r.partial[slot], &r.batch[slot], t)
}
