package baselines

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// tpRunner executes the TP+SB and TP+HB baselines. Tensor parallelism
// runs every GPU in lockstep (SPMD), so no event queue is needed: time
// advances iteration by iteration. GPUs are busy during the compute
// part of an iteration and stall during all-reduces, which is how the
// paper's Fig.-6 breakdown attributes time.
type tpRunner struct {
	*common
	cm *costmodel.Model
	t  sim.Time

	running []int
	// partial tracks requests mid-chunked-prefill (TP+HB only).
	partial []int
}

func newTPRunner(c *common) *tpRunner {
	cm, err := costmodel.New(c.cfg.Node, c.cfg.Spec)
	if err != nil {
		panic(err) // Config.Validate already vetted node and spec
	}
	c.rec = metrics.NewRecorder(c.cfg.World)
	return &tpRunner{common: c, cm: cm}
}

// spend advances time by one iteration: the engine-loop scheduling gap
// first (all GPUs idle), then compute (busy on every GPU), then
// communication (idle).
func (r *tpRunner) spend(compute, comm float64, seqs int) {
	r.t += sim.Time(r.cfg.schedOverhead(seqs))
	for g := 0; g < r.cfg.World; g++ {
		r.rec.Add(g, float64(r.t), float64(r.t)+compute)
	}
	r.t += sim.Time(compute + comm)
}

func (r *tpRunner) run() (sim.Time, error) {
	maxIters := 64*len(r.states)*1024 + 1024
	for iter := 0; r.finished < len(r.states); iter++ {
		if iter > maxIters {
			return 0, fmt.Errorf("baselines: TP scheduler made no progress after %d iterations", iter)
		}
		r.admitDue(r.t)
		tBefore, finBefore, recBefore := r.t, r.finished, r.nRecompute
		if r.cfg.Method == TPSB {
			r.stepSB()
		} else {
			r.stepHB()
		}
		if r.t == tBefore && r.finished == finBefore && r.nRecompute == recBefore && len(r.pending) > 0 {
			// Nothing runnable yet the trace is not exhausted: the
			// engine is idle between arrivals. Fast-forward the clock
			// to the next arrival (GPUs stay idle over the gap).
			if next := r.states[r.pending[0]].arrival; next > r.t {
				r.t = next
			}
		}
	}
	return r.t, nil
}

// stepSB is one vLLM-default iteration: prefill-prioritized separate
// batching.
func (r *tpRunner) stepSB() {
	if r.waiting.Len() > 0 {
		ids, lens := r.admitPrefill()
		if len(ids) > 0 {
			comp, comm := r.cm.TPPrefill(r.cfg.World, costmodel.NewPrefillBatch(lens))
			r.spend(comp, comm, len(ids))
			r.running = append(r.running, r.completePrefill(ids, r.t)...)
			return
		}
	}
	r.decodeStep()
}

func (r *tpRunner) decodeStep() {
	r.running = r.live(r.running)
	if len(r.running) == 0 {
		return
	}
	batch := r.running[:min(len(r.running), r.cfg.MaxBatch)]
	comp, comm := r.cm.TPDecode(r.cfg.World, len(batch), r.kvTokens(batch))
	r.spend(comp, comm, len(batch))
	r.decodeAll(batch, r.t, batch)
	r.running = r.live(r.running)
}

// stepHB is one chunked-prefill hybrid iteration: decodes first, then
// prefill chunks up to the token budget.
func (r *tpRunner) stepHB() {
	r.running = r.live(r.running)
	r.partial = r.live(r.partial)
	decodes := r.running[:min(len(r.running), r.cfg.ChunkTokens)]
	chunkTokens, chunkCtx := r.admitChunks(&r.partial, r.cfg.ChunkTokens-len(decodes))
	if len(decodes) == 0 && chunkTokens == 0 {
		return
	}
	comp, comm := r.cm.TPHybrid(r.cfg.World, len(decodes), r.kvTokens(decodes), chunkTokens, chunkCtx)
	r.spend(comp, comm, len(decodes)+len(r.partial))
	r.decodeAll(decodes, r.t, decodes, r.partial)
	r.promoteChunks(&r.partial, &r.running, r.t)
	r.running = r.live(r.running)
}
