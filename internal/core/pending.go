package core

import (
	"repro/internal/costmodel"
	"repro/internal/deque"
)

// waitQueue is the engine's FIFO of requests awaiting prefill, paired
// with the cached pending-prefill preview of its head that the
// decode->prefill switch check reads on every decode step. The mutators
// that remove or reorder queued entries drop the preview. The promoted
// PushBack keeps it: it only appends past the positions the preview
// covers, and the preview reaches the new entry lazily if a later check
// needs it.
type waitQueue struct {
	deque.Int
	pv pendingPreview
}

// PushFront queues id at the head (eviction-recompute victims).
func (w *waitQueue) PushFront(id int) {
	w.pv.reset()
	w.Int.PushFront(id)
}

// PopFront removes and returns the head request id.
func (w *waitQueue) PopFront() int {
	w.pv.reset()
	return w.Int.PopFront()
}

// Reset empties the queue.
func (w *waitQueue) Reset() {
	w.pv.reset()
	w.Int.Reset()
}

// pendingPreview caches the pending prefills of §3.5 — the waiting
// queue's head packed greedily into MaxPrefillTokens batches — for the
// current queue state, so a switch check binary-searches the free-KV cut
// instead of re-walking and re-costing the queue. It covers the first
// len(prefix)-1 queue positions and grows only as far as a check needs.
// Because batch boundaries and costs depend on the queue alone, not on
// free memory, every check against the same queue state shares them.
type pendingPreview struct {
	// prefix[k] is the prefillLen sum of the first k queued requests.
	prefix []int
	// run[i] summarizes queue position i's greedy batch from its first
	// member through i — the whole batch once Tokens reaches
	// MaxPrefillTokens, otherwise the partial batch a cut after i packs.
	run []costmodel.PrefillBatch
	// batchOf[i] is the index of position i's batch.
	batchOf []int
	// cumCost[j] and cumMax[j] are the total and the maximum of the
	// prefill times of complete batches 0..j-1, accumulated in batch
	// order exactly as Temporal's loop does (cumCost[0] = cumMax[0] = 0).
	cumCost []float64
	cumMax  []float64
	// tailK and tailCost memoize the partial tail batch's prefill time
	// at the last cut (tailK 0: none). A short queue is one partial
	// batch, so without this every check would re-cost it.
	tailK    int
	tailCost float64
}

// reset drops the preview, keeping its buffers.
func (p *pendingPreview) reset() {
	p.prefix = p.prefix[:0]
	p.run = p.run[:0]
	p.batchOf = p.batchOf[:0]
	p.cumCost = p.cumCost[:0]
	p.cumMax = p.cumMax[:0]
	p.tailK = 0
}

// extendPreview grows the preview until it covers a position past free
// tokens that also reaches maxTokens, or the whole queue — exactly what
// pendingTemporal reads: the free-KV cut and min(maxTokens, waiting
// tokens).
func (e *Engine) extendPreview(free, maxTokens int) {
	w := &e.waiting
	p := &w.pv
	if len(p.prefix) == 0 {
		p.prefix = append(p.prefix, 0)
		p.cumCost = append(p.cumCost, 0)
		p.cumMax = append(p.cumMax, 0)
	}
	for i := len(p.prefix) - 1; i < w.Len(); i++ {
		top := p.prefix[i]
		if top > free && top >= maxTokens {
			return
		}
		need := e.states[w.At(i)].prefillLen
		var r costmodel.PrefillBatch
		if i > 0 && p.run[i-1].Tokens < maxTokens {
			r = p.run[i-1]
		}
		r.Seqs++
		r.Tokens += need
		r.SumSqTokens += float64(need) * float64(need)
		j := len(p.cumCost) - 1
		p.prefix = append(p.prefix, top+need)
		p.run = append(p.run, r)
		p.batchOf = append(p.batchOf, j)
		if r.Tokens >= maxTokens {
			t := e.inten.prefillCost(r)
			longest := p.cumMax[j]
			if t > longest {
				longest = t
			}
			p.cumCost = append(p.cumCost, p.cumCost[j]+t)
			p.cumMax = append(p.cumMax, longest)
		}
	}
}

// pendingTemporal returns the temporal intensity (§3.5) of the prefill
// batches launchable with free KV tokens: the waiting queue's head up to
// the first request that would overflow free, packed greedily into
// MaxPrefillTokens batches. launchable is false — and ti 0, switching
// buys nothing — when free cannot hold a meaningful amount of prefill
// work: one full batch, or all of the waiting set if smaller. A check
// costs a binary search plus, at most, costing the partial tail batch.
//
//det:hotpath
func (e *Engine) pendingTemporal(free int, decodeStep float64) (ti float64, launchable bool) {
	maxTokens := e.cfg.MaxPrefillTokens
	e.extendPreview(free, maxTokens)
	p := &e.waiting.pv
	built := len(p.prefix) - 1
	// k is the largest cut with prefix[k] <= free: where a front-to-back
	// packing loop stops.
	k, hi := 0, built
	for k < hi {
		mid := int(uint(k+hi+1) >> 1)
		if p.prefix[mid] <= free {
			k = mid
		} else {
			hi = mid - 1
		}
	}
	// The preview covers maxTokens or the whole queue, so this is
	// min(maxTokens, waiting tokens).
	want := p.prefix[built]
	if want > maxTokens {
		want = maxTokens
	}
	if k == 0 || p.prefix[k] < want {
		return 0, false
	}
	j, r := p.batchOf[k-1], p.run[k-1]
	if r.Tokens >= maxTokens {
		// The cut closes batch j: every pending batch is complete.
		return temporalIntensity(p.cumMax[j+1], p.cumCost[j+1], decodeStep, e.numSlots), true
	}
	// Otherwise the cut ends inside batch j: batches before it are
	// complete and r is the partial tail.
	if p.tailK != k {
		p.tailK, p.tailCost = k, e.inten.prefillCost(r)
	}
	longest := p.cumMax[j]
	if p.tailCost > longest {
		longest = p.tailCost
	}
	return temporalIntensity(longest, p.cumCost[j]+p.tailCost, decodeStep, e.numSlots), true
}
