// Package baselines implements the four vLLM-style schedulers the paper
// compares against (§4.1), on exactly the same simulated substrate as
// TD-Pipe:
//
//	TP+SB — tensor parallelism with separate batching (vLLM default):
//	        prefill-prioritized continuous batching, two all-reduces
//	        per layer.
//	TP+HB — tensor parallelism with hybrid batching and chunked
//	        prefill: a per-iteration token budget mixes decodes with
//	        prefill chunks.
//	PP+SB — pipeline parallelism with separate batching: per-slot
//	        continuous batching interleaves prefill batches and decode
//	        steps, suffering the Fig.-1 bubbles.
//	PP+HB — pipeline parallelism with hybrid batching and chunked
//	        prefill.
//
// All four use the paper's recompute strategy on KV overflow: the most
// recently admitted requests are evicted and requeued for re-prefill.
package baselines

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/deque"

	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Method selects a baseline scheduler.
type Method int

// The four baselines.
const (
	TPSB Method = iota
	TPHB
	PPSB
	PPHB
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case TPSB:
		return "TP+SB"
	case TPHB:
		return "TP+HB"
	case PPSB:
		return "PP+SB"
	case PPHB:
		return "PP+HB"
	}
	return "unknown"
}

// IsTP reports whether the method shards tensors rather than layers.
func (m Method) IsTP() bool { return m == TPSB || m == TPHB }

// Methods lists all four baselines in the paper's order.
func Methods() []Method { return []Method{TPSB, TPHB, PPSB, PPHB} }

// ParseMethod returns the baseline whose paper name (String) equals
// name, ignoring case, and reports whether there is one.
func ParseMethod(name string) (Method, bool) {
	for _, m := range Methods() {
		if strings.EqualFold(m.String(), name) {
			return m, true
		}
	}
	return 0, false
}

// Config parameterizes a baseline run.
type Config struct {
	Node  hw.Node
	Spec  model.Spec
	World int
	// Method picks the scheduler.
	Method Method
	// MemUtilization mirrors vLLM's gpu_memory_utilization.
	MemUtilization float64
	// ReserveGB is per-GPU memory withheld for activations, CUDA
	// context and NCCL workspace.
	ReserveGB float64
	// BlockSize is KV block granularity in tokens.
	BlockSize int
	// MaxPrefillTokens caps a separate-batching prefill batch.
	MaxPrefillTokens int
	// ChunkTokens is the hybrid-batching per-iteration token budget
	// (vLLM's max_num_batched_tokens for chunked prefill).
	ChunkTokens int
	// MaxBatch caps requests per running batch (vLLM max_num_seqs).
	MaxBatch int
	// SchedBaseOverhead and SchedPerSeqOverhead model the synchronous
	// engine-loop scheduling gap paid before every iteration (batch
	// assembly, output processing, block-table updates) in seconds and
	// seconds-per-sequence. In stock vLLM this work sits on the
	// critical path and serializes across pipeline microbatches —
	// the cost TD-Pipe's hierarchy-controller moves off the execution
	// plane (§3.2).
	SchedBaseOverhead   float64
	SchedPerSeqOverhead float64

	// SLO is the latency objective folded into the run's latency
	// digest (goodput accounting). The zero value disables it.
	SLO metrics.SLO
}

// DefaultConfig returns vLLM-like defaults.
func DefaultConfig(node hw.Node, spec model.Spec, world int, m Method) Config {
	return Config{
		Node:                node,
		Spec:                spec,
		World:               world,
		Method:              m,
		MemUtilization:      0.90,
		ReserveGB:           3,
		BlockSize:           16,
		MaxPrefillTokens:    2048,
		ChunkTokens:         512,
		MaxBatch:            1024,
		SchedBaseOverhead:   2e-3,
		SchedPerSeqOverhead: 25e-6,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.World <= 0:
		return fmt.Errorf("baselines: world = %d", c.World)
	case c.MemUtilization <= 0 || c.MemUtilization > 1:
		return fmt.Errorf("baselines: MemUtilization = %v", c.MemUtilization)
	case c.MaxPrefillTokens <= 0 || c.ChunkTokens <= 0 || c.MaxBatch <= 0:
		return fmt.Errorf("baselines: non-positive batching limits")
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	return c.Spec.Validate()
}

// schedOverhead returns the engine-loop gap before an iteration over
// seqs sequences.
func (c Config) schedOverhead(seqs int) float64 {
	return c.SchedBaseOverhead + float64(seqs)*c.SchedPerSeqOverhead
}

// kvCapacity computes usable KV tokens for the deployment.
func kvCapacity(cfg Config) (int, error) {
	if cfg.Method.IsTP() {
		sh, err := model.TensorParallel(cfg.Spec, cfg.World)
		if err != nil {
			return 0, err
		}
		avail := cfg.Node.GPU.MemBytes()*cfg.MemUtilization - cfg.ReserveGB*1e9 - sh.RankWeightBytes()
		if avail <= 0 {
			return 0, fmt.Errorf("baselines: OOM: TP rank weights %.1f GB exceed usable memory", sh.RankWeightBytes()/1e9)
		}
		capTok := int(avail / sh.RankKVBytesPerToken())
		if capTok < cfg.MaxPrefillTokens {
			return 0, fmt.Errorf("baselines: OOM: capacity %d tokens below one batch", capTok)
		}
		return capTok, nil
	}
	plan, err := model.Partition(cfg.Spec, cfg.World)
	if err != nil {
		return 0, err
	}
	capTok := -1
	for st := range plan.Stages {
		avail := cfg.Node.GPU.MemBytes()*cfg.MemUtilization - cfg.ReserveGB*1e9 - plan.StageWeightBytes(st)
		if avail <= 0 {
			return 0, fmt.Errorf("baselines: OOM: stage %d weights exceed usable memory", st)
		}
		t := int(avail / plan.StageKVBytesPerToken(st))
		if capTok < 0 || t < capTok {
			capTok = t
		}
	}
	if capTok < cfg.MaxPrefillTokens {
		return 0, fmt.Errorf("baselines: OOM: capacity %d tokens below one batch", capTok)
	}
	return capTok, nil
}

// ErrRequestTooLarge rejects a trace holding a request whose KV
// footprint can never fit the pool. Run returns it before simulating
// anything: such a request would stay at the head of the waiting queue
// forever, so PP would retry its empty round until the runaway guard
// panics and TP would stop with no progress. Callers distinguish it
// with errors.Is.
var ErrRequestTooLarge = errors.New("baselines: request KV footprint exceeds pool capacity")

// checkFits rejects r if its decode-plane peak — input + output - 2
// tokens, since the last token needs no KV slot — exceeds the whole
// pool, as core's admission check does.
func checkFits(kv *kvcache.Manager, r workload.Request) error {
	peak := r.InputLen + max(r.OutputLen-2, 0)
	if need := kv.BlocksFor(peak); need > kv.CapacityBlocks() {
		return fmt.Errorf("baselines: request %d of %d input + %d output tokens needs %d KV blocks, capacity is %d: %w",
			r.ID, r.InputLen, r.OutputLen, need, kv.CapacityBlocks(), ErrRequestTooLarge)
	}
	return nil
}

// reqState mirrors core's request tracking.
type reqState struct {
	req workload.Request
	// ctx counts the cached tokens, the count the KV pool sizes the
	// window from; room counts the free token slots in its last block.
	ctx, room  int
	prefilled  int // prompt tokens already prefilled (chunked prefill)
	generated  int
	prefillLen int
	done       bool
	evicted    bool
	// arrival gates admission: the scheduler never sees the request
	// before this virtual time.
	arrival sim.Time
	// firstTokenAt is when the first output token was produced.
	firstTokenAt sim.Time
	finishedAt   sim.Time
}

// Result is the outcome of a baseline run.
type Result struct {
	Report metrics.Report
	Rec    *metrics.Recorder
	// Records holds per-request lifecycle timestamps by request ID;
	// Report.Latency digests them.
	Records []metrics.RequestRecord
}

// Run executes the trace under the configured baseline and returns its
// report.
func Run(cfg Config, reqs []workload.Request) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	capTok, err := kvCapacity(cfg)
	if err != nil {
		return nil, err
	}
	// Floor-align the byte-derived capacity to keep the historical
	// block count (NewManager now rounds up instead of truncating).
	kv, err := kvcache.NewManager(kvcache.AlignTokens(capTok, cfg.BlockSize), cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	states := make([]*reqState, len(reqs))
	for i, r := range reqs {
		if r.ID != i {
			return nil, fmt.Errorf("baselines: request IDs must be dense 0..n-1")
		}
		if err := checkFits(kv, r); err != nil {
			return nil, err
		}
		states[i] = &reqState{req: r, prefillLen: r.InputLen, arrival: sim.Time(r.ArrivalTime)}
	}
	base := &common{cfg: cfg, kv: kv, states: states}
	// Requests due at t=0 form the initial waiting queue (the whole
	// trace in the offline regime); the rest are admitted only once
	// virtual time reaches their arrival.
	for i, st := range states {
		if st.arrival <= 0 {
			base.waiting.PushBack(i)
		} else {
			base.pending = append(base.pending, i)
		}
	}
	sort.SliceStable(base.pending, func(a, b int) bool {
		return states[base.pending[a]].arrival < states[base.pending[b]].arrival
	})
	var run func() (sim.Time, error)
	if cfg.Method.IsTP() {
		run = newTPRunner(base).run
	} else {
		r, err := newPPRunner(base)
		if err != nil {
			return nil, err
		}
		run = r.run
	}
	end, err := run()
	if err != nil {
		return nil, err
	}
	rep := metrics.Report{
		Scheduler: cfg.Method.String(),
		Node:      cfg.Node.Name,
		Model:     cfg.Spec.Name,
		GPUs:      cfg.World,
		Requests:  len(reqs),
		Elapsed:   float64(end),
	}
	records := make([]metrics.RequestRecord, len(states))
	for i, st := range states {
		rep.InputTokens += st.req.InputLen
		rep.OutputTokens += st.generated
		records[i] = metrics.RequestRecord{
			ID:           i,
			Arrival:      float64(st.arrival),
			FirstToken:   float64(st.firstTokenAt),
			Finish:       float64(st.finishedAt),
			OutputTokens: st.generated,
		}
	}
	rep.MeanUtilization = base.rec.MeanUtilization(0, float64(end))
	rep.BubbleRatio = 1 - rep.MeanUtilization
	rep.Recomputes = base.nRecompute
	rep.KVPeakUsage = float64(kv.PeakBlocks()) / float64(kv.CapacityBlocks())
	rep.Latency = metrics.Digest(records, cfg.SLO)
	return &Result{Report: rep, Rec: base.rec, Records: records}, nil
}

// common holds scheduler-independent state and the batching core both
// runners share: admission, chunked-prefill promotion and the recompute
// decode loop.
type common struct {
	cfg    Config
	kv     *kvcache.Manager
	states []*reqState
	// rec records GPU busy time; the runner's constructor sets it.
	rec *metrics.Recorder
	// waiting holds admitted (arrived) requests awaiting prefill: a
	// ring-buffer deque so eviction-recompute front-insertions are O(1).
	waiting deque.Int
	// pending holds not-yet-arrived requests in arrival order.
	pending    []int
	finished   int
	nRecompute int
}

// admitDue moves pending requests whose arrival is at or before t into
// the waiting queue.
func (c *common) admitDue(t sim.Time) {
	for len(c.pending) > 0 && c.states[c.pending[0]].arrival <= t {
		c.waiting.PushBack(c.pending[0])
		c.pending = c.pending[1:]
	}
}

// admitHead allocates KV for the waiting queue's head and pops it. It
// reports false, leaving the queue as it is, if the queue is empty or
// the head does not fit.
func (c *common) admitHead() (id int, ok bool) {
	if c.waiting.Len() == 0 {
		return 0, false
	}
	id = c.waiting.Front()
	st := c.states[id]
	if !c.kv.CanAllocate(st.prefillLen, 0, 0) {
		return 0, false
	}
	if _, err := c.kv.Allocate(id, st.prefillLen, 0, 0); err != nil {
		return 0, false
	}
	c.waiting.PopFront()
	st.evicted = false
	return id, true
}

// admitPrefill packs the next separate-batching prefill batch from the
// waiting queue, allocating KV. Returns nil if nothing fits.
func (c *common) admitPrefill() (ids []int, lens []int) {
	tokens := 0
	for tokens < c.cfg.MaxPrefillTokens && len(ids) < c.cfg.MaxBatch {
		id, ok := c.admitHead()
		if !ok {
			break
		}
		st := c.states[id]
		ids = append(ids, id)
		lens = append(lens, st.prefillLen)
		tokens += st.prefillLen
	}
	return ids, lens
}

// completePrefill marks a separate-batching prefill batch done at t.
// It returns the ids that continue into decode.
func (c *common) completePrefill(ids []int, t sim.Time) []int {
	var live []int
	for _, id := range ids {
		st := c.states[id]
		if st.evicted {
			continue
		}
		st.ctx = st.prefillLen
		st.room = c.kv.BlocksFor(st.ctx)*c.kv.BlockSize() - st.ctx
		st.prefilled = st.prefillLen
		if st.generated == 0 {
			st.firstTokenAt = t
		}
		st.generated++
		if st.generated >= st.req.OutputLen {
			c.finishReq(id, t)
		} else {
			live = append(live, id)
		}
	}
	return live
}

// admitChunks spends a hybrid iteration's prefill budget: first on the
// requests in partial, oldest first, then on fresh admissions, which it
// appends to partial. It returns the chunk tokens and the cached context
// those chunks re-read. The chunks count as prefilled at once;
// promoteChunks applies their completion.
func (c *common) admitChunks(partial *[]int, budget int) (chunkTokens, chunkCtx int) {
	for _, id := range *partial {
		if budget <= 0 {
			break
		}
		st := c.states[id]
		take := min(st.prefillLen-st.prefilled, budget)
		chunkTokens += take
		chunkCtx += st.prefilled
		st.prefilled += take
		budget -= take
	}
	for budget > 0 {
		id, ok := c.admitHead()
		if !ok {
			break
		}
		st := c.states[id]
		take := min(st.prefillLen, budget)
		chunkTokens += take
		st.prefilled = take
		budget -= take
		*partial = append(*partial, id)
	}
	return chunkTokens, chunkCtx
}

// promoteChunks completes, at t, the prefill of every request in partial
// whose last chunk has landed: it produces the first token and moves the
// request to running, or finishes it. Evicted and done requests drop out
// of partial.
func (c *common) promoteChunks(partial, running *[]int, t sim.Time) {
	var full, still []int
	for _, id := range *partial {
		st := c.states[id]
		switch {
		case st.evicted || st.done:
		case st.prefilled >= st.prefillLen:
			full = append(full, id)
		default:
			still = append(still, id)
		}
	}
	*running = append(*running, c.completePrefill(full, t)...)
	*partial = still
}

// decodeAll advances one decode token, at t, for every id in ids that is
// neither evicted nor done. A recompute eviction it triggers spares the
// ids in keep.
func (c *common) decodeAll(ids []int, t sim.Time, keep ...[]int) {
	for _, id := range ids {
		st := c.states[id]
		if st.evicted || st.done {
			continue
		}
		c.decodeAppend(id, t, keep)
	}
}

// decodeAppend advances one decode token for id. Only a token that opens
// a new KV block calls the pool; if the pool is full it evicts
// most-recent requests (the recompute strategy), sparing the ids in
// keep.
func (c *common) decodeAppend(id int, t sim.Time, keep [][]int) {
	st := c.states[id]
	st.generated++
	st.ctx++
	if st.generated >= st.req.OutputLen {
		// The final token needs no KV slot; the request is done.
		c.finishReq(id, t)
		return
	}
	if st.room > 0 {
		st.room--
		return
	}
	if err := c.kv.Grow(id, st.ctx); err != nil {
		victims := c.kv.EvictMostRecent(1, keep...)
		for _, v := range victims {
			c.evict(v)
		}
		if err := c.kv.Grow(id, st.ctx); err != nil {
			c.kv.Free(id)
			c.evict(id)
			return
		}
	}
	st.room = c.kv.BlockSize() - 1
}

func (c *common) evict(id int) {
	st := c.states[id]
	st.evicted = true
	st.prefillLen = st.req.InputLen + st.generated
	st.ctx = 0
	st.prefilled = 0
	c.nRecompute++
	c.waiting.PushFront(id)
}

func (c *common) finishReq(id int, t sim.Time) {
	st := c.states[id]
	st.done = true
	st.finishedAt = t
	c.kv.Free(id)
	c.finished++
}

// live filters ids down to non-evicted, non-done entries.
func (c *common) live(ids []int) []int {
	out := ids[:0]
	for _, id := range ids {
		st := c.states[id]
		if !st.evicted && !st.done {
			out = append(out, id)
		}
	}
	return out
}

// kvTokens sums cached tokens of ids.
func (c *common) kvTokens(ids []int) int {
	n := 0
	for _, id := range ids {
		n += c.states[id].ctx
	}
	return n
}
