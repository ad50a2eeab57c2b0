package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrRequestTooLarge rejects a request at submission because its KV
// footprint can never fit the engine's pool: even with every other
// request evicted, the decode plane would OOM-loop on it forever (the
// old behavior was a crash-looping "core: stalled" panic deep in the
// phase machine). Callers distinguish it with errors.Is to drop the
// request with a reason instead of failing the run.
var ErrRequestTooLarge = errors.New("request KV footprint exceeds engine capacity")

// reqState is one live request's record in the engine, kept by id in
// Engine.states until finishReq retires the request to its
// metrics.RequestRecord in Engine.records and drops the state. While
// the request sits in a decode batch or the stealer's stash, its batch
// entry (decodeSeq) holds the live ctx and generated instead; the entry
// writes them back when the request leaves, and syncStates brings every
// copy up to date for the readers by id that run mid-phase. The fields
// read by id at every decode phase's entry and exit come first, with the
// request's lengths right behind them.
type reqState struct {
	// ctx is the number of tokens the KV pool holds for the request, the
	// one count of them: set when its prefill is allocated, grown by
	// decoding, zero once its KV is gone. The pool holds exactly
	// BlocksFor(ctx) blocks for it.
	ctx int
	// generated is the number of output tokens produced so far.
	generated int

	evicted bool
	// aborted marks a request lost to a crash: it stays in states for
	// record-keeping (its record is unfinished) but no longer counts
	// toward completion. Routers re-dispatch it elsewhere.
	aborted bool
	// resident marks a request counted in Engine.resident: live and in
	// the decode plane.
	resident bool

	req       workload.Request
	predicted int
	// prefillLen is how many tokens the next prefill must process
	// (input plus any tokens generated before an eviction).
	prefillLen int
	// cached is how many leading tokens of the last allocation were
	// served from shared prefix blocks — prefill work skipped, and KV
	// this request references but did not pay for.
	cached int
	// launch identifies the prefill batch that most recently packed
	// this request. A request evicted while its prefill pass is still
	// in flight can be re-launched in a second pass before the first
	// completes; the stale completion sees a newer launch id and is
	// ignored, so the request is never processed twice.
	launch uint64
	// firstTokenAt is when the first output token was produced
	// (recompute evictions keep the original first-token time).
	firstTokenAt sim.Time
	// ckpt is the latest periodic KV checkpoint of this request (nil
	// until the first checkpoint round catches it resident), a hand-off
	// whose At is the snapshot instant.
	ckpt *Handoff
}

// decodeSeq is one request's decode-step state, kept by value in its
// slot's batch in batch order, so a decode pass streams its batch
// instead of loading each request's state by id. It is the live copy of
// ctx and generated while the request is batched or stashed.
type decodeSeq struct {
	id        int
	ctx       int
	generated int
	outputLen int
	// room counts the free token slots in the request's last block: how
	// many more tokens it caches before one opens a new block, the only
	// point at which a decode pass calls the KV pool.
	room int
	// evicted marks an entry whose request lost its KV while this batch
	// was in flight (another slot's recompute eviction or a preemption).
	evicted bool
}

// enterBatch returns request id's batch entry, loaded from its record as
// it joins a decode batch.
func (e *Engine) enterBatch(id int) decodeSeq {
	st := e.states[id]
	return decodeSeq{
		id:        id,
		ctx:       st.ctx,
		generated: st.generated,
		outputLen: st.req.OutputLen,
		room:      e.kv.BlocksFor(st.ctx)*e.kv.BlockSize() - st.ctx,
	}
}

// store writes d's live counts back to its request's record.
//
//det:hotpath
func (e *Engine) store(d *decodeSeq) {
	st := e.states[d.id]
	st.ctx, st.generated = d.ctx, d.generated
}

// syncStates brings the records up to date with every live batch and
// stash entry, for the readers by id that run while a decode phase holds
// requests: the finish bound, crashes and evictions.
// Evicted entries are dead and their records already current. A slot
// whose pass is being applied holds moved and half-applied entries; the
// caller names it as skip (-1 for none) and stores what it needs itself.
//
//det:hotpath
func (e *Engine) syncStates(skip int) {
	for s, b := range e.batches {
		if s == skip {
			continue
		}
		for i := range b {
			if !b[i].evicted {
				e.store(&b[i])
			}
		}
	}
	for i := range e.stealer.stash {
		e.store(&e.stealer.stash[i])
	}
}

// markEvicted flags the batch entries of requests evicted since they
// joined their batch, so each slot skips them when its pass returns.
// Evictions are rare; this scans every batch once per evicting call.
// A slot whose pass is being applied still holds, past its survivors,
// the old copies of moved entries and of requests that finished in the
// pass, whose states are gone; those copies are dropped with the pass.
func (e *Engine) markEvicted() {
	for _, b := range e.batches {
		for i := range b {
			if d, st := &b[i], e.states[b[i].id]; !d.evicted && st != nil && st.evicted {
				d.evicted = true
			}
		}
	}
}

// remainingPredicted returns how many more output tokens the predictor
// expects request id, having generated that many, to generate (never
// negative).
//
//det:hotpath
func (e *Engine) remainingPredicted(id, generated int) int {
	rem := e.states[id].predicted - generated
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Result is the outcome of a TD-Pipe run.
type Result struct {
	Report metrics.Report
	// Rec holds per-GPU busy intervals for utilization analysis (nil
	// unless Config.RecordBusy).
	Rec *metrics.Recorder
	// KV is the Fig.-12 usage timeline (nil unless Config.RecordKV).
	KV *metrics.KVTimeline
	// Records holds per-request lifecycle timestamps (arrival, first
	// token, finish) by request ID; Report.Latency digests them.
	Records []metrics.RequestRecord
	// Steps is the number of simulation events processed by the run's
	// engine (the shared engine's total for co-simulated fleets);
	// divided by wall-clock time it gives the kernel's steps/sec.
	Steps uint64
}

// stepCheck, when set, runs after every decode step. Tests install an
// invariant check here that parks the engine with an error through
// fail when the running state disagrees with a recount.
var stepCheck func(*Engine)

// Engine is the TD-Pipe centralized engine bound to one simulation.
// The fields a decode step touches come first, so a step on a cold
// engine (one of many in a fleet) loads a few cache lines, not the
// whole struct.
type Engine struct {
	// Fault-injection lifecycle state. epoch counts crash/restore
	// cycles; every scheduled event and pass completion carries the
	// epoch that issued it and is discarded when stale, so work in
	// flight at a crash cannot touch the restarted engine. fatalErr
	// parks the engine on an internal error instead of panicking inside
	// the shared event loop; Finalize surfaces it.
	epoch    int
	fatalErr error

	cluster *runtime.Cluster
	kv      *kvcache.Manager
	stealer *Stealer

	// Decode-phase state. batches[slot] holds the slot's requests as
	// batch entries and batchTokens[slot] their summed ctx, kept running
	// so a submission needs no pass over the batch.
	batches     [][]decodeSeq
	batchTokens []int
	// decodeDone holds the per-slot completion callbacks, bound once
	// per phase, not per step.
	decodeDone     []func(runtime.PassResult)
	step           int
	activeBatches  int
	numSlots       int
	decodeInitial  int
	decodeFinished int
	switchToPrefil bool

	// resident and residentTokens count the live requests in the
	// decode plane (batches, stash, decode pool and staged imports) and
	// their cached tokens. They change where a request joins the plane,
	// grows a token, or leaves it (finish, eviction, crash).
	resident, residentTokens int

	// imported stages SubmitDecoded admissions that arrived while a
	// phase was active: a dedicated decode server cannot wait for the
	// whole phase to drain, so staged requests are injected into a
	// running decode batch at the next step boundary (continuous
	// batching). Always empty in colocated deployments.
	imported []int

	finished int
	// onFinish, when set, is invoked synchronously as each request
	// completes — the O(1) load-tracking hook online routers use
	// instead of rescanning outstanding requests.
	onFinish func(id int)

	waiting waitQueue

	cfg   Config
	eng   *sim.Engine
	usage *usageSim
	inten *Intensity

	capacityTokens int

	// states[id] is request id's record (see reqState) while id is live
	// or crash-lost; finishReq sets it to nil, so a stray access to a
	// finished id panics, and every reader that can meet one treats nil
	// as done.
	states []*reqState
	// records[id] is finished request id's lifecycle record, the table
	// Result.Records returns. It is allocated at the first finish and
	// grown there to every id added so far; buildResult fills the
	// crash-lost ids. inputTokens and outputTokens sum the finished
	// requests' input and generated tokens.
	records                   []metrics.RequestRecord
	inputTokens, outputTokens int
	// live holds the ids of the requests that may still be unfinished:
	// every id added since the last compaction, less the finished and
	// aborted ones compactLive drops when it meets them. It is nil until
	// FinishBound is first asked, so an engine whose bound nobody reads
	// keeps no list.
	live []int
	// passFloor is a lower bound on the time between two passes' tokens
	// for one request (see FinishBound).
	passFloor float64

	phase      metrics.Phase
	everPhased bool

	// Prefill-phase state.
	inflight int
	// launchSeq numbers prefill batches; see reqState.launch.
	launchSeq uint64
	// decodePool holds ids that are resident and waiting for the next
	// decode phase.
	decodePool []int

	kvTimeline *metrics.KVTimeline
	// prefixCached sums prompt tokens whose prefill was skipped via
	// shared-prefix KV hits.
	prefixCached int
	recomputes   int
	switches     int
	doneAt       sim.Time
	running      bool

	// idle is true when both planes are drained and the engine is
	// waiting for the next arrival; the arrival kicks a prefill phase.
	idle bool
	// warm maps each prefix group submitted before the start event to
	// its longest usable prefix, the warmth PrefixWarmTokens reports
	// while nothing is resident yet. It exists only from StartOnline to
	// the start event (or a crash before it).
	warm map[int]int

	// dead is true between Crash and Restore (no work is accepted);
	// aborted counts requests lost to crashes (Finalize's balance
	// becomes finished + aborted == submitted).
	dead    bool
	aborted int
	crashes int
	// restartAt is the instant the last crash's downtime ends; Restore
	// before it is a lifecycle bug (the GPUs are still stalled
	// reloading weights) and is rejected.
	restartAt sim.Time

	// Checkpoint cadence state (Config.CheckpointInterval).
	ckptScheduled    bool
	checkpoints      int
	checkpointBytes  float64
	lostOutputTokens int

	// handoff, when set, turns the engine into the prefill half of a
	// disaggregated deployment: each request that completes prefill
	// with output still to generate has its KV exported and is handed
	// to this hook instead of entering the local decode pool. Requests
	// that finish at prefill (single-token outputs) complete locally.
	handoff func(Handoff)

	// Scratch buffers recycled across scheduler iterations: idsFree
	// recycles prefill batch id slices (returned by onPrefillDone),
	// lensBuf the per-batch length staging, sizesBuf the decode split
	// sizes and spareBuf the ids a recompute eviction spares.
	idsFree  [][]int
	lensBuf  []int
	sizesBuf []int
	spareBuf []int
}

// NewEngine validates the configuration, sizes the KV pool and builds
// the pipeline cluster.
func NewEngine(eng *sim.Engine, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	capTokens, err := KVCapacityTokens(cfg)
	if err != nil {
		return nil, err
	}
	cluster, err := runtime.NewCluster(eng, cfg.Node, cfg.Spec, cfg.World)
	if err != nil {
		return nil, err
	}
	// The byte-derived capacity is floor-aligned so the pool keeps the
	// exact block count it always had (NewManager now rounds up).
	kv, err := kvcache.NewManager(kvcache.AlignTokens(capTokens, cfg.BlockSize), cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	floor := cluster.Cost.PassFloor()
	if cfg.Slowdown > 0 {
		cluster.SetSlowdown(cfg.Slowdown)
		if cfg.Slowdown < 1 {
			floor *= cfg.Slowdown
		}
	}
	if !cfg.RecordBusy {
		cluster.Rec = *metrics.NewStreamingRecorder(cfg.World)
	}
	e := &Engine{
		cfg:            cfg,
		eng:            eng,
		cluster:        cluster,
		kv:             kv,
		stealer:        NewStealer(cfg.World, !cfg.DisableWorkStealing),
		usage:          newUsageSim(futurePointStride, futurePointMax),
		inten:          NewIntensity(cluster.Cost, cfg.PeakProfileBatch),
		capacityTokens: capTokens,
		kvTimeline:     &metrics.KVTimeline{},
		// The relative margin absorbs the rounding of the float sums
		// that time a pass chain, so the bound never overshoots.
		passFloor: floor * (1 - 1e-6),
	}
	return e, nil
}

// CapacityTokens returns the engine's KV capacity in tokens.
func (e *Engine) CapacityTokens() int { return e.capacityTokens }

// SetOnFinish registers fn to be called with each request's local id
// the moment it completes, from inside the simulation's event context.
// Online routers use it to maintain incremental load counters. Call
// before the simulation runs; a nil fn disables the hook.
func (e *Engine) SetOnFinish(fn func(id int)) { e.onFinish = fn }

// Handoff describes a request's KV leaving an engine — a prefill-only
// engine's hand-off, or a periodic checkpoint (Config.CheckpointInterval)
// that a crash hands back in Lost: its original request, the exported KV
// block window, and the generation state a decode engine needs to resume
// it via SubmitDecoded.
type Handoff struct {
	// Local is the request's id on the engine the KV leaves.
	Local int
	// Req is the engine-local copy of the request (ID == Local); the
	// router maps it back to its trace position.
	Req workload.Request
	// KV is the exported block window to migrate.
	KV kvcache.ExportedSeq
	// Generated is how many output tokens prefill produced (1, unless
	// the request was recompute-prefilled after an eviction).
	Generated int
	// FirstTokenAt is when the first output token was produced.
	FirstTokenAt sim.Time
	// At is when the prefill pass completed — the instant the KV
	// transfer can start — or, for a checkpoint, when the snapshot was
	// taken.
	At sim.Time
}

// SetHandoff registers fn as the prefill hand-off hook (see Handoff).
// Call before the simulation runs; a nil fn restores colocated
// behavior. The hook fires inside the simulation's event context,
// after the request is retired locally (finish hook included), so load
// counters are already settled when the router sees the hand-off.
func (e *Engine) SetHandoff(fn func(Handoff)) { e.handoff = fn }

// SubmitDecoded admits a request whose prefill completed on another
// engine: the exported KV is re-materialized in this engine's pool and
// the request joins the decode plane directly, skipping prefill. The
// caller is responsible for modeling the transfer delay (call at the
// transfer's completion instant) and for checking CanImportKV first; an
// import that does not fit is returned as an error, not queued. The
// request keeps its original arrival and first-token instants, so
// latency records span the whole disaggregated lifecycle. Checkpoint
// recovery reuses this entry point: a crash-lost request's periodic KV
// checkpoint replayed here resumes generation from the checkpointed
// token instead of re-prefilling.
func (e *Engine) SubmitDecoded(r workload.Request, h Handoff) (int, error) {
	if e.dead {
		return 0, fmt.Errorf("core: import on crashed engine")
	}
	if err := e.checkFits(r, h.KV.Tokens); err != nil {
		return 0, err
	}
	id := len(e.states)
	r.ID = id
	if _, err := e.kv.ImportKV(id, h.KV); err != nil {
		return 0, err
	}
	st := e.addState(r)
	st.firstTokenAt = h.FirstTokenAt
	// Shared chain blocks are accounted once globally, like a prefix
	// hit: this request references them but did not pay for them here.
	st.cached = h.KV.SharedBlocks * e.kv.BlockSize()
	st.ctx = h.KV.Tokens
	st.generated = h.Generated
	e.joinResident(id)
	if e.idle {
		e.decodePool = append(e.decodePool, id)
		e.idle = false
		e.startDecodePhase()
	} else {
		// A phase is running: stage the request for continuous
		// injection at the next decode step boundary (or the next
		// phase transition, whichever comes first).
		e.imported = append(e.imported, id)
	}
	return id, nil
}

// CanImportKV reports whether the exported sequence fits in this
// engine's KV pool right now (warm shared blocks count as reclaimable).
func (e *Engine) CanImportKV(ex kvcache.ExportedSeq) bool { return e.kv.CanImport(ex) }

// ResidentKVTokens returns how many tokens of the exported sequence's
// shared blocks are already resident here — KV a hand-off to this
// engine would not need to move, the decode-pool affinity signal.
func (e *Engine) ResidentKVTokens(ex kvcache.ExportedSeq) int {
	return e.kv.ResidentBlocks(ex) * e.kv.BlockSize()
}

// FreeKVTokens returns the KV headroom in tokens: free blocks plus
// warm shared blocks reclaimable under pressure.
//
//det:hotpath
func (e *Engine) FreeKVTokens() int { return e.kv.AvailableBlocks() * e.kv.BlockSize() }

// Run executes the full trace to completion in virtual time and returns
// the report. Requests with ArrivalTime > 0 are admitted only once the
// virtual clock reaches their arrival; a trace of all-zero arrivals
// reproduces the offline-batch behavior exactly. It may be called once
// per engine.
func (e *Engine) Run(reqs []workload.Request) (*Result, error) {
	if err := e.Start(reqs); err != nil {
		return nil, err
	}
	e.eng.Run()
	return e.Finalize()
}

// Start is StartOnline followed by one submission per request of a
// trace with dense IDs, without running the simulation. Requests due at
// the current virtual time join the start event's first batch; later
// ones are scheduled as arrival events. Drive the sim.Engine to
// completion, then call Finalize.
func (e *Engine) Start(reqs []workload.Request) error {
	if err := e.StartOnline(); err != nil {
		return err
	}
	e.states = make([]*reqState, 0, len(reqs))
	for i, r := range reqs {
		if r.ID != i {
			return fmt.Errorf("core: request IDs must be dense 0..n-1 (got %d at %d)", r.ID, i)
		}
		if err := e.addRequest(r); err != nil {
			return err
		}
	}
	return nil
}

// StartOnline prepares an empty engine to accept Submit calls on its
// (possibly shared) simulation and schedules its first phase decision,
// the start event, at the current instant. A fleet's control events at
// an instant run before its replicas' events there, so every
// submission at the start instant joins the first prefill batch.
func (e *Engine) StartOnline() error {
	if e.running {
		return fmt.Errorf("core: engine already used")
	}
	e.running = true
	e.warm = make(map[int]int)
	e.eng.AtFunc(e.eng.Now(), startEvent, e, e.epoch, 0)
	return nil
}

// startEvent is the engine's first phase decision (AtFunc: ctx is the
// engine, a the epoch that scheduled it; a crash before it voids it and
// leaves the engine idle): it launches the prefill phase when requests
// are queued and goes idle otherwise.
func startEvent(ctx any, ep, _ int) {
	e := ctx.(*Engine)
	if ep != e.epoch {
		return
	}
	e.warm = nil
	if e.waiting.Len() > 0 {
		e.startPrefillPhase()
	} else {
		e.idle = true
	}
}

// Submit hands the engine one request at the current virtual time,
// renumbering it to the engine's dense ID space, and returns that local
// ID. It is the online-router entry point: call between StartOnline and
// Finalize, from inside the shared simulation's event context. A future
// ArrivalTime is honored rather than admitted early. Requests that can
// never fit the KV pool are rejected with ErrRequestTooLarge; crashed
// engines accept nothing until Restore.
func (e *Engine) Submit(r workload.Request) (int, error) {
	if e.dead {
		return 0, fmt.Errorf("core: submit to crashed engine")
	}
	id := len(e.states)
	r.ID = id
	if err := e.addRequest(r); err != nil {
		return 0, err
	}
	return id, nil
}

// SubmitRecovered re-admits a request aborted by a crash elsewhere for
// recompute recovery: like the eviction path, the engine prefills
// input+generated tokens from scratch and generation resumes where it
// stopped, with the original first-token instant preserved so latency
// records span the whole lifecycle. generated must be the token count
// already delivered (0 for a request that never started decoding).
func (e *Engine) SubmitRecovered(r workload.Request, generated int, firstTokenAt sim.Time) (int, error) {
	if e.dead {
		return 0, fmt.Errorf("core: submit to crashed engine")
	}
	if generated < 0 || generated >= r.OutputLen {
		return 0, fmt.Errorf("core: recovered request %d with %d of %d tokens generated", r.ID, generated, r.OutputLen)
	}
	if err := e.checkFits(r, r.InputLen+generated); err != nil {
		return 0, err
	}
	id := len(e.states)
	r.ID = id
	st := e.addState(r)
	st.prefillLen = r.InputLen + generated
	st.firstTokenAt = firstTokenAt
	st.generated = generated
	e.admit(id)
	return id, nil
}

// checkFits rejects a request whose worst-case KV demand exceeds the
// whole pool: the largest single allocation it will request (ctxTokens,
// its prefill length or imported context) and the decode-plane peak it
// grows to — input + output - 2 tokens, since the last token needs no
// KV slot. Such a request used to OOM-evict everything else and then
// crash-loop the phase machine; now it is refused up front.
func (e *Engine) checkFits(r workload.Request, ctxTokens int) error {
	peak := r.InputLen
	if extra := r.OutputLen - 2; extra > 0 {
		peak += extra
	}
	if ctxTokens > peak {
		peak = ctxTokens
	}
	if need := e.kv.BlocksFor(peak); need > e.kv.CapacityBlocks() {
		return fmt.Errorf("core: request of %d input + %d output tokens needs %d KV blocks, capacity is %d: %w",
			r.InputLen, r.OutputLen, need, e.kv.CapacityBlocks(), ErrRequestTooLarge)
	}
	return nil
}

// Lost describes one request aborted by Crash: everything a router
// needs to re-dispatch it — the original request, how much generation
// work died with the replica, and the latest checkpoint if one exists.
type Lost struct {
	// Local is the request's id on the crashed engine.
	Local int
	// Req is the engine-local copy of the request (ID == Local).
	Req workload.Request
	// Generated is how many output tokens had been produced (work a
	// recompute resume must redo; a checkpoint resume redoes only the
	// post-checkpoint suffix).
	Generated int
	// FirstTokenAt is when the first token was produced (zero value if
	// the request never started decoding).
	FirstTokenAt sim.Time
	// Ckpt is the latest periodic KV checkpoint, nil if none was taken:
	// a hand-off whose At is the snapshot instant. Replaying it through
	// SubmitDecoded on a live engine resumes generation from the
	// checkpointed token instead of re-prefilling the whole context.
	Ckpt *Handoff
}

// Crash kills the engine at the current virtual time: every in-flight
// request is aborted and returned for the caller to re-dispatch, all KV
// is lost (the pool is rebuilt empty), and the cluster's GPUs are held
// unavailable until restartAt — the caller folds restart delay and
// weight-reload time into that instant. Work already submitted to the
// pipeline completes in virtual time but its results are discarded via
// the epoch guard. The engine accepts no submissions until Restore.
func (e *Engine) Crash(restartAt sim.Time) ([]Lost, error) {
	if !e.running {
		return nil, fmt.Errorf("core: crash of an engine that never started")
	}
	if e.dead {
		return nil, fmt.Errorf("core: crash of an already-crashed engine")
	}
	now := e.eng.Now()
	if restartAt < now {
		return nil, fmt.Errorf("core: restart at %v precedes crash at %v", restartAt, now)
	}
	e.dead = true
	e.epoch++
	e.crashes++
	e.restartAt = restartAt
	e.syncStates(-1)
	var lost []Lost
	for id, st := range e.states {
		if st == nil || st.aborted {
			continue
		}
		st.aborted, st.resident = true, false
		e.aborted++
		e.lostOutputTokens += st.generated
		lost = append(lost, Lost{
			Local:        id,
			Req:          st.req,
			Generated:    st.generated,
			FirstTokenAt: st.firstTokenAt,
			Ckpt:         st.ckpt,
		})
	}
	// Wipe the in-flight machinery. Completions already queued in the
	// simulation carry the old epoch and will be discarded; the decode
	// callbacks are truncated so the next decode phase rebinds them with
	// the new epoch.
	e.waiting.Reset()
	e.decodePool = e.decodePool[:0]
	e.imported = e.imported[:0]
	for s := range e.batches {
		e.batches[s] = e.batches[s][:0]
	}
	e.batches = e.batches[:0]
	e.stealer.DrainStash()
	e.decodeDone = e.decodeDone[:0]
	e.inflight = 0
	e.activeBatches = 0
	e.resident, e.residentTokens = 0, 0
	e.numSlots = 0
	e.switchToPrefil = false
	e.ckptScheduled = false
	// The process died: its KV pool dies with it.
	kv, err := kvcache.NewManager(e.kv.CapacityTokens(), e.kv.BlockSize())
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding KV pool after crash: %w", err)
	}
	e.kv = kv
	// Model the downtime: every GPU is unavailable until restartAt.
	e.cluster.Stall(now, float64(restartAt-now))
	// The replica worked up to this instant; without this a replica that
	// was never allowed to drain naturally reports Elapsed 0.
	e.finish(now)
	e.idle = true
	e.warm = nil
	return lost, nil
}

// Restore brings a crashed engine back to life at the current virtual
// time (call at the restart instant passed to Crash — earlier is a
// lifecycle bug, the process is still reloading weights, and is
// rejected so a mis-scheduled restore cannot resurrect a replica whose
// GPUs the cluster still holds stalled). The engine is idle and empty;
// submissions kick the phase machine as usual.
func (e *Engine) Restore() error {
	if !e.dead {
		return fmt.Errorf("core: restore of a live engine")
	}
	if now := e.eng.Now(); now < e.restartAt {
		return fmt.Errorf("core: restore at %v before the restart instant %v", now, e.restartAt)
	}
	e.dead = false
	return nil
}

// Alive reports whether the engine accepts work right now — started and
// not between Crash and Restore. Health-checked routers poll this.
func (e *Engine) Alive() bool { return e.running && !e.dead }

// Crashes returns how many times this engine has crashed.
func (e *Engine) Crashes() int { return e.crashes }

// fail parks the engine on an internal error instead of panicking
// inside the shared event loop (a fleet shares one simulation; one
// replica's bug must not take down the whole run's diagnostics).
// Finalize surfaces the first error.
func (e *Engine) fail(err error) {
	if e.fatalErr == nil {
		e.fatalErr = err
	}
}

// maybeScheduleCheckpoint arms the periodic checkpoint timer when the
// cadence is configured and no timer is pending. Called at phase starts
// so an idle engine never holds a live timer (the simulation must be
// able to drain to termination).
func (e *Engine) maybeScheduleCheckpoint() {
	if e.cfg.CheckpointInterval <= 0 || e.ckptScheduled || e.dead {
		return
	}
	e.ckptScheduled = true
	e.eng.AtFunc(e.eng.Now()+sim.Time(e.cfg.CheckpointInterval), checkpointEvent, e, e.epoch, 0)
}

// checkpointEvent fires one checkpoint round and re-arms, unless the
// engine went idle (the next phase start re-arms), died (recovery owns
// the requests now) or failed.
func checkpointEvent(ctx any, ep, _ int) {
	e := ctx.(*Engine)
	if ep != e.epoch {
		return
	}
	e.ckptScheduled = false
	if e.dead || e.fatalErr != nil || e.idle {
		return
	}
	e.doCheckpoint()
	e.ckptScheduled = true
	e.eng.AtFunc(e.eng.Now()+sim.Time(e.cfg.CheckpointInterval), checkpointEvent, e, e.epoch, 0)
}

// doCheckpoint snapshots the KV of every request in the decode plane
// and charges the serialization as a stall on every GPU, sized by the
// node's KV link. A request still waiting for or inside a prefill pass is
// not checkpointed: prefill-only context is cheaper to redo than to ship,
// and a recompute prefill in flight holds KV no pass has computed yet.
func (e *Engine) doCheckpoint() {
	now := e.eng.Now()
	blocks := 0
	e.forResident(func(id, ctx, generated int) {
		ex, err := e.kv.SnapshotKV(id, ctx)
		if err != nil {
			return
		}
		// A request is checkpointed again only while it is live, so
		// each round can overwrite its last checkpoint in place.
		st := e.states[id]
		if st.ckpt == nil {
			st.ckpt = new(Handoff)
		}
		*st.ckpt = Handoff{Local: id, Req: st.req, KV: ex, Generated: generated, FirstTokenAt: st.firstTokenAt, At: now}
		blocks += ex.Blocks()
	})
	if blocks == 0 {
		return
	}
	e.checkpoints++
	bytes := float64(blocks*e.kv.BlockSize()) * e.cfg.Spec.KVBytesPerToken()
	e.checkpointBytes += bytes
	e.cluster.Stall(now, costmodel.KVTransfer(e.cfg.Node)(bytes))
}

// addState registers r, whose ID the caller set to the next dense id,
// and returns its cold state.
func (e *Engine) addState(r workload.Request) *reqState {
	st := &reqState{
		req:        r,
		predicted:  e.cfg.Predictor.PredictLen(r),
		prefillLen: r.InputLen,
	}
	e.states = append(e.states, st)
	if e.live != nil {
		if len(e.live) == cap(e.live) {
			// Compact before growing, and grow only past half full, so
			// the list stays within twice the live count at amortized
			// O(1) per request.
			if e.compactLive(); 2*len(e.live) > cap(e.live) {
				e.live = append(make([]int, 0, 2*cap(e.live)+8), e.live...)
			}
		}
		e.live = append(e.live, len(e.states)-1)
	}
	return st
}

// startLive lists every request that is not finished or aborted, the
// first time FinishBound is asked.
func (e *Engine) startLive() {
	e.live = make([]int, 0, len(e.states)+8)
	for id, st := range e.states {
		if st != nil && !st.aborted {
			e.live = append(e.live, id)
		}
	}
}

// compactLive drops finished and aborted requests from the live list
// and returns the fewest output tokens any remaining one still needs
// (math.MaxInt when none remains).
//
//det:hotpath
func (e *Engine) compactLive() int {
	j, minRem := 0, math.MaxInt
	for _, id := range e.live {
		st := e.states[id]
		if st == nil || st.aborted {
			continue
		}
		e.live[j] = id
		j++
		minRem = min(minRem, st.req.OutputLen-st.generated)
	}
	e.live = e.live[:j]
	return minRem
}

// FinishBound returns a lower bound on the instant this engine next
// finishes a request (Infinity when it holds none). Every pass, prefill
// or decode, produces at most one token of a request, so a request
// with rem tokens to go needs rem more passes; none completes before
// the engine's next event, and a request's next pass starts no earlier
// than its last one ended, so its passes end at least the pass floor
// apart (costmodel.StageTable.PassFloor, scaled by a speed-up
// Slowdown). Hence no request finishes before next event + (fewest
// remaining tokens - 1) × floor. A fleet router that reads only its
// own load counters may leave the engine unadvanced until then.
//
//det:hotpath
func (e *Engine) FinishBound() sim.Time {
	if e.live == nil {
		e.startLive()
	}
	e.syncStates(-1)
	next := e.eng.NextEventTime()
	minRem := e.compactLive()
	if minRem == math.MaxInt || next == sim.Infinity {
		return sim.Infinity
	}
	return next + sim.Time(float64(max(minRem, 1)-1)*e.passFloor)
}

// arrivalEvent admits a request when its arrival instant is reached
// (scheduled allocation-free via AtFunc: ctx is the engine, a the id,
// b the epoch that scheduled it — a crash in between voids the event,
// the request was aborted and recovery owns it).
func arrivalEvent(ctx any, id, ep int) {
	e := ctx.(*Engine)
	if ep != e.epoch {
		return
	}
	e.admit(id)
}

// addRequest registers one request: due requests are admitted right
// away (a bare queue append before the start event), future ones become
// arrival events. Before the start event it also notes r's prefix
// warmth.
func (e *Engine) addRequest(r workload.Request) error {
	if err := e.checkFits(r, r.InputLen); err != nil {
		return err
	}
	if e.warm != nil && r.PrefixLen > 0 {
		e.warm[r.PrefixGroup] = max(e.warm[r.PrefixGroup], min(r.PrefixLen, r.InputLen))
	}
	id := len(e.states)
	e.addState(r)
	if at := sim.Time(r.ArrivalTime); at > e.eng.Now() {
		e.eng.AtFunc(at, arrivalEvent, e, id, e.epoch)
		return nil
	}
	e.admit(id)
	return nil
}

// admit moves an arrived request into the waiting queue and, if the
// engine drained to idle, restarts the phase machine.
func (e *Engine) admit(id int) {
	if e.fatalErr != nil {
		return
	}
	e.waiting.PushBack(id)
	if e.idle {
		e.idle = false
		e.startPrefillPhase()
	}
}

// sharePlan returns the shared-prefix coordinates of st's next
// allocation, or (0, 0) when no KV reuse applies — sharing disabled,
// unstructured request, or an empty effective prefix.
func (e *Engine) sharePlan(st *reqState) (group, prefix int) {
	if e.cfg.DisablePrefixCache || st.req.PrefixLen <= 0 {
		return 0, 0
	}
	p := st.req.PrefixLen
	if p > st.prefillLen {
		p = st.prefillLen
	}
	return st.req.PrefixGroup, p
}

// PrefixWarmTokens reports how many tokens of r's shared prefix are
// resident in this engine's KV pool right now — the cache-affinity
// signal fleet dispatch policies read. Before the start event nothing
// is resident yet, so it reports the warmth the requests submitted so
// far will bring: the overlap of r's prefix with the longest same-group
// one among them, prefix cache on or off.
//
//det:hotpath
func (e *Engine) PrefixWarmTokens(r workload.Request) int {
	if r.PrefixLen <= 0 {
		return 0
	}
	p := min(r.PrefixLen, r.InputLen)
	switch {
	case e.warm != nil:
		return min(p, e.warm[r.PrefixGroup])
	case e.cfg.DisablePrefixCache:
		return 0
	}
	return e.kv.MatchPrefix(r.PrefixGroup, p)
}

// Finalize checks completion and builds the result. Call after the
// simulation has run to completion.
func (e *Engine) Finalize() (*Result, error) {
	if e.fatalErr != nil {
		return nil, e.fatalErr
	}
	if e.finished+e.aborted != len(e.states) {
		return nil, fmt.Errorf("core: run stalled with %d/%d finished (%d aborted) at t=%v (waiting=%d, pool=%d, active=%d)",
			e.finished, len(e.states), e.aborted, e.eng.Now(), e.waiting.Len(), len(e.decodePool), e.activeBatches)
	}
	res, err := e.buildResult()
	if err != nil {
		e.fail(err)
		return nil, e.fatalErr
	}
	return res, nil
}

// --- phase control ----------------------------------------------------

func (e *Engine) setPhase(p metrics.Phase) {
	if e.everPhased && p != e.phase {
		e.switches++
	}
	e.phase = p
	e.everPhased = true
}

func (e *Engine) startPrefillPhase() {
	e.maybeScheduleCheckpoint()
	e.setPhase(metrics.PhasePrefill)
	e.rebuildUsage()
	if e.launchPrefills() == 0 && e.inflight == 0 {
		// Nothing could be admitted (memory still holds residents):
		// return to decoding the pool; a trace that fits no request at
		// all is rejected by KVCapacityTokens, so progress is certain.
		e.afterPrefillDrained()
	}
}

// getScratchIDs returns an empty id buffer, recycling the slice of a
// completed prefill batch when one is free.
func (e *Engine) getScratchIDs() []int {
	if n := len(e.idsFree); n > 0 {
		s := e.idsFree[n-1]
		e.idsFree[n-1] = nil
		e.idsFree = e.idsFree[:n-1]
		return s[:0]
	}
	return nil
}

// putScratchIDs recycles a consumed prefill id buffer.
func (e *Engine) putScratchIDs(s []int) {
	if cap(s) > 0 {
		e.idsFree = append(e.idsFree, s)
	}
}

// launchPrefills packs and submits prefill batches until Algorithm 1
// (or the ablation ratio, or memory itself) says stop. It returns the
// number of batches submitted.
func (e *Engine) launchPrefills() (launched int) {
	switchNow := false
	for e.waiting.Len() > 0 && !switchNow {
		ids := e.getScratchIDs()
		lens := e.lensBuf[:0]
		tokens := 0
		for e.waiting.Len() > 0 && tokens < e.cfg.MaxPrefillTokens {
			id := e.waiting.Front()
			st := e.states[id]
			group, prefix := e.sharePlan(st)
			if !e.kv.CanAllocate(st.prefillLen, group, prefix) {
				break
			}
			hit, err := e.kv.Allocate(id, st.prefillLen, group, prefix)
			if err != nil {
				break
			}
			st.cached = hit
			e.waiting.PopFront()
			st.ctx = st.prefillLen
			ids = append(ids, id)
			// Cached prefix tokens skip prefill compute; at least the
			// last prompt token is always recomputed to produce logits.
			n := st.prefillLen - st.cached
			if n < 1 {
				n = 1
			}
			e.prefixCached += st.prefillLen - n
			lens = append(lens, n)
			tokens += n
		}
		if len(ids) == 0 {
			e.putScratchIDs(ids)
			break // memory full: decode must free space first
		}
		batch := costmodel.NewPrefillBatch(lens)
		e.lensBuf = lens[:0]
		// Stamp the launch so a completion that raced an eviction and
		// re-launch can recognize it is stale.
		e.launchSeq++
		launchID := e.launchSeq
		for _, id := range ids {
			e.states[id].launch = launchID
		}
		e.inflight++
		launched++
		idsCopy, ep := ids, e.epoch
		e.cluster.SubmitPrefill(batch, e.eng.Now(), func(res runtime.PassResult) {
			e.onPrefillDone(idsCopy, launchID, ep, res)
		})
		// Algorithm 1: account the new requests and check the switch
		// condition after each launched prefill. Shared prefix blocks
		// are accounted once, by the request that allocated them; hits
		// contribute only their private suffix.
		for _, id := range ids {
			st := e.states[id]
			e.usage.UpdateUsage(st.prefillLen-st.cached, e.remainingPredicted(id, st.generated))
		}
		switch {
		case e.handoff != nil:
			// A dedicated prefill server has no decode phase to switch
			// to and its residents leave at prefill completion, so
			// Algorithm 1's projected-growth stop does not apply:
			// actual memory is the only admission limit.
		case e.cfg.FixedPrefillSwitchRatio > 0:
			switchNow = e.kv.UsageRatio() >= e.cfg.FixedPrefillSwitchRatio
		default:
			switchNow = e.usage.ShouldSwitch(e.capacityTokens)
		}
	}
	return launched
}

func (e *Engine) onPrefillDone(ids []int, launchID uint64, ep int, res runtime.PassResult) {
	if ep != e.epoch {
		// The issuing engine incarnation crashed while this pass was in
		// flight: its requests were aborted and re-dispatched elsewhere,
		// only the scratch buffer is worth salvaging.
		e.putScratchIDs(ids)
		return
	}
	e.cluster.Rec.Fold(float64(res.End))
	if e.fatalErr != nil {
		return
	}
	e.inflight--
	e.step++
	for _, id := range ids {
		st := e.states[id]
		if st.launch != launchID {
			// Evicted mid-flight (launch token zeroed), possibly
			// already re-launched in a newer batch whose completion
			// supersedes this one.
			continue
		}
		// The request survives as evicted until its recompute prefill
		// lands here: clearing the flag at launch would let a stale
		// decode batch entry resume generating while the prefill is
		// still in flight.
		st.evicted = false
		st.ctx = st.prefillLen
		if st.generated == 0 {
			st.firstTokenAt = res.End
		}
		st.generated++ // prefill emits the first output token
		switch {
		case st.generated >= st.req.OutputLen:
			e.finishReq(id, res.End)
		case e.handoff != nil:
			// Disaggregated prefill: export the KV, retire the request
			// locally, and hand it to the router. Free-after-export is
			// a no-op, so finishReq stays the single retirement path.
			ex, err := e.kv.ExportKV(id, st.ctx)
			if err != nil {
				panic(fmt.Sprintf("core: hand-off export of resident request %d: %v", id, err))
			}
			h := Handoff{
				Local:        id,
				Req:          st.req,
				KV:           ex,
				Generated:    st.generated,
				FirstTokenAt: st.firstTokenAt,
				At:           res.End,
			}
			e.finishReq(id, res.End)
			e.handoff(h)
		default:
			e.decodePool = append(e.decodePool, id)
			e.joinResident(id)
		}
	}
	e.putScratchIDs(ids)
	e.recordKV()
	// A prefill server launches continuously: every completed pass
	// exported its KV, so freed memory admits more waiting work right
	// away instead of after a full pipeline drain.
	if e.handoff != nil && e.waiting.Len() > 0 {
		e.launchPrefills()
	}
	if e.inflight == 0 {
		e.afterPrefillDrained()
	}
}

// afterPrefillDrained advances the phase machine once both planes are
// quiet: no prefill pass in flight and no decode batch active. (During
// an overlapped switch one plane drains while the other fills, so both
// completion paths funnel here.)
func (e *Engine) afterPrefillDrained() {
	if e.inflight > 0 || e.activeBatches > 0 || e.fatalErr != nil {
		return
	}
	// Imported requests staged during the drained phase join the pool
	// now, so a decode server never goes idle over work it holds.
	if len(e.imported) > 0 {
		e.decodePool = append(e.decodePool, e.imported...)
		e.imported = e.imported[:0]
	}
	switch {
	case len(e.decodePool) > 0:
		e.startDecodePhase()
	case e.waiting.Len() > 0:
		// Everything prefilled so far finished during prefill (or was
		// evicted); memory is free again, keep prefilling. Submit-time
		// size checks make this unreachable for admissible traces, but a
		// stall must park the engine with an error, not panic the shared
		// event loop (Finalize surfaces it).
		if e.launchPrefills() == 0 && e.inflight == 0 {
			e.fail(fmt.Errorf("core: stalled: %d waiting requests, empty pool, nothing admissible (free=%d tokens)",
				e.waiting.Len(), e.kv.FreeBlocks()*e.kv.BlockSize()))
		}
	default:
		// Drained. Note the completion time and go idle: a later
		// arrival (scheduled event or online Submit) restarts the
		// phase machine and extends doneAt.
		e.finish(e.eng.Now())
		e.idle = true
	}
}

// overlapPrefill starts the next prefill phase while decode batches are
// still draining their in-flight steps — the compact switch of Fig. 7:
// prefill passes queue on stage 0 right behind the final decode steps,
// leaving only the rate-mismatch bubble.
func (e *Engine) overlapPrefill() {
	e.setPhase(metrics.PhasePrefill)
	e.rebuildUsage()
	e.launchPrefills()
}

// rebuildUsage resets Algorithm 1's usage map to the requests still in
// the decode plane, so their predicted lifetimes constrain how much the
// next prefill phase admits.
func (e *Engine) rebuildUsage() {
	e.usage.Reset()
	e.forResident(func(id, ctx, generated int) {
		e.usage.UpdateUsage(ctx-e.states[id].cached, e.remainingPredicted(id, generated))
	})
}

// forResident calls fn with every live (neither done nor evicted)
// request in the decode plane and its live counts: every batch and the
// stealer's stash, whose entries hold them, then the decode pool and the
// staged imports, whose records do.
func (e *Engine) forResident(fn func(id, ctx, generated int)) {
	entries := func(ds []decodeSeq) {
		for i := range ds {
			if d := &ds[i]; !d.evicted {
				fn(d.id, d.ctx, d.generated)
			}
		}
	}
	ids := func(ids []int) {
		for _, id := range ids {
			if st := e.states[id]; st != nil && !st.evicted {
				fn(id, st.ctx, st.generated)
			}
		}
	}
	for _, b := range e.batches {
		entries(b)
	}
	entries(e.stealer.stash)
	ids(e.decodePool)
	ids(e.imported)
}

func (e *Engine) startDecodePhase() {
	e.maybeScheduleCheckpoint()
	e.setPhase(metrics.PhaseDecode)
	// Drop evicted ids; sort for determinism.
	pool := e.decodePool[:0]
	for _, id := range e.decodePool {
		if st := e.states[id]; st != nil && !st.evicted {
			pool = append(pool, id)
		}
	}
	sort.Ints(pool)
	e.decodePool = pool[:0]
	if len(pool) == 0 {
		e.afterPrefillDrained()
		return
	}
	e.numSlots = e.cfg.World
	if len(pool) < e.numSlots {
		e.numSlots = len(pool)
	}
	// Even split, as in §3.4: "divide the requests into batches equal
	// to the number of GPUs, each containing the same number".
	if cap(e.batches) >= e.numSlots {
		e.batches = e.batches[:e.numSlots]
		for s := range e.batches {
			e.batches[s] = e.batches[s][:0]
		}
	} else {
		e.batches = make([][]decodeSeq, e.numSlots)
	}
	e.batchTokens = append(e.batchTokens[:0], make([]int, e.numSlots)...)
	for i, id := range pool {
		slot := i % e.numSlots
		d := e.enterBatch(id)
		e.batches[slot] = append(e.batches[slot], d)
		e.batchTokens[slot] += d.ctx
	}
	sizes := e.sizesBuf[:0]
	for s := range e.batches {
		sizes = append(sizes, len(e.batches[s]))
	}
	e.sizesBuf = sizes
	// Completion callbacks are bound per slot once and reused by every
	// decode step submitted to that slot (Crash truncates the list so a
	// restarted engine rebinds them with its new epoch).
	for len(e.decodeDone) < e.numSlots {
		slot, ep := len(e.decodeDone), e.epoch
		e.decodeDone = append(e.decodeDone, func(res runtime.PassResult) {
			e.onDecodeDone(slot, ep, res)
			if stepCheck != nil {
				stepCheck(e)
			}
		})
	}
	e.stealer.Prime(sizes)
	e.decodeInitial = len(pool)
	e.decodeFinished = 0
	e.switchToPrefil = false
	e.activeBatches = e.numSlots
	for s := 0; s < e.numSlots; s++ {
		e.submitDecode(s, e.eng.Now())
	}
}

// submitDecode dispatches slot's current batch to the cluster with the
// callback bound once at engine construction.
//
//det:hotpath
func (e *Engine) submitDecode(slot int, readyAt sim.Time) {
	e.cluster.SubmitDecode(len(e.batches[slot]), e.batchTokens[slot], readyAt, e.decodeDone[slot])
}

// onDecodeDone is the steady-state decode step: retire finished
// requests, grow each survivor's KV by one token, fold in staged
// imports, and resubmit — the tightest loop in the engine. It streams
// the slot's batch entries in place and calls the KV pool only for a
// token that opens a new block.
//
//det:hotpath
func (e *Engine) onDecodeDone(slot, ep int, res runtime.PassResult) {
	if ep != e.epoch || e.fatalErr != nil {
		return
	}
	e.cluster.Rec.Fold(float64(res.End))
	e.step++
	b := e.batches[slot]
	n, tokens := 0, 0
	for i := range b {
		if b[i].evicted {
			continue
		}
		// Move the entry to its survivor position before updating it:
		// updating in place and copying after would read the entry back
		// right over the narrow stores that changed it.
		if n != i {
			b[n] = b[i]
		}
		d := &b[n]
		d.generated++
		d.ctx++
		e.residentTokens++
		if d.generated >= d.outputLen {
			// The final token needs no KV slot; the request is done.
			e.store(d)
			e.finishReq(d.id, res.End)
			e.decodeFinished++
			continue
		}
		if d.room > 0 {
			d.room--
		} else if !e.growBlock(d, slot) {
			continue
		}
		tokens += d.ctx
		n++
	}
	e.batches[slot] = b[:n]
	e.batchTokens[slot] = tokens
	e.recordKV()

	// Approach 2: rebalance through the sliding-window stealer.
	e.rebalance(slot)

	// Continuous batching for disaggregated decode: requests imported
	// mid-phase join this slot's batch at the step boundary instead of
	// waiting out the phase. (Colocated engines never stage imports.)
	if len(e.imported) > 0 && !e.switchToPrefil {
		for _, id := range e.imported {
			if st := e.states[id]; st == nil || st.evicted {
				continue
			}
			d := e.enterBatch(id)
			e.batches[slot] = append(e.batches[slot], d) //det:ignore hotalloc amortized batch growth when staged imports join at a step boundary
			e.batchTokens[slot] += d.ctx
			e.decodeInitial++
		}
		e.imported = e.imported[:0]
	}

	// Approach 3 (or the Fig.-16 ablation): decide whether to switch
	// back to prefill. On a switch, prefill launches immediately and
	// overlaps the remaining decode drain.
	if !e.switchToPrefil && e.waiting.Len() > 0 && e.shouldSwitchToPrefill(slot) {
		e.switchToPrefil = true
		e.overlapPrefill()
	}

	if e.switchToPrefil || len(e.batches[slot]) == 0 {
		e.leaveBatch(e.batches[slot])
		e.batches[slot] = e.batches[slot][:0]
		e.batchTokens[slot] = 0
		e.activeBatches--
		if e.activeBatches == 0 {
			e.leaveBatch(e.stealer.DrainStash())
			e.afterPrefillDrained()
		}
		return
	}
	e.submitDecode(slot, res.End)
}

// rebalance runs the stealer over slot's batch and moves the withheld
// or supplemented requests' tokens in or out of the slot's sum.
//
//det:hotpath
func (e *Engine) rebalance(slot int) {
	before := e.batches[slot]
	after := e.stealer.Rebalance(slot, before)
	for i := len(after); i < len(before); i++ {
		e.batchTokens[slot] -= before[i].ctx
	}
	for i := len(before); i < len(after); i++ {
		e.batchTokens[slot] += after[i].ctx
	}
	e.batches[slot] = after
}

// leaveBatch returns requests leaving the decode phase to the decode
// pool, writing their live counts back to their records.
func (e *Engine) leaveBatch(ds []decodeSeq) {
	for i := range ds {
		e.store(&ds[i])
		e.decodePool = append(e.decodePool, ds[i].id)
	}
}

// growBlock takes the KV block d's newest token opens, evicting recently
// admitted requests if the pool is full. It reports false when d itself
// lost its KV instead.
func (e *Engine) growBlock(d *decodeSeq, slot int) bool {
	if err := e.kv.Grow(d.id, d.ctx); err != nil {
		e.handleOOM(d, slot)
		if d.evicted {
			return false
		}
	}
	d.room = e.kv.BlockSize() - 1
	return true
}

// shouldSwitchToPrefill evaluates the decode->prefill switch rule.
//
//det:hotpath
func (e *Engine) shouldSwitchToPrefill(slot int) bool {
	if e.cfg.FixedDecodeSwitchRatio > 0 {
		if float64(e.decodeFinished) < e.cfg.FixedDecodeSwitchRatio*float64(e.decodeInitial) {
			return false
		}
		// Only worth switching if the head of the queue fits.
		return e.kv.CanAllocate(e.states[e.waiting.Front()].prefillLen, 0, 0)
	}
	resident, kvTokens := e.resident, e.residentTokens
	if resident == 0 {
		return true
	}
	avgBatch := (resident + e.numSlots - 1) / e.numSlots
	avgCtx := kvTokens / resident
	feasiblePeak := e.capacityTokens / (e.numSlots * avgCtx)
	decodeStep := e.cluster.Cost.DecodeBottleneck(avgBatch, avgBatch*avgCtx)
	si := e.inten.Spatial(avgBatch, avgCtx, feasiblePeak, decodeStep)
	ti, _ := e.pendingTemporal(e.kv.FreeBlocks()*e.kv.BlockSize(), decodeStep)
	return e.inten.ShouldSwitch(si, ti)
}

// joinResident counts request id, entering the decode plane, into the
// resident counters.
//
//det:hotpath
func (e *Engine) joinResident(id int) {
	st := e.states[id]
	st.resident = true
	e.resident++
	e.residentTokens += st.ctx
}

// leaveResident takes request id out of the resident counters, if it
// was counted, as it finishes or loses its KV.
//
//det:hotpath
func (e *Engine) leaveResident(id int) {
	st := e.states[id]
	if !st.resident {
		return
	}
	st.resident = false
	e.resident--
	e.residentTokens -= st.ctx
}

// handleOOM evicts recently admitted requests to make room for the
// block d's newest token needs — the recompute strategy of §4.1. It
// spares d and every other resident request of d's slot, whose pass is
// being applied. Victims requeue at the front of the waiting queue; the
// ring-buffer queue makes that front-insertion O(1) instead of
// reslicing the whole queue.
func (e *Engine) handleOOM(d *decodeSeq, slot int) {
	// Of the slot's entries, only d's request can lose its KV here.
	e.syncStates(slot)
	e.store(d)
	// The slot's live entries name every member: applied ones at or
	// before d, the rest after it.
	spare := e.spareBuf[:0]
	for i := range e.batches[slot] {
		if b := &e.batches[slot][i]; !b.evicted {
			spare = append(spare, b.id)
		}
	}
	e.spareBuf = spare
	for _, id := range e.kv.EvictMostRecent(1, spare) {
		e.requeue(id, true)
	}
	if err := e.kv.Grow(d.id, d.ctx); err != nil {
		// Even eviction could not free a block: the current batch
		// fills the machine. Evict this request itself.
		e.requeue(d.id, true)
	}
	e.markEvicted()
}

// requeue turns request id into a recompute and queues it for prefill at
// the front of the waiting queue or its back: its KV is freed, it leaves
// the decode plane (stash and staged imports included; a batch entry is
// flagged by the caller's markEvicted), it keeps its generated tokens,
// and its next prefill covers input plus generated tokens.
func (e *Engine) requeue(id int, front bool) {
	e.leaveResident(id)
	e.kv.Free(id)
	st := e.states[id]
	st.evicted = true
	st.launch = 0 // void any in-flight prefill for this request
	e.recomputes++
	st.prefillLen = st.req.InputLen + st.generated
	st.ctx = 0
	st.cached = 0
	e.stealer.Remove(id)
	// A staged import leaves the list, or a later injection could enter
	// it into a decode batch twice once its recompute lands.
	for i, v := range e.imported {
		if v == id {
			e.imported = append(e.imported[:i], e.imported[i+1:]...)
			break
		}
	}
	if front {
		e.waiting.PushFront(id)
	} else {
		e.waiting.PushBack(id)
	}
}

// finishReq retires request id at t: it leaves the decode plane, its
// KV is freed, its record and token counts move to the record table and
// the running sums, its state is dropped and the finish hook fires.
//
//det:hotpath
func (e *Engine) finishReq(id int, t sim.Time) {
	e.leaveResident(id)
	st := e.states[id]
	e.kv.Free(id)
	if id >= len(e.records) {
		e.growRecords()
	}
	e.records[id] = metrics.RequestRecord{
		ID:           id,
		Arrival:      st.req.ArrivalTime,
		FirstToken:   float64(st.firstTokenAt),
		Finish:       float64(t),
		OutputTokens: st.generated,
	}
	e.inputTokens += st.req.InputLen
	e.outputTokens += st.generated
	e.states[id] = nil
	e.finished++
	if e.onFinish != nil {
		e.onFinish(id)
	}
}

// growRecords extends the record table to every id added so far. It
// runs at a finish past the table's end and at Finalize, never while
// every state is live, and leaves the table non-nil: a run without
// requests reports an empty one.
//
//det:hotpath
func (e *Engine) growRecords() {
	if e.records == nil {
		e.records = make([]metrics.RequestRecord, 0, len(e.states)) //det:ignore hotalloc the table's first allocation, at the first finish or at Finalize
	}
	e.records = append(e.records, make([]metrics.RequestRecord, len(e.states)-len(e.records))...) //det:ignore hotalloc amortized record-table growth, to every id added so far
}

// finish extends doneAt to t and folds the busy time up to it: an
// engine finishes only at the current instant, and doneAt never falls.
func (e *Engine) finish(t sim.Time) {
	if t > e.doneAt {
		e.doneAt = t
	}
	e.cluster.Rec.Fold(float64(e.doneAt))
}

func (e *Engine) recordKV() {
	if e.cfg.RecordKV {
		e.kvTimeline.Add(e.step, float64(e.eng.Now()), e.kv.UsageRatio(), e.phase)
	}
}

func (e *Engine) buildResult() (*Result, error) {
	rep := metrics.Report{
		Scheduler: "TD-Pipe",
		Node:      e.cfg.Node.Name,
		Model:     e.cfg.Spec.Name,
		GPUs:      e.cfg.World,
		Requests:  e.finished,
		Elapsed:   float64(e.doneAt),
		// The sums cover every finished request.
		InputTokens:  e.inputTokens,
		OutputTokens: e.outputTokens,
	}
	e.growRecords()
	records := e.records
	for i, st := range e.states {
		// Finalize's balance leaves only crash-lost copies unretired:
		// their records stay unfinished (zero Finish, zero tokens —
		// Faults.LostOutputTokens accounts the work) and the
		// re-dispatched copy reports elsewhere.
		if st != nil {
			records[i] = metrics.RequestRecord{ID: i, Arrival: st.req.ArrivalTime}
		}
	}
	rep.PhaseSwitches = e.switches
	rep.Recomputes = e.recomputes
	rep.PrefixCachedTokens = e.prefixCached
	util, err := e.cluster.Rec.Utilization(float64(e.doneAt))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rep.MeanUtilization = util
	rep.BubbleRatio = 1 - rep.MeanUtilization
	rep.KVPeakUsage = e.kvTimeline.Peak()
	if !e.cfg.RecordKV {
		rep.KVPeakUsage = float64(e.kv.PeakBlocks()) / float64(e.kv.CapacityBlocks())
	}
	rep.Latency = metrics.Digest(records, e.cfg.SLO)
	rep.Faults = metrics.FaultStats{
		Crashes:          e.crashes,
		AbortedRequests:  e.aborted,
		Checkpoints:      e.checkpoints,
		CheckpointBytes:  e.checkpointBytes,
		LostOutputTokens: e.lostOutputTokens,
	}
	var kvt *metrics.KVTimeline
	if e.cfg.RecordKV {
		kvt = e.kvTimeline
	}
	var rec *metrics.Recorder
	if e.cfg.RecordBusy {
		rec = &e.cluster.Rec
	}
	return &Result{Report: rep, Rec: rec, KV: kvt, Records: records, Steps: e.eng.Steps()}, nil
}

// Run is the package-level convenience: build an engine on a fresh
// simulation and run the trace.
func Run(cfg Config, reqs []workload.Request) (*Result, error) {
	eng := sim.NewEngine()
	e, err := NewEngine(eng, cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(reqs)
}
