package core

import (
	"errors"
	"fmt"
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

// scratchReuse gates the recycling of per-iteration scratch buffers
// (prefill id/len slices, decode batch slices, the decode pool). It is
// always on in production; the determinism regression suite turns it
// off to prove buffer reuse does not change results.
var scratchReuse = true

// reqState tracks one request through the engine.
type reqState struct {
	req       workload.Request
	predicted int
	// ctx is the number of tokens currently cached.
	ctx int
	// generated is the number of output tokens produced so far.
	generated int
	// prefillLen is how many tokens the next prefill must process
	// (input plus any tokens generated before an eviction).
	prefillLen int
	// cached is how many leading tokens of the last allocation were
	// served from shared prefix blocks — prefill work skipped, and KV
	// this request references but did not pay for.
	cached     int
	done       bool
	evicted    bool
	recomputes int
	// launch identifies the prefill batch that most recently packed
	// this request. A request evicted while its prefill pass is still
	// in flight can be re-launched in a second pass before the first
	// completes; the stale completion sees a newer launch id and is
	// ignored, so the request is never processed twice.
	launch uint64
	// arrival is when the request entered the system; the engine never
	// schedules it before this instant.
	arrival sim.Time
	// firstTokenAt is when the first output token was produced
	// (recompute evictions keep the original first-token time).
	firstTokenAt sim.Time
	finishedAt   sim.Time
	// aborted marks a request lost to a crash: it stays in states for
	// record-keeping (its record is unfinished) but no longer counts
	// toward completion. Routers re-dispatch it elsewhere.
	aborted bool
	// ckpt is the latest periodic KV checkpoint of this request (nil
	// until the first checkpoint round catches it resident).
	ckpt *Checkpoint
}

func (s *reqState) remainingPredicted() int {
	rem := s.predicted - s.generated
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Result is the outcome of a TD-Pipe run.
type Result struct {
	Report metrics.Report
	// Rec holds per-GPU busy intervals for utilization analysis.
	Rec *metrics.Recorder
	// KV is the Fig.-12 usage timeline (nil unless Config.RecordKV).
	KV *metrics.KVTimeline
	// Finished lists per-request completion times by request ID.
	Finished []sim.Time
	// Records holds per-request lifecycle timestamps (arrival, first
	// token, finish) by request ID; Report.Latency digests them.
	Records []metrics.RequestRecord
	// Steps is the number of simulation events processed by the run's
	// engine (the shared engine's total for co-simulated fleets);
	// divided by wall-clock time it gives the kernel's steps/sec.
	Steps uint64
}

// Engine is the TD-Pipe centralized engine bound to one simulation.
type Engine struct {
	cfg     Config
	eng     *sim.Engine
	cluster *runtime.Cluster
	kv      *kvcache.Manager
	usage   *usageSim
	inten   *Intensity
	stealer *Stealer

	capacityTokens int

	states  []*reqState
	waiting waitQueue

	phase      metrics.Phase
	everPhased bool

	// Prefill-phase state.
	inflight int
	// launchSeq numbers prefill batches; see reqState.launch.
	launchSeq uint64
	// decodePool holds ids that are resident and waiting for the next
	// decode phase.
	decodePool []int

	// Decode-phase state.
	batches        [][]int
	activeBatches  int
	numSlots       int
	switchToPrefil bool
	decodeInitial  int
	decodeFinished int
	// imported stages SubmitDecoded admissions that arrived while a
	// phase was active: a dedicated decode server cannot wait for the
	// whole phase to drain, so staged requests are injected into a
	// running decode batch at the next step boundary (continuous
	// batching). Always empty in colocated deployments.
	imported []int

	step       int
	kvTimeline *metrics.KVTimeline
	// prefixCached sums prompt tokens whose prefill was skipped via
	// shared-prefix KV hits.
	prefixCached int
	recomputes   int
	switches     int
	finished     int
	doneAt       sim.Time
	running      bool

	// pendingArrivals counts requests whose arrival event has not fired
	// yet; while it is positive the engine may legitimately go idle.
	pendingArrivals int
	// idle is true when both planes are drained and the engine is
	// waiting for the next arrival; the arrival kicks a prefill phase.
	idle bool
	// shutdown guards cluster release across Run, Finalize and error
	// paths.
	shutdown bool

	// Fault-injection lifecycle state. epoch counts crash/restore
	// cycles; every scheduled event and pass completion carries the
	// epoch that issued it and is discarded when stale, so work in
	// flight at a crash cannot touch the restarted engine. dead is true
	// between Crash and Restore (no work is accepted); aborted counts
	// requests lost to crashes (Finalize's balance becomes finished +
	// aborted == submitted). fatalErr parks the engine on an internal
	// error instead of panicking inside the shared event loop; Finalize
	// surfaces it.
	epoch    int
	dead     bool
	aborted  int
	fatalErr error
	crashes  int
	// restartAt is the instant the last crash's downtime ends; Restore
	// before it is a lifecycle bug (the GPUs are still stalled
	// reloading weights) and is rejected.
	restartAt sim.Time

	// Checkpoint cadence state (Config.CheckpointInterval).
	ckptScheduled    bool
	checkpoints      int
	checkpointBytes  float64
	lostOutputTokens int

	// onFinish, when set, is invoked synchronously as each request
	// completes — the O(1) load-tracking hook online routers use
	// instead of rescanning outstanding requests.
	onFinish func(id int)

	// handoff, when set, turns the engine into the prefill half of a
	// disaggregated deployment: each request that completes prefill
	// with output still to generate has its KV exported and is handed
	// to this hook instead of entering the local decode pool. Requests
	// that finish at prefill (single-token outputs) complete locally.
	handoff func(Handoff)

	// Scratch buffers recycled across scheduler iterations when
	// scratchReuse is on: idsFree recycles prefill batch id slices
	// (returned by onPrefillDone), lensBuf the per-batch length
	// staging, sizesBuf the decode split sizes, and decodeDone the
	// per-slot completion callbacks (bound once, not per step).
	idsFree    [][]int
	lensBuf    []int
	sizesBuf   []int
	decodeDone []func(runtime.PassResult)
}

// NewEngine validates the configuration, sizes the KV pool and builds
// the worker cluster.
func NewEngine(eng *sim.Engine, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	capTokens, err := KVCapacityTokens(cfg)
	if err != nil {
		return nil, err
	}
	cluster, err := runtime.NewClusterTransport(eng, cfg.Node, cfg.Spec, cfg.World, cfg.Transport)
	if err != nil {
		return nil, err
	}
	// The byte-derived capacity is floor-aligned so the pool keeps the
	// exact block count it always had (NewManager now rounds up).
	kv, err := kvcache.NewManager(kvcache.AlignTokens(capTokens, cfg.BlockSize), cfg.BlockSize)
	if err != nil {
		cluster.Shutdown()
		return nil, err
	}
	if cfg.Slowdown > 0 {
		cluster.SetSlowdown(cfg.Slowdown)
	}
	e := &Engine{
		cfg:            cfg,
		eng:            eng,
		cluster:        cluster,
		kv:             kv,
		usage:          newUsageSim(cfg.FuturePointStride, cfg.FuturePointMax),
		inten:          NewIntensity(cluster.Cost, cluster.Plan, cfg.PeakProfileBatch),
		capacityTokens: capTokens,
		kvTimeline:     &metrics.KVTimeline{},
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

// Handoff describes a request leaving a prefill-only engine: its
// original request, the exported KV block window, and the generation
// state a decode engine needs to resume it via SubmitDecoded.
type Handoff struct {
	// Local is the request's id on the prefill engine.
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
	// transfer can start.
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
	st := e.newState(r)
	st.ctx = h.KV.Tokens
	st.generated = h.Generated
	st.firstTokenAt = h.FirstTokenAt
	// Shared chain blocks are accounted once globally, like a prefix
	// hit: this request references them but did not pay for them here.
	st.cached = len(h.KV.Keys) * e.kv.BlockSize()
	e.states = append(e.states, st)
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
		e.Shutdown()
		return nil, err
	}
	e.eng.Run()
	return e.Finalize()
}

// Start seeds the trace and schedules its arrivals without running the
// simulation — the entry point for co-simulated deployments (e.g. a
// fleet sharing one virtual clock). Requests already due at the current
// virtual time are admitted immediately; later ones are scheduled as
// arrival events. Drive the shared sim.Engine to completion, then call
// Finalize.
func (e *Engine) Start(reqs []workload.Request) error {
	if e.running {
		return fmt.Errorf("core: engine already used")
	}
	e.running = true

	e.states = make([]*reqState, 0, len(reqs))
	e.waiting.Reset()
	for i, r := range reqs {
		if r.ID != i {
			return fmt.Errorf("core: request IDs must be dense 0..n-1 (got %d at %d)", r.ID, i)
		}
		if err := e.addRequest(r); err != nil {
			return err
		}
	}
	if e.waiting.Len() > 0 {
		e.startPrefillPhase()
	} else {
		e.idle = true
	}
	return nil
}

// StartOnline prepares an empty engine to accept Submit calls on its
// (possibly shared) simulation. The engine sits idle until the first
// submission.
func (e *Engine) StartOnline() error {
	if e.running {
		return fmt.Errorf("core: engine already used")
	}
	e.running = true
	e.idle = true
	return nil
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
	st := e.newState(r)
	st.generated = generated
	st.prefillLen = r.InputLen + generated
	st.firstTokenAt = firstTokenAt
	e.states = append(e.states, st)
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

// Checkpoint is a periodic KV snapshot of one in-flight request, taken
// by the engine's checkpoint cadence (Config.CheckpointInterval). A
// crash hands it to the router inside Lost; replaying it through
// SubmitDecoded on a live engine resumes generation from the
// checkpointed token instead of re-prefilling the whole context.
type Checkpoint struct {
	// KV is the snapshotted block window (valid for ImportKV).
	KV kvcache.ExportedSeq
	// Generated is how many output tokens existed at the snapshot.
	Generated int
	// FirstTokenAt is the request's original first-token instant.
	FirstTokenAt sim.Time
	// At is when the snapshot was taken.
	At sim.Time
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
	// Ckpt is the latest periodic KV checkpoint, nil if none was taken.
	Ckpt *Checkpoint
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
	var lost []Lost
	for id, st := range e.states {
		if st.done || st.aborted {
			continue
		}
		st.aborted = true
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
	e.decodeDone = e.decodeDone[:0]
	e.inflight = 0
	e.activeBatches = 0
	e.numSlots = 0
	e.switchToPrefil = false
	e.pendingArrivals = 0
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

// doCheckpoint snapshots the KV of every resident in-flight request
// that has produced output (prefill-only context is cheaper to redo
// than to ship, so it is not checkpointed) and charges the serialization
// as a stall on every GPU, sized by the node's KV link.
func (e *Engine) doCheckpoint() {
	now := e.eng.Now()
	blocks := 0
	for id, st := range e.states {
		if st.done || st.aborted || st.evicted || st.generated == 0 || !e.kv.Has(id) {
			continue
		}
		ex, err := e.kv.SnapshotKV(id)
		if err != nil {
			continue
		}
		st.ckpt = &Checkpoint{KV: ex, Generated: st.generated, FirstTokenAt: st.firstTokenAt, At: now}
		blocks += ex.Blocks()
	}
	if blocks == 0 {
		return
	}
	e.checkpoints++
	bytes := float64(blocks*e.kv.BlockSize()) * e.cfg.Spec.KVBytesPerToken()
	e.checkpointBytes += bytes
	e.cluster.Stall(now, costmodel.KVTransfer(e.cfg.Node)(bytes))
}

func (e *Engine) newState(r workload.Request) *reqState {
	return &reqState{
		req:        r,
		predicted:  e.cfg.Predictor.PredictLen(r),
		prefillLen: r.InputLen,
		arrival:    sim.Time(r.ArrivalTime),
	}
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
	e.pendingArrivals--
	e.admit(id)
}

// addRequest registers one request: due requests are admitted right
// away (a bare queue append while Start seeds with idle unset), future
// ones become arrival events.
func (e *Engine) addRequest(r workload.Request) error {
	if err := e.checkFits(r, r.InputLen); err != nil {
		return err
	}
	id := len(e.states)
	e.states = append(e.states, e.newState(r))
	if at := sim.Time(r.ArrivalTime); at > e.eng.Now() {
		e.pendingArrivals++
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
// signal fleet dispatch policies read.
//
//det:hotpath
func (e *Engine) PrefixWarmTokens(r workload.Request) int {
	if e.cfg.DisablePrefixCache || r.PrefixLen <= 0 {
		return 0
	}
	p := r.PrefixLen
	if p > r.InputLen {
		p = r.InputLen
	}
	return e.kv.MatchPrefix(r.PrefixGroup, p)
}

// NumFinished returns the number of completed requests so far.
func (e *Engine) NumFinished() int { return e.finished }

// Shutdown releases the worker cluster. Finalize calls it; use directly
// only on error paths that abandon the engine.
func (e *Engine) Shutdown() {
	if !e.shutdown {
		e.shutdown = true
		e.cluster.Shutdown()
	}
}

// Finalize checks completion, releases the cluster and builds the
// result. Call after the simulation has run to completion.
func (e *Engine) Finalize() (*Result, error) {
	e.Shutdown()
	if e.fatalErr != nil {
		return nil, e.fatalErr
	}
	if e.finished+e.aborted != len(e.states) {
		return nil, fmt.Errorf("core: run stalled with %d/%d finished (%d aborted) at t=%v (waiting=%d, pool=%d, active=%d)",
			e.finished, len(e.states), e.aborted, e.eng.Now(), e.waiting.Len(), len(e.decodePool), e.activeBatches)
	}
	return e.buildResult(), nil
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
	// Rebuild Algorithm 1's usage map from still-resident requests so
	// their predicted lifetimes constrain how much we admit.
	e.usage.Reset()
	for _, id := range e.decodePool {
		st := e.states[id]
		e.usage.UpdateUsage(st.ctx-st.cached, st.remainingPredicted())
	}
	if e.launchPrefills() == 0 && e.inflight == 0 {
		// Nothing could be admitted (memory still holds residents):
		// return to decoding the pool; a trace that fits no request at
		// all is rejected by KVCapacityTokens, so progress is certain.
		e.afterPrefillDrained()
	}
}

// getScratchIDs returns an empty id buffer, recycling the slice of a
// completed prefill batch when scratch reuse is on.
func (e *Engine) getScratchIDs() []int {
	if scratchReuse {
		if n := len(e.idsFree); n > 0 {
			s := e.idsFree[n-1]
			e.idsFree[n-1] = nil
			e.idsFree = e.idsFree[:n-1]
			return s[:0]
		}
	}
	return nil
}

// putScratchIDs recycles a consumed prefill id buffer.
func (e *Engine) putScratchIDs(s []int) {
	if scratchReuse && cap(s) > 0 {
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
		var lens []int
		if scratchReuse {
			lens = e.lensBuf[:0]
		}
		tokens := 0
		for e.waiting.Len() > 0 && tokens < e.cfg.MaxPrefillTokens {
			id := e.waiting.Front()
			st := e.states[id]
			if group, prefix := e.sharePlan(st); prefix > 0 {
				if !e.kv.CanAllocateShared(st.prefillLen, group, prefix) {
					break
				}
				hit, err := e.kv.AllocateShared(id, st.prefillLen, group, prefix)
				if err != nil {
					break
				}
				st.cached = hit
			} else {
				if !e.kv.CanAllocate(st.prefillLen) {
					break
				}
				if err := e.kv.Allocate(id, st.prefillLen); err != nil {
					break
				}
				st.cached = 0
			}
			e.waiting.PopFront()
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
		if scratchReuse {
			e.lensBuf = lens[:0]
		}
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
		e.cluster.SubmitPass(runtime.PrefillTask(batch), e.eng.Now(), func(res runtime.PassResult) {
			e.onPrefillDone(idsCopy, launchID, ep, res)
		})
		// Algorithm 1: account the new requests and check the switch
		// condition after each launched prefill. Shared prefix blocks
		// are accounted once, by the request that allocated them; hits
		// contribute only their private suffix.
		for _, id := range ids {
			st := e.states[id]
			e.usage.UpdateUsage(st.prefillLen-st.cached, st.remainingPredicted())
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
			ex, err := e.kv.ExportKV(id)
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
	e.usage.Reset()
	account := func(ids []int) {
		for _, id := range ids {
			st := e.states[id]
			if st.done || st.evicted {
				continue
			}
			e.usage.UpdateUsage(st.ctx-st.cached, st.remainingPredicted())
		}
	}
	for _, b := range e.batches {
		account(b)
	}
	account(e.stealer.stash)
	account(e.decodePool)
	account(e.imported)
	e.launchPrefills()
}

func (e *Engine) startDecodePhase() {
	e.maybeScheduleCheckpoint()
	e.setPhase(metrics.PhaseDecode)
	// Drop evicted ids; sort for determinism.
	pool := e.decodePool[:0]
	for _, id := range e.decodePool {
		if !e.states[id].evicted && !e.states[id].done {
			pool = append(pool, id)
		}
	}
	sort.Ints(pool)
	if scratchReuse {
		e.decodePool = pool[:0]
	} else {
		e.decodePool = nil
	}
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
	if scratchReuse && cap(e.batches) >= e.numSlots {
		e.batches = e.batches[:e.numSlots]
		for s := range e.batches {
			e.batches[s] = e.batches[s][:0]
		}
	} else {
		e.batches = make([][]int, e.numSlots)
	}
	for i, id := range pool {
		slot := i % e.numSlots
		e.batches[slot] = append(e.batches[slot], id)
	}
	var sizes []int
	if scratchReuse {
		sizes = e.sizesBuf[:0]
	}
	for s := range e.batches {
		sizes = append(sizes, len(e.batches[s]))
	}
	if scratchReuse {
		e.sizesBuf = sizes
	}
	// Completion callbacks are bound per slot once and reused by every
	// decode step submitted to that slot (Crash truncates the list so a
	// restarted engine rebinds them with its new epoch).
	for len(e.decodeDone) < e.numSlots {
		slot, ep := len(e.decodeDone), e.epoch
		e.decodeDone = append(e.decodeDone, func(res runtime.PassResult) { e.onDecodeDone(slot, ep, res) })
	}
	e.stealer = NewStealer(e.numSlots, !e.cfg.DisableWorkStealing)
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
	ids := e.batches[slot]
	kvTokens := 0
	for _, id := range ids {
		kvTokens += e.states[id].ctx
	}
	e.cluster.SubmitDecode(len(ids), kvTokens, readyAt, e.decodeDone[slot])
}

// onDecodeDone is the steady-state decode step: retire finished
// requests, grow each survivor's KV by one token, fold in staged
// imports, and resubmit — the tightest loop in the engine.
//
//det:hotpath
func (e *Engine) onDecodeDone(slot, ep int, res runtime.PassResult) {
	if ep != e.epoch || e.fatalErr != nil {
		return
	}
	e.step++
	survivors := e.batches[slot][:0]
	for _, id := range e.batches[slot] {
		st := e.states[id]
		if st.evicted || st.done {
			continue
		}
		st.generated++
		st.ctx++
		if st.generated >= st.req.OutputLen {
			// The final token needs no KV slot; the request is done.
			e.finishReq(id, res.End)
			e.decodeFinished++
			continue
		}
		if err := e.kv.Append(id, 1); err != nil {
			e.handleOOM(id, slot)
			if st.evicted {
				continue
			}
		}
		survivors = append(survivors, id) //det:ignore hotalloc survivors reslices this batch's own backing array; no growth past the submitted batch
	}
	e.batches[slot] = survivors
	e.recordKV()

	// Approach 2: rebalance through the sliding-window stealer.
	e.batches[slot] = e.stealer.Rebalance(slot, e.batches[slot])

	// Continuous batching for disaggregated decode: requests imported
	// mid-phase join this slot's batch at the step boundary instead of
	// waiting out the phase. (Colocated engines never stage imports.)
	if len(e.imported) > 0 && !e.switchToPrefil {
		for _, id := range e.imported {
			st := e.states[id]
			if st.done || st.evicted {
				continue
			}
			e.batches[slot] = append(e.batches[slot], id) //det:ignore hotalloc amortized batch growth when staged imports join at a step boundary
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
		e.decodePool = append(e.decodePool, e.batches[slot]...) //det:ignore hotalloc pool drain on phase switch, not per-token work
		if scratchReuse {
			e.batches[slot] = e.batches[slot][:0]
		} else {
			e.batches[slot] = nil
		}
		e.activeBatches--
		if e.activeBatches == 0 {
			e.decodePool = append(e.decodePool, e.stealer.DrainStash()...) //det:ignore hotalloc pool drain on phase switch, not per-token work
			e.afterPrefillDrained()
		}
		return
	}
	e.submitDecode(slot, res.End)
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
		return e.kv.CanAllocate(e.states[e.waiting.Front()].prefillLen)
	}
	resident, kvTokens := e.residentLoad()
	if resident == 0 {
		return true
	}
	avgBatch := (resident + e.numSlots - 1) / e.numSlots
	avgCtx := kvTokens / resident
	feasiblePeak := e.capacityTokens / (e.numSlots * avgCtx)
	si := e.inten.Spatial(avgBatch, avgCtx, feasiblePeak)
	decodeStep := e.cluster.Cost.DecodeBottleneck(e.cluster.Plan, avgBatch, avgBatch*avgCtx)
	ti, _ := e.pendingTemporal(e.kv.FreeBlocks()*e.kv.BlockSize(), decodeStep)
	return e.inten.ShouldSwitch(si, ti)
}

// residentLoad sums live decode requests and their cached tokens across
// batches and the stash.
//
//det:hotpath
func (e *Engine) residentLoad() (n, kvTokens int) {
	for _, b := range e.batches {
		n, kvTokens = e.addLive(b, n, kvTokens)
	}
	n, kvTokens = e.addLive(e.stealer.stash, n, kvTokens)
	n, kvTokens = e.addLive(e.decodePool, n, kvTokens)
	return e.addLive(e.imported, n, kvTokens)
}

// addLive adds the live (neither done nor evicted) requests among ids
// and their cached tokens to the running totals n and kvTokens.
func (e *Engine) addLive(ids []int, n, kvTokens int) (int, int) {
	for _, id := range ids {
		st := e.states[id]
		if st.done || st.evicted {
			continue
		}
		n++
		kvTokens += st.ctx
	}
	return n, kvTokens
}

// handleOOM evicts recently admitted requests to make room for the
// append that failed — the recompute strategy of §4.1. Victims lose
// their cache, keep their generated tokens, and requeue for a fresh
// prefill over input+generated tokens. The ring-buffer waiting queue
// makes the front-insertion O(1) instead of reslicing the whole queue.
func (e *Engine) handleOOM(needID, slot int) {
	keep := map[int]bool{needID: true}
	for _, id := range e.batches[slot] {
		keep[id] = true
	}
	victims := e.kv.EvictMostRecent(e.kv.BlocksFor(1), keep)
	for _, id := range victims {
		st := e.states[id]
		st.evicted = true
		st.launch = 0 // void any in-flight prefill for this request
		st.recomputes++
		e.recomputes++
		st.prefillLen = st.req.InputLen + st.generated
		st.ctx = 0
		st.cached = 0
		e.stealer.Remove(id)
		e.removeImported(id)
		e.waiting.PushFront(id)
	}
	if err := e.kv.Append(needID, 1); err != nil {
		// Even eviction could not free a block: the current batch
		// fills the machine. Evict this request itself.
		st := e.states[needID]
		e.kv.Free(needID)
		st.evicted = true
		st.launch = 0
		st.recomputes++
		e.recomputes++
		st.prefillLen = st.req.InputLen + st.generated
		st.ctx = 0
		st.cached = 0
		e.removeImported(needID)
		e.waiting.PushFront(needID)
	}
}

// removeImported drops an evicted request from the staged-import list
// so its recompute path owns it exclusively (otherwise a later
// injection could enter it into a decode batch twice). The scan is
// O(staged) on the rare eviction path only.
func (e *Engine) removeImported(id int) {
	for i, v := range e.imported {
		if v == id {
			e.imported = append(e.imported[:i], e.imported[i+1:]...)
			return
		}
	}
}

func (e *Engine) finishReq(id int, t sim.Time) {
	st := e.states[id]
	st.done = true
	st.finishedAt = t
	e.kv.Free(id)
	e.finished++
	if e.onFinish != nil {
		e.onFinish(id)
	}
}

func (e *Engine) finish(t sim.Time) {
	if t > e.doneAt {
		e.doneAt = t
	}
}

func (e *Engine) recordKV() {
	if e.cfg.RecordKV {
		e.kvTimeline.Add(e.step, float64(e.eng.Now()), e.kv.UsageRatio(), e.phase)
	}
}

func (e *Engine) buildResult() *Result {
	rep := metrics.Report{
		Scheduler: "TD-Pipe",
		Node:      e.cfg.Node.Name,
		Model:     e.cfg.Spec.Name,
		GPUs:      e.cfg.World,
		Requests:  e.finished,
		Elapsed:   float64(e.doneAt),
	}
	finished := make([]sim.Time, len(e.states))
	records := make([]metrics.RequestRecord, len(e.states))
	for i, st := range e.states {
		if st.aborted {
			// Crash-lost copy: its record stays unfinished (zero Finish,
			// zero tokens — Faults.LostOutputTokens accounts the work)
			// and the re-dispatched copy reports elsewhere.
			records[i] = metrics.RequestRecord{ID: i, Arrival: float64(st.arrival)}
			continue
		}
		rep.InputTokens += st.req.InputLen
		rep.OutputTokens += st.generated
		finished[i] = st.finishedAt
		records[i] = metrics.RequestRecord{
			ID:           i,
			Arrival:      float64(st.arrival),
			FirstToken:   float64(st.firstTokenAt),
			Finish:       float64(st.finishedAt),
			OutputTokens: st.generated,
		}
	}
	rep.PhaseSwitches = e.switches
	rep.Recomputes = e.recomputes
	rep.PrefixCachedTokens = e.prefixCached
	rep.MeanUtilization = e.cluster.Rec.MeanUtilization(0, float64(e.doneAt))
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
	return &Result{Report: rep, Rec: e.cluster.Rec, KV: kvt, Finished: finished, Records: records, Steps: e.eng.Steps()}
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
