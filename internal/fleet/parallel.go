package fleet

import (
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// Conservative parallel co-simulation substrate ("fabric") shared by
// every fleet router. Each replica runs on a sim.Engine of its own; the
// replicas are split across shards, one worker's share each, and a
// control timeline (ctl) carries every router intervention: arrival
// routing, crash/restore injection, KV-transfer completions,
// checkpoint resumes and queue drains. Each shard keeps its replicas in
// a min-heap keyed by the instant before which the router needs them
// run, so an advance pops a replica and runs its whole stretch of
// events while its state is in cache. The run alternates epochs:
//
//  1. t = next control event. Every replica keyed before t runs through
//     all its events strictly before t (RunBefore), the shards in
//     parallel — safe because no control intervention can land inside
//     the window: arrivals, crashes and restores are scheduled up
//     front, and cross-shard messages (KV hand-offs, checkpoint
//     reloads) carry the link's minimum transfer latency as lookahead.
//  2. Hand-off notifications buffered by the shard workers are drained
//     in canonical (time, replica, local-id) order and become
//     timestamped control events (transfer completions).
//  3. Control events at instant t execute on the coordinator. The
//     router reaches a replica's engine only through fabric.touch,
//     which runs that replica to just before t and parks its clock at
//     t, so the intervention is stamped with the coordinator clock.
//     No other clock moves; touched replicas are re-keyed before the
//     next advance.
//
// The key says how far a replica may lag. An eager fabric keys it by
// its next event, so every replica is up to date at every control
// event: its pools read engine probes, breakers, the autoscaler's
// signals or hand-off notes, which any event may change. A lazy fabric
// serves one colocated pool, with no layer attached, whose pick reads
// only the router's own load counters (argminCost's cost tree,
// round-robin, random). Only finish hooks change those counters, so it
// keys a replica by a lower bound on its next finish
// (core.Engine.FinishBound): at t it runs only the replicas that could
// have finished a request before t, inline on the coordinator since
// they are few, and touch runs the picked one. Both are the same
// advance over the same heaps; only the key differs, and
// either way a control event costs O(shards) plus the replicas it
// runs. After the last control event nothing can route any more, and
// every replica runs to completion on its own through forEach.
//
// The same loop runs inline when workers == 1 — the sequential path is
// the one-worker instance of the identical algorithm, which is what
// makes parallel reports byte-identical to sequential ones: replica
// event streams never depend on shard layout or on when a replica runs
// (engines share no state), and every cross-replica decision happens
// on the coordinator in a canonical order. The determinism suite
// (parallel_test.go) enforces this for online, disagg,
// prefix-affinity and fault runs, and TestLazyPicksMatchEager holds
// lazy runs to the eager schedule.
//
// Tie semantics: control events at instant t execute before replica
// events at t. For arrival routing this matches the shared-heap
// ordering exactly (arrivals were scheduled first and won ties by
// sequence number); for router events scheduled mid-run the shared
// heap interleaved ties by scheduling order, so runs can differ from
// the pre-fabric router only when a replica event collides with a
// transfer completion at the exact same float64 instant.

// WorkersAuto requests automatic worker selection: GOMAXPROCS when the
// fleet has at least AutoWorkerThreshold replicas, sequential below
// that (small fleets lose more to epoch barriers than they gain).
const WorkersAuto = -1

// AutoWorkerThreshold is the fleet size at which WorkersAuto switches
// from sequential to GOMAXPROCS workers.
const AutoWorkerThreshold = 16

// ResolveWorkers maps a worker request (0 or 1 = sequential, negative
// = auto) to the concrete worker count for a fleet of the given size.
func ResolveWorkers(workers, replicas int) int {
	if workers < 0 {
		if replicas < AutoWorkerThreshold {
			return 1
		}
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > replicas {
		workers = replicas
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// handoffNote is one cross-shard notification buffered by a shard
// worker: replica's engine exported a finished prefix (core.Handoff)
// while the shard advanced through its epoch window. The coordinator
// drains notes at the barrier in (at, replica, local) order.
type handoffNote struct {
	at      sim.Time
	replica int
	h       core.Handoff
}

// fabShard is one shard: a group of replicas, contiguous in global
// index, and their heap. Between barriers exactly one goroutine touches
// the shard and its replicas (its worker while advancing, the
// coordinator otherwise).
type fabShard struct {
	slot int // index in its tier; worker slot%workers advances it
	heap repHeap
	// notes buffers hand-off notifications in the shard's event order.
	notes []handoffNote
	// stale queues the replicas whose cost-tree leaves a finish hook
	// left stale; the router re-keys them before its next pick.
	stale []int
	// sawFinish is set by finish hooks during an advance; the
	// coordinator polls and clears it while lockstepping the decode
	// tier through instants where queued hand-offs may become
	// placeable.
	sawFinish bool
}

// repKey is one entry of a shard's replica heap: a global replica and
// the instant before which the fabric must run it (see fabric.key).
type repKey struct {
	at  sim.Time
	rep int
}

// repHeap is a binary min-heap of one shard's replicas by key. pos maps
// a replica, offset by the shard's first replica lo, to its index in
// ents, so a replica is re-keyed in place after it runs or is touched.
type repHeap struct {
	lo   int
	ents []repKey
	pos  []int
}

// due reports whether the heap's earliest replica must run in an
// advance window: key before the horizon, or at it too under advUntil.
//
//det:hotpath
func (h *repHeap) due(mode int, horizon sim.Time) bool {
	if len(h.ents) == 0 {
		return false
	}
	if mode == advBefore {
		return h.ents[0].at < horizon
	}
	return h.ents[0].at <= horizon
}

// set re-keys replica g, already in the heap, to at.
//
//det:hotpath
func (h *repHeap) set(g int, at sim.Time) {
	i := h.pos[g-h.lo]
	up := at < h.ents[i].at
	h.ents[i].at = at
	if up {
		h.up(i)
	} else {
		h.down(i)
	}
}

// up sifts entry i toward the root.
//
//det:hotpath
func (h *repHeap) up(i int) {
	e := h.ents[i]
	for i > 0 {
		p := (i - 1) / 2
		if !(e.at < h.ents[p].at) {
			break
		}
		h.ents[i] = h.ents[p]
		h.pos[h.ents[i].rep-h.lo] = i
		i = p
	}
	h.ents[i] = e
	h.pos[e.rep-h.lo] = i
}

// down sifts entry i toward the leaves.
//
//det:hotpath
func (h *repHeap) down(i int) {
	e := h.ents[i]
	n := len(h.ents)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.ents[c+1].at < h.ents[c].at {
			c++
		}
		if !(h.ents[c].at < e.at) {
			break
		}
		h.ents[i] = h.ents[c]
		h.pos[h.ents[i].rep-h.lo] = i
		i = c
	}
	h.ents[i] = e
	h.pos[e.rep-h.lo] = i
}

// advance modes.
const (
	advBefore = iota // RunBefore: strictly before the horizon
	advUntil         // RunUntil: through the horizon
)

// fabric is the coordinator: the control timeline, the replicas'
// engines, the shard set and the worker pool that advances shards
// between control instants.
type fabric struct {
	ctl    *sim.Engine
	shards []*fabShard
	tiers  [2][]*fabShard
	byRep  []*fabShard
	// engs[g] is replica g's simulation engine and cores[g] its TD-Pipe
	// engine (bound once startEngines built them).
	engs    []*sim.Engine
	cores   []*core.Engine
	workers int
	// lazy keys replicas by their finish bound instead of their next
	// event (see the header).
	lazy bool

	// now is the instant control-side code runs at: the control
	// timeline's instant, or the decode lockstep's. touch parks replicas
	// there; touched is the latest instant it did so.
	now, touched sim.Time
	// dirty lists the replicas touched since the last advance, whose
	// keys settle recomputes; isDirty[g] marks replica g listed.
	dirty   []int
	isDirty []bool

	cmds []chan fabCmd
	done chan struct{}

	notes []handoffNote // canonical-drain scratch

	// onNote consumes one hand-off notification at the barrier
	// (disagg: accounts the migration and schedules the transfer
	// completion on ctl). Nil for single-tier fleets.
	onNote func(replica int, h core.Handoff)
	// pendingWork reports whether hand-offs are queued for decode-side
	// headroom, which forces the decode tier to advance in lockstep so
	// placement retries happen at the finish instants that free KV.
	pendingWork func() bool
	// drainAt retries queued placements at the lockstep instant.
	drainAt func()
}

type fabCmd struct {
	tier    int
	mode    int
	horizon sim.Time
	each    func(replica int) // set: call it per replica instead (forEach)
}

// syncCheck, when set, makes the fabric bring every replica up to date
// after the control events of each instant, the schedule an eager
// fabric keeps, and sees every finish hook: the replica, the instant it
// fired and the latest instant the router touched a replica at (every
// pick touches the picked one). Only tests set it, to hold lazy picks
// to eager ones and to catch a finish that fired before a pick that
// should have seen it.
var syncCheck func(replica int, at, touched sim.Time)

// newFabric builds a fabric with the given worker budget. Tiers are
// added before any engines are constructed.
func newFabric(workers int) *fabric {
	if workers < 1 {
		workers = 1
	}
	return &fabric{ctl: sim.NewEngine(), workers: workers}
}

// addTier creates the shards for one tier and assigns the next
// `replicas` global replica indices to them contiguously, each with an
// engine of its own. Replica event streams are independent of
// co-tenancy, so any grouping yields identical per-replica results;
// contiguous blocks keep cache locality.
func (f *fabric) addTier(tier, replicas int) {
	n := f.workers
	if n > replicas {
		n = replicas
	}
	if n < 1 {
		n = 1
	}
	shards := make([]*fabShard, n)
	for s := range shards {
		shards[s] = &fabShard{slot: s}
	}
	f.tiers[tier] = shards
	f.shards = append(f.shards, shards...)
	for i := 0; i < replicas; i++ {
		sh := shards[i*n/replicas]
		g := len(f.byRep)
		if len(sh.heap.pos) == 0 {
			sh.heap.lo = g
		}
		sh.heap.pos = append(sh.heap.pos, len(sh.heap.ents))
		sh.heap.ents = append(sh.heap.ents, repKey{at: sim.Infinity, rep: g})
		f.byRep = append(f.byRep, sh)
		f.engs = append(f.engs, sim.NewEngine())
	}
	f.isDirty = make([]bool, len(f.byRep))
}

// bind attaches the replicas' TD-Pipe engines and keys every replica
// from their initial state.
func (f *fabric) bind(cores []*core.Engine) {
	f.cores = cores
	for g := range cores {
		f.byRep[g].heap.set(g, f.key(g))
	}
}

// key returns the instant before which replica g must run: a lower
// bound on its next finish on a lazy fabric, its next event otherwise.
//
//det:hotpath
func (f *fabric) key(g int) sim.Time {
	if f.lazy {
		return f.cores[g].FinishBound()
	}
	return f.engs[g].NextEventTime()
}

// catchUp runs replica g through the advance window and re-keys it.
// Runs on the goroutine that owns g's shard.
//
//det:hotpath
func (f *fabric) catchUp(g, mode int, horizon sim.Time) {
	if mode == advBefore {
		f.engs[g].RunBefore(horizon)
	} else {
		f.engs[g].RunUntil(horizon)
	}
	f.byRep[g].heap.set(g, f.key(g))
}

// advance runs every replica of sh whose key falls in the window. A
// replica it ran is keyed past the window, so each runs once.
//
//det:hotpath
func (f *fabric) advance(sh *fabShard, mode int, horizon sim.Time) {
	for sh.heap.due(mode, horizon) {
		f.catchUp(sh.heap.ents[0].rep, mode, horizon)
	}
}

// touch hands the router replica g's engine at the control instant: the
// replica runs to just before the instant (a lazy fabric's picked
// replica may lag; anywhere else nothing is left there), its clock is
// parked at the instant unless it already ran past it, and it is
// queued to be re-keyed before the next advance. It is the router's
// only way to a replica between advances, and moves no other clock.
//
//det:hotpath
func (f *fabric) touch(g int) *core.Engine {
	e := f.engs[g]
	e.RunBefore(f.now)
	if e.Now() < f.now {
		e.AdvanceTo(f.now)
	}
	if !f.isDirty[g] {
		f.isDirty[g] = true
		f.dirty = append(f.dirty, g) //det:ignore hotalloc amortized growth; the list empties at every advance and holds each replica at most once
	}
	f.touched = f.now
	return f.cores[g]
}

// settle re-keys the replicas touched since the last advance.
//
//det:hotpath
func (f *fabric) settle() {
	for _, g := range f.dirty {
		f.isDirty[g] = false
		f.byRep[g].heap.set(g, f.key(g))
	}
	f.dirty = f.dirty[:0]
}

// note buffers a hand-off notification from a replica's engine hook.
// Runs on the owning shard's goroutine during an advance.
func (f *fabric) note(replica int, h core.Handoff) {
	sh := f.byRep[replica]
	sh.notes = append(sh.notes, handoffNote{at: h.At, replica: replica, h: h})
}

// markFinish records that a replica finished a request during the
// current advance. Runs on the owning shard's goroutine.
//
//det:hotpath
func (f *fabric) markFinish(replica int) {
	f.byRep[replica].sawFinish = true
	if syncCheck != nil {
		syncCheck(replica, f.engs[replica].Now(), f.touched)
	}
}

// queueStale queues a replica whose cost-tree leaf a finish hook left
// stale. Runs on the owning shard's goroutine.
//
//det:hotpath
func (f *fabric) queueStale(replica int) {
	sh := f.byRep[replica]
	sh.stale = append(sh.stale, replica) //det:ignore hotalloc amortized growth; the queue empties at every pick and holds each replica at most once
}

// Steps sums the events processed across the control timeline and all
// replica engines.
func (f *fabric) Steps() uint64 {
	total := f.ctl.Steps()
	for _, e := range f.engs {
		total += e.Steps()
	}
	return total
}

// start launches the worker pool (no-op for sequential runs).
func (f *fabric) start() {
	if f.workers <= 1 {
		return
	}
	f.done = make(chan struct{}, f.workers)
	f.cmds = make([]chan fabCmd, f.workers)
	for w := range f.cmds {
		f.cmds[w] = make(chan fabCmd, 1)
		go f.worker(w, f.cmds[w])
	}
}

// stopWorkers shuts the pool down; safe to call twice.
func (f *fabric) stopWorkers() {
	for _, c := range f.cmds {
		close(c)
	}
	f.cmds = nil
}

func (f *fabric) worker(w int, cmds <-chan fabCmd) {
	for cmd := range cmds {
		if cmd.each != nil {
			for i, sh := range f.byRep {
				if sh.slot%f.workers == w {
					cmd.each(i)
				}
			}
			f.done <- struct{}{}
			continue
		}
		shards := f.tiers[cmd.tier]
		for s := w; s < len(shards); s += f.workers {
			f.advance(shards[s], cmd.mode, cmd.horizon)
		}
		f.done <- struct{}{}
	}
}

// forEach calls fn once per replica. While the pool runs, each worker
// takes the replicas of its own shards in index order, so fn may touch
// only its replica's engine, its shard and its result slots; otherwise
// the calls run inline in replica order.
func (f *fabric) forEach(fn func(replica int)) {
	if f.cmds == nil {
		for i := range f.byRep {
			fn(i)
		}
		return
	}
	for _, c := range f.cmds {
		c <- fabCmd{each: fn}
	}
	for range f.cmds {
		<-f.done
	}
}

// advanceTier runs every shard of a tier through the window, fanning
// the work out to the pool when more than one shard has replicas due
// there. A lazy fabric advances inline: it runs a replica or two per
// control event, too little work to pay for waking a worker (its tail
// after the last control event runs on the pool through forEach). The
// channel round-trips form the happens-before edges that hand shard
// ownership between the coordinator and the workers.
func (f *fabric) advanceTier(tier int, horizon sim.Time, mode int) {
	shards := f.tiers[tier]
	if f.cmds == nil || f.lazy {
		for _, sh := range shards {
			f.advance(sh, mode, horizon)
		}
		return
	}
	needy, last := 0, -1
	for s, sh := range shards {
		if sh.heap.due(mode, horizon) {
			needy++
			last = s
		}
	}
	switch needy {
	case 0:
		return
	case 1:
		// One busy shard: advancing inline beats waking a worker.
		f.advance(shards[last], mode, horizon)
		return
	}
	woken := 0
	cmd := fabCmd{tier: tier, mode: mode, horizon: horizon}
	for w := 0; w < f.workers; w++ {
		wake := false
		for s := w; s < len(shards); s += f.workers {
			if shards[s].heap.due(mode, horizon) {
				wake = true
				break
			}
		}
		if wake {
			f.cmds[w] <- cmd
			woken++
		}
	}
	for i := 0; i < woken; i++ {
		<-f.done
	}
}

// drainNotes merges the hand-off notifications buffered by the tier-0
// shards into canonical (time, replica, local) order and feeds them to
// the router, which schedules their transfer completions on ctl.
func (f *fabric) drainNotes() {
	f.notes = f.notes[:0]
	for _, sh := range f.tiers[0] {
		f.notes = append(f.notes, sh.notes...)
		sh.notes = sh.notes[:0]
	}
	if len(f.notes) == 0 {
		return
	}
	sort.Slice(f.notes, func(i, j int) bool {
		a, b := &f.notes[i], &f.notes[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.replica != b.replica {
			return a.replica < b.replica
		}
		return a.h.Local < b.h.Local
	})
	for i := range f.notes {
		f.onNote(f.notes[i].replica, f.notes[i].h)
	}
}

// advanceLater advances the second tier to the (possibly refreshed)
// horizon t. While hand-offs are queued for decode headroom the tier
// moves in lockstep — one instant at a time, retrying placement at
// every instant where a finish freed KV — because a placement there
// changes the very next decode events. With nothing queued the whole
// window is safe in one parallel sweep.
func (f *fabric) advanceLater(t sim.Time) {
	for f.pendingWork() {
		h := sim.Infinity
		for _, sh := range f.tiers[1] {
			if len(sh.heap.ents) > 0 && sh.heap.ents[0].at < h {
				h = sh.heap.ents[0].at
			}
		}
		if h >= t {
			return
		}
		for _, sh := range f.tiers[1] {
			sh.sawFinish = false
		}
		f.advanceTier(1, h, advUntil)
		finished := false
		for _, sh := range f.tiers[1] {
			if sh.sawFinish {
				finished = true
				break
			}
		}
		if finished {
			f.now = h
			f.drainAt()
			f.settle()
		}
	}
	f.advanceTier(1, t, advBefore)
}

// drive runs the epoch loop to completion on the worker pool.
func (f *fabric) drive() {
	f.start()
	defer f.stopWorkers()
	f.run()
}

// run drives the epoch loop to completion: no control events left,
// then every replica run to its end.
func (f *fabric) run() {
	two := f.tiers[1] != nil
	for {
		f.settle()
		t := f.ctl.NextEventTime()
		if t == sim.Infinity && !two {
			break
		}
		f.advanceTier(0, t, advBefore)
		if two {
			f.drainNotes()
			// Drained hand-offs may have scheduled transfer
			// completions before the pre-drain horizon; the later tier
			// must not advance past them.
			t = f.ctl.NextEventTime()
			f.advanceLater(t)
		}
		if t == sim.Infinity {
			break
		}
		f.now = t
		f.ctl.RunUntil(t)
		if syncCheck != nil {
			f.forEach(func(g int) { f.catchUp(g, advBefore, t) })
		}
	}
	f.forEach(func(g int) { f.engs[g].Run() })
}
