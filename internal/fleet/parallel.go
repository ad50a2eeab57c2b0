package fleet

import (
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// Conservative parallel co-simulation substrate ("fabric") shared by
// every fleet router. The fleet is split across shards, each a private
// sim.Engine hosting a group of replica engines, coordinated by a
// control timeline (ctl) that carries every router intervention:
// arrival routing, crash/restore injection, KV-transfer completions,
// checkpoint resumes and queue drains. The run alternates epochs:
//
//  1. t = next control event. Shards advance in parallel through all
//     replica events strictly before t (RunBefore) — safe because no
//     control intervention can land inside the window: arrivals,
//     crashes and restores are scheduled up front, and cross-shard
//     messages (KV hand-offs, checkpoint reloads) carry the link's
//     minimum transfer latency as lookahead.
//  2. Hand-off notifications buffered by the shard workers are drained
//     in canonical (time, replica, local-id) order and become
//     timestamped control events (transfer completions).
//  3. Control events at instant t execute on the coordinator with
//     every shard clock parked exactly at t, so routing policies see
//     the same incremental load snapshots as a single shared heap.
//
// The same loop runs inline when workers == 1 — the sequential path is
// the one-worker instance of the identical algorithm, which is what
// makes parallel reports byte-identical to sequential ones: replica
// event streams never depend on shard layout (engines share no state),
// and every cross-replica decision happens on the coordinator in a
// canonical order. The determinism suite (parallel_test.go) enforces
// this for online, disagg, prefix-affinity and fault runs.
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

// fabShard is one shard: a private simulation engine and the replicas
// living on it. Between barriers exactly one goroutine touches the
// shard (its worker while advancing, the coordinator otherwise).
type fabShard struct {
	eng  *sim.Engine
	tier int
	slot int // index in its tier; worker slot%workers advances it
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

// advance modes.
const (
	advBefore = iota // RunBefore: strictly before the horizon
	advUntil         // RunUntil + park the clock at the horizon
)

func (sh *fabShard) advance(mode int, horizon sim.Time) {
	if mode == advBefore {
		sh.eng.RunBefore(horizon)
		return
	}
	sh.eng.RunUntil(horizon)
	if sh.eng.Now() < horizon {
		sh.eng.AdvanceTo(horizon)
	}
}

// needs reports whether the shard has events inside an advance window.
func (sh *fabShard) needs(mode int, horizon sim.Time) bool {
	nt := sh.eng.NextEventTime()
	if mode == advBefore {
		return nt < horizon
	}
	return nt <= horizon
}

// fabric is the coordinator: the control timeline, the shard set and
// the worker pool that advances shards between control instants.
type fabric struct {
	ctl     *sim.Engine
	shards  []*fabShard
	tiers   [2][]*fabShard
	byRep   []*fabShard
	workers int

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
	// drainAt retries queued placements; every decode-tier clock is
	// parked at the drain instant when it runs.
	drainAt func()
}

type fabCmd struct {
	tier    int
	mode    int
	horizon sim.Time
	each    func(replica int) // set: call it per replica instead (forEach)
}

// newFabric builds a fabric with the given worker budget. Tiers are
// added before any engines are constructed.
func newFabric(workers int) *fabric {
	if workers < 1 {
		workers = 1
	}
	return &fabric{ctl: sim.NewEngine(), workers: workers}
}

// addTier creates the shards for one tier and assigns the next
// `replicas` global replica indices to them contiguously. Replica
// event streams are independent of co-tenancy, so any grouping yields
// identical per-replica results; contiguous blocks keep cache locality.
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
		shards[s] = &fabShard{eng: sim.NewEngine(), tier: tier, slot: s}
	}
	f.tiers[tier] = shards
	f.shards = append(f.shards, shards...)
	for i := 0; i < replicas; i++ {
		f.byRep = append(f.byRep, shards[i*n/replicas])
	}
}

// engineFor returns the simulation engine hosting a global replica.
func (f *fabric) engineFor(replica int) *sim.Engine { return f.byRep[replica].eng }

// note buffers a hand-off notification from a replica's engine hook.
// Runs on the owning shard's goroutine during an advance.
func (f *fabric) note(replica int, h core.Handoff) {
	sh := f.byRep[replica]
	sh.notes = append(sh.notes, handoffNote{at: h.At, replica: replica, h: h})
}

// markFinish records that a replica finished a request during the
// current advance. Runs on the owning shard's goroutine.
func (f *fabric) markFinish(replica int) { f.byRep[replica].sawFinish = true }

// queueStale queues a replica whose cost-tree leaf a finish hook left
// stale. Runs on the owning shard's goroutine.
//
//det:hotpath
func (f *fabric) queueStale(replica int) {
	sh := f.byRep[replica]
	sh.stale = append(sh.stale, replica) //det:ignore hotalloc amortized growth; the queue empties at every pick and holds each replica at most once
}

// Steps sums the events processed across the control timeline and all
// shard engines.
func (f *fabric) Steps() uint64 {
	total := f.ctl.Steps()
	for _, sh := range f.shards {
		total += sh.eng.Steps()
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
			shards[s].advance(cmd.mode, cmd.horizon)
		}
		f.done <- struct{}{}
	}
}

// forEach calls fn once per replica. While the pool runs, each worker
// takes the replicas of its own shards in index order, so fn may touch
// only its replica's engine and result slots; otherwise the calls run
// inline in replica order. Either way, replicas sharing a shard engine
// see the same call order.
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

// advanceTier moves every shard of a tier through the window, fanning
// the work out to the pool when more than one shard has events there.
// The channel round-trips form the happens-before edges that hand shard
// ownership between the coordinator and the workers.
func (f *fabric) advanceTier(tier int, horizon sim.Time, mode int) {
	shards := f.tiers[tier]
	if f.cmds == nil {
		for _, sh := range shards {
			sh.advance(mode, horizon)
		}
		return
	}
	needy, last := 0, -1
	for s, sh := range shards {
		if sh.needs(mode, horizon) {
			needy++
			last = s
		}
	}
	switch needy {
	case 0:
		if mode == advUntil {
			f.syncTier(tier, horizon)
		}
		return
	case 1:
		// One busy shard: advancing inline beats waking a worker.
		shards[last].advance(mode, horizon)
		if mode == advUntil {
			f.syncTier(tier, horizon)
		}
		return
	}
	woken := 0
	cmd := fabCmd{tier: tier, mode: mode, horizon: horizon}
	for w := 0; w < f.workers; w++ {
		wake := false
		for s := w; s < len(shards); s += f.workers {
			if shards[s].needs(mode, horizon) {
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
	if mode == advUntil {
		f.syncTier(tier, horizon)
	}
}

// syncTier parks every shard clock of a tier exactly at t. Only legal
// once the tier has advanced through all events before t.
func (f *fabric) syncTier(tier int, t sim.Time) {
	for _, sh := range f.tiers[tier] {
		if sh.eng.Now() < t {
			sh.eng.AdvanceTo(t)
		}
	}
}

// syncAll parks every shard that has not outrun t at t, so control
// events executing at t stamp submissions with the coordinator clock.
// Tier-0 shards may legitimately sit past t after a horizon refresh
// (a transfer completed earlier than the pre-drain horizon); control
// events at such refreshed instants only touch the later tier.
func (f *fabric) syncAll(t sim.Time) {
	for _, sh := range f.shards {
		if sh.eng.Now() < t {
			sh.eng.AdvanceTo(t)
		}
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
			if nt := sh.eng.NextEventTime(); nt < h {
				h = nt
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
			f.drainAt()
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

// run drives the epoch loop to completion: every shard drained and no
// control events left.
func (f *fabric) run() {
	two := f.tiers[1] != nil
	for {
		t := f.ctl.NextEventTime()
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
			return
		}
		f.syncAll(t)
		f.ctl.RunUntil(t)
	}
}
