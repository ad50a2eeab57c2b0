package fleet

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// Conservative co-simulation substrate ("fabric") shared by every fleet
// router. Each replica runs on a sim.Engine of its own, and a control
// timeline (ctl) carries every router intervention: arrival routing,
// crash/restore injection, KV-transfer completions, checkpoint resumes
// and queue drains. Each tier schedules its replicas in a min-tree
// (mintree.go) keyed by the instant before which the router needs them
// run, so an advance takes the earliest replica and runs its whole
// stretch of events while its state is in cache. The coordinator
// alternates epochs:
//
//  1. t = next control event. Every replica keyed before t runs through
//     its events strictly before t (RunBefore) — safe because no control
//     intervention can land inside the window: arrivals, crashes and
//     restores are scheduled up front, and cross-replica messages (KV
//     hand-offs, checkpoint reloads) carry the link's minimum transfer
//     latency as lookahead.
//  2. Hand-off notifications buffered by the prefill engines' hooks are
//     drained in canonical (time, replica, local-id) order and become
//     timestamped control events (transfer completions).
//  3. Control events at t execute. The router reaches a replica's
//     engine only through fabric.touch, which runs that replica to just
//     before t and parks its clock at t. No other clock moves; touched
//     replicas are re-keyed before the next advance.
//
// The key says how far a replica may lag. An eager fabric keys it by
// its next event, so every replica is up to date at every control
// event: its pools read engine probes, KV headroom or hand-off notes,
// which any event may change. A lazy fabric serves one colocated pool
// with no fault plan whose pick reads only the router's load counters
// (a cost tree or scan, round-robin, random). Finish hooks keep those
// and the policy stack's breakers, TTFT window and drain marks; its
// token bucket and retries read only time. So the fabric keys a
// replica by a lower bound on its next finish (core.Engine.FinishBound)
// and every finish before t fires before the control events at t;
// touch runs the picked replica, the only one a preemption reads.
// Either way a control event costs a root read plus O(log replicas) per
// replica it runs.
//
// Every advance runs on the coordinator, at any worker count: it runs a
// few replicas for short stretches, too little to pay for waking a
// worker. The worker pool runs only per-replica work that no control
// event separates, through forEach: building, starting and finalizing
// every run's engines, and running every replica to completion after
// the last control event (the tail). Reports are therefore
// byte-identical at every worker count: a replica's events never
// depend on when or where it runs (engines share no state), hand-off
// notes are drained in a canonical order, every cross-replica decision
// is the coordinator's, and in the tail, the only events run off the
// coordinator, finish hooks write no shared state (fabric.tail). The
// determinism suite (parallel_test.go) enforces this for online,
// disagg, prefix-affinity and fault runs, and
// TestLazyPicksMatchEager holds lazy runs to the eager schedule, both
// at worker counts forced through GOMAXPROCS. The count is the
// machine's, not the deployment's (Serve picks it): on 1000 replicas
// two workers beat one, at 64 they tie (EXPERIMENTS.md).
//
// Tie semantics: control events at instant t execute before replica
// events at t, so runs can differ from a single shared event heap only
// when a replica event collides with a transfer completion scheduled
// mid-run at the exact same float64 instant.

// handoffNote is one cross-replica notification buffered by a prefill
// engine's hook: replica's engine exported a finished prefix
// (core.Handoff) while the fabric advanced it. The coordinator drains
// notes after the prefill tier's advance in (at, replica, local) order.
type handoffNote struct {
	at      sim.Time
	replica int
	h       core.Handoff
}

// advance modes.
const (
	advBefore = iota // RunBefore: strictly before the horizon
	advUntil         // RunUntil: through the horizon
)

// fabric is the coordinator: the control timeline, the replicas'
// engines, one schedule per tier and the worker count forEach fans
// per-replica work out to.
type fabric struct {
	ctl *sim.Engine
	// sched[tier] keys the tier's replicas (see fabric.key); leaf i of
	// tier t is global replica off[t]+i.
	sched [2]*minTree
	off   [2]int
	// engs[g] is replica g's simulation engine and cores[g] its TD-Pipe
	// engine (bound once startEngines built them).
	engs    []*sim.Engine
	cores   []*core.Engine
	workers int
	// lazy keys replicas by their finish bound instead of their next
	// event (see the header).
	lazy bool

	// now is the instant control-side code runs at, where touch parks
	// replicas: the control timeline's instant, or the decode lockstep's.
	now sim.Time
	// dirty lists the replicas touched since the last advance, whose
	// keys settle recomputes; isDirty[g] marks replica g listed.
	dirty   []int
	isDirty []bool

	// notes buffers the prefill hooks' hand-off notifications in event
	// order until the next drain. sawFinish is set by finish hooks
	// during an advance; the coordinator polls and clears it while
	// lockstepping the decode tier through instants where queued
	// hand-offs may become placeable.
	notes     []handoffNote
	sawFinish bool
	// tail is set for the run to completion after the last control
	// event, which may run on the pool: finish hooks then write no
	// shared state (nothing reads it afterwards).
	tail bool

	// onNote consumes one drained hand-off notification (disagg:
	// accounts the migration and schedules the transfer
	// completion on ctl). Nil for single-tier fleets.
	onNote func(replica int, h core.Handoff)
	// pendingWork reports whether hand-offs are queued for decode-side
	// headroom, which forces the decode tier to advance in lockstep so
	// placement retries happen at the finish instants that free KV.
	pendingWork func() bool
	// drainAt retries queued placements at the lockstep instant.
	drainAt func()
}

// syncCheck, when set, makes the fabric bring every replica up to date
// after the control events of each instant, the schedule an eager
// fabric keeps, and sees every finish hook: the replica, the instant it
// fired and the fabric's control instant then. A finish before that
// instant fired after control events that should have seen it. Only
// tests set it, to hold lazy runs to eager ones and to catch such a
// finish.
var syncCheck func(replica int, at, now sim.Time)

// newFabric builds a fabric whose forEach fans out to the given number
// of workers. Tiers are added before any engines are constructed.
func newFabric(workers int) *fabric {
	return &fabric{ctl: sim.NewEngine(), workers: workers}
}

// addTier gives one tier its schedule and the next `replicas` global
// replica indices, each with an engine of its own.
func (f *fabric) addTier(tier, replicas int) {
	f.sched[tier] = newMinTree(replicas)
	f.off[tier] = len(f.engs)
	for i := 0; i < replicas; i++ {
		f.engs = append(f.engs, sim.NewEngine())
	}
	f.isDirty = make([]bool, len(f.engs))
}

// bind attaches the replicas' TD-Pipe engines and keys every replica
// from their initial state.
func (f *fabric) bind(cores []*core.Engine) {
	f.cores = cores
	for g := range cores {
		f.rekey(g)
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

// rekey re-keys replica g in its tier's schedule.
//
//det:hotpath
func (f *fabric) rekey(g int) {
	tier := 0
	if f.sched[1] != nil && g >= f.off[1] {
		tier = 1
	}
	f.sched[tier].set(g-f.off[tier], float64(f.key(g)), 0, true)
}

// due returns the tier's earliest replica when it must run in an
// advance window (key before the horizon, or at it too under
// advUntil), -1 otherwise.
//
//det:hotpath
func (f *fabric) due(tier, mode int, horizon sim.Time) int {
	top := f.sched[tier].nodes[1]
	at := sim.Time(top.key)
	if top.rep >= 0 && (at < horizon || (mode == advUntil && at == horizon)) {
		return f.off[tier] + top.rep
	}
	return -1
}

// catchUp runs replica g through the advance window and re-keys it.
//
//det:hotpath
func (f *fabric) catchUp(g, mode int, horizon sim.Time) {
	if mode == advBefore {
		f.engs[g].RunBefore(horizon)
	} else {
		f.engs[g].RunUntil(horizon)
	}
	f.rekey(g)
}

// advance runs every replica of a tier whose key falls in the window,
// earliest key first, ties to the lower index. A replica it ran is
// keyed past the window, so each runs once.
//
//det:hotpath
func (f *fabric) advance(tier int, horizon sim.Time, mode int) {
	for g := f.due(tier, mode, horizon); g >= 0; g = f.due(tier, mode, horizon) {
		f.catchUp(g, mode, horizon)
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
	return f.cores[g]
}

// settle re-keys the replicas touched since the last advance.
//
//det:hotpath
func (f *fabric) settle() {
	for _, g := range f.dirty {
		f.isDirty[g] = false
		f.rekey(g)
	}
	f.dirty = f.dirty[:0]
}

// note buffers a hand-off notification from a replica's engine hook.
// Hand-offs happen only in advances, which run on the coordinator: a
// split fleet advances both tiers through the last hand-off.
func (f *fabric) note(replica int, h core.Handoff) {
	f.notes = append(f.notes, handoffNote{at: h.At, replica: replica, h: h})
}

// markFinish records that a replica finished a request during the
// current advance. In the tail it sets no flag; syncCheck still sees
// every finish.
//
//det:hotpath
func (f *fabric) markFinish(replica int) {
	if !f.tail {
		f.sawFinish = true
	}
	if syncCheck != nil {
		syncCheck(replica, f.engs[replica].Now(), f.now)
	}
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

// forEach calls fn once per replica. With one worker the calls run
// inline in replica order. Otherwise worker w runs the contiguous block
// [w·n/W, (w+1)·n/W) of the n replicas in index order on a goroutine of
// its own, so fn may touch only its replica's engine and result slots;
// the goroutine starts and the WaitGroup form the happens-before edges
// that hand the replicas between the coordinator and the workers.
// Replica event streams are independent of co-tenancy, so any split
// yields identical per-replica results.
func (f *fabric) forEach(fn func(replica int)) {
	n := len(f.engs)
	if f.workers <= 1 {
		for g := 0; g < n; g++ {
			fn(g)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < f.workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for g := lo; g < hi; g++ {
				fn(g)
			}
		}(w*n/f.workers, (w+1)*n/f.workers)
	}
	wg.Wait()
}

// drainNotes sorts the buffered hand-off notifications into canonical
// (time, replica, local) order, feeds them to the router, which
// schedules their transfer completions on ctl, and empties the buffer.
func (f *fabric) drainNotes() {
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
	f.notes = f.notes[:0]
}

// advanceLater advances the second tier to the (possibly refreshed)
// horizon t. While hand-offs are queued for decode headroom the tier
// moves in lockstep — to its schedule's root, one instant at a time,
// retrying placement at every instant where a finish freed KV —
// because a placement there changes the very next decode events. With
// nothing queued the whole window runs in one advance.
func (f *fabric) advanceLater(t sim.Time) {
	for f.pendingWork() {
		top := f.sched[1].nodes[1]
		h := sim.Time(top.key)
		if top.rep < 0 || h >= t {
			return
		}
		f.sawFinish = false
		f.advance(1, h, advUntil)
		if f.sawFinish {
			f.now = h
			f.drainAt()
			f.settle()
		}
	}
	f.advance(1, t, advBefore)
}

// run drives the epoch loop to completion: no control events left,
// then every replica run to its end.
func (f *fabric) run() {
	two := f.sched[1] != nil
	for {
		f.settle()
		t := f.ctl.NextEventTime()
		if t == sim.Infinity && !two {
			break
		}
		f.advance(0, t, advBefore)
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
			for g := range f.engs {
				f.catchUp(g, advBefore, t)
			}
		}
	}
	f.tail = true
	f.forEach(func(g int) { f.engs[g].Run() })
}
