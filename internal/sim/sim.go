// Package sim provides a deterministic discrete-event simulation kernel.
//
// All TD-Pipe experiments run in virtual time: schedulers and the
// distributed runtime schedule work as events on an Engine, and the
// engine executes them in strict (time, sequence) order. Determinism is
// guaranteed by breaking time ties with a monotonically increasing
// sequence number, so two runs with the same seed produce identical
// traces.
//
// The kernel is built for throughput: the priority queue is a 4-ary
// heap of small value-typed entries (time, sequence, body index), the
// event bodies live in an arena recycled through a free list, and every
// event is an EventFunc called with a context and two integers, so a
// package-level callback needs no closure. In steady state the hot
// path performs no heap allocation per event.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Infinity is a time later than any event the simulation will produce.
const Infinity Time = Time(math.MaxFloat64)

// EventFunc is the body of every event: a fixed function plus a context
// and two integer arguments. A package-level function and a long-lived
// pointer context schedule an event with zero allocations; a func
// literal costs its closure.
type EventFunc func(ctx any, a, b int)

// event is a scheduled callback's body. Bodies live in the engine's
// arena, indexed by heap entries and recycled through a free list, so
// completed events cost no garbage.
type event struct {
	cb  EventFunc
	ctx any
	a   int
	b   int
	// next links the free list while the slot is recycled.
	next int32
}

// entry is one element of the event heap: the ordering key plus the
// body's arena index. Entries are small values, so sift operations move
// 24 bytes over contiguous memory instead of chasing pointers.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// before reports whether a fires before b: earlier time first, with
// ties broken by scheduling order.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// heap is a 4-ary min-heap over (at, seq): shallower than a binary
	// heap, and the four-way child comparison scans adjacent memory.
	heap  []entry
	arena []event
	// free heads the recycled-body list; -1 when empty.
	free    int32
	stopped bool
	steps   uint64
	// MaxSteps bounds the number of events processed by Run as a
	// runaway guard; 0 means no limit.
	MaxSteps uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events processed so far. Dividing by
// elapsed wall-clock time yields the kernel's steps/sec rate.
func (e *Engine) Steps() uint64 { return e.steps }

// alloc takes a body slot from the free list, growing the arena only
// when no completed event can be recycled.
//
//det:hotpath
func (e *Engine) alloc() int32 {
	if i := e.free; i >= 0 {
		e.free = e.arena[i].next
		return i
	}
	e.arena = append(e.arena, event{}) //det:ignore hotalloc amortized arena growth; steady state recycles slots off the free list
	return int32(len(e.arena) - 1)
}

// recycle clears a completed body (releasing cb/ctx to the GC) and
// pushes its slot onto the free list.
//
//det:hotpath
func (e *Engine) recycle(i int32) {
	e.arena[i] = event{next: e.free}
	e.free = i
}

// push inserts a heap entry for body idx at time t under sequence
// number seq.
//
//det:hotpath
func (e *Engine) push(t Time, seq uint64, idx int32) {
	ent := entry{at: t, seq: seq, idx: idx}
	e.heap = append(e.heap, ent) //det:ignore hotalloc amortized heap growth; steady state reuses the popped slot's capacity
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ent.before(e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = ent
}

// pop removes and returns the earliest entry.
//
//det:hotpath
func (e *Engine) pop() entry {
	top := e.heap[0]
	n := len(e.heap) - 1
	ent := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			hi := c + 4
			if hi > n {
				hi = n
			}
			for k := c + 1; k < hi; k++ {
				if e.heap[k].before(e.heap[m]) {
					m = k
				}
			}
			if !e.heap[m].before(ent) {
				break
			}
			e.heap[i] = e.heap[m]
			i = m
		}
		e.heap[i] = ent
	}
	return top
}

// AtFunc schedules cb(ctx, a, b) at absolute time t, after every event
// already scheduled for t. With a package-level cb and a pointer ctx
// the event costs only a recycled arena slot. Scheduling in the past
// panics: it indicates a scheduler bug, not a recoverable condition.
//
//det:hotpath
func (e *Engine) AtFunc(t Time, cb EventFunc, ctx any, a, b int) {
	e.seq++
	e.schedule(t, e.seq, cb, ctx, a, b)
}

// ReserveSeq reserves n consecutive sequence numbers and returns the
// first. An event scheduled later with AtFuncSeq under a reserved
// number orders against every other event exactly as if AtFunc had
// scheduled it at the reservation, so a caller can stream a long run of
// future events (a trace's arrivals) one at a time instead of holding
// them all in the heap.
func (e *Engine) ReserveSeq(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: reserving %d sequence numbers", n))
	}
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// AtFuncSeq schedules cb(ctx, a, b) at t under seq, a sequence number
// ReserveSeq handed out, in place of a fresh one. Use each reserved
// number once, before the engine dispatches any event that would fire
// after the one scheduled under it (a chain in which each event
// schedules the next does so): the events then dispatch as they would
// have had AtFunc scheduled them all at the reservation.
//
//det:hotpath
func (e *Engine) AtFuncSeq(t Time, seq uint64, cb EventFunc, ctx any, a, b int) {
	if seq == 0 || seq > e.seq {
		panic(fmt.Sprintf("sim: sequence number %d was never reserved", seq))
	}
	e.schedule(t, seq, cb, ctx, a, b)
}

// schedule is the body AtFunc and AtFuncSeq share: it puts cb(ctx, a,
// b) in a body slot and pushes it at t under seq, which AtFunc has just
// taken and AtFuncSeq has checked.
//
//det:hotpath
func (e *Engine) schedule(t Time, seq uint64, cb EventFunc, ctx any, a, b int) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	idx := e.alloc()
	ev := &e.arena[idx]
	ev.cb, ev.ctx, ev.a, ev.b = cb, ctx, a, b
	e.push(t, seq, idx)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return len(e.heap) }

// dispatch advances the clock to ent and invokes its callback. The body
// is copied out and recycled first, so callbacks are free to schedule
// new events into the just-vacated slot.
//
//det:hotpath
func (e *Engine) dispatch(ent entry) {
	if ent.at < e.now {
		panic("sim: event heap time went backwards")
	}
	e.now = ent.at
	e.steps++
	if e.MaxSteps > 0 && e.steps > e.MaxSteps {
		panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v", e.MaxSteps, e.now))
	}
	ev := e.arena[ent.idx]
	e.recycle(ent.idx)
	ev.cb(ev.ctx, ev.a, ev.b)
}

// Run executes events in order until the queue is empty, Stop is called,
// or MaxSteps is exceeded (which panics, as it indicates a scheduler
// livelock). It returns the final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		e.dispatch(e.pop())
	}
	return e.now
}

// RunUntil executes events with time <= deadline and then stops, leaving
// later events queued. It returns the final virtual time (== deadline if
// any events remained).
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].at > deadline {
			e.now = deadline
			return e.now
		}
		e.dispatch(e.pop())
	}
	return e.now
}

// RunBefore executes events with time strictly less than horizon and
// then stops, leaving events at or after the horizon queued. Unlike
// RunUntil it does not move the clock up to the horizon: the clock
// stays at the last executed event, so a later AdvanceTo (or the next
// RunBefore) decides where time lands. It returns the final virtual
// time. Conservative parallel co-simulation is the intended caller:
// each shard engine drains its window up to a safe horizon while the
// events at the horizon itself stay pending for the coordinator.
func (e *Engine) RunBefore(horizon Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].at >= horizon {
			break
		}
		e.dispatch(e.pop())
	}
	return e.now
}

// NextEventTime returns the time of the earliest pending event, or
// Infinity when the queue is empty.
func (e *Engine) NextEventTime() Time {
	if len(e.heap) == 0 {
		return Infinity
	}
	return e.heap[0].at
}

// AdvanceTo moves the clock forward to t without executing anything.
// It panics if t is in the past or if an event earlier than t is still
// pending (advancing would let it fire in the engine's past). Callers
// drain the window first — RunBefore(t) followed by AdvanceTo(t) parks
// the engine exactly at t so externally injected work (Submit, Crash)
// is stamped with the coordinator's clock.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: advancing clock to %v before now %v", t, e.now))
	}
	if len(e.heap) > 0 && e.heap[0].at < t {
		panic(fmt.Sprintf("sim: advancing clock to %v past pending event at %v", t, e.heap[0].at))
	}
	e.now = t
}
