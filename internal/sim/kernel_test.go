package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// --- reference implementation -----------------------------------------
//
// refEngine is the original pointer-heap kernel (container/heap over
// *refEvent), kept verbatim as the oracle for property-testing the
// value-based 4-ary heap: both must execute any schedule in the exact
// same (time, seq) order.

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
}

func (e *refEngine) At(t Time, fn func()) {
	e.seq++
	heap.Push(&e.events, &refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) Run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		e.now = ev.at
		ev.fn()
	}
}

// driveScenario runs a deterministic pseudo-random schedule to
// completion and returns the firing order: n root events at times drawn
// from a tiny alphabet (maximizing ties), each optionally rescheduling
// children at the current or a later instant. newEng returns the
// engine's schedule, clock and run calls.
func driveScenario(seed int64, n int, newEng func() (func(Time, func()), func() Time, func())) []int {
	schedAt, now, run := newEng()
	rng := rand.New(rand.NewSource(seed))
	var order []int
	next := n
	times := []Time{0, 0.25, 0.25, 0.5, 1, 1, 2, 3}
	var schedule func(id int, at Time)
	var depthOf map[int]int
	depthOf = map[int]int{}
	schedule = func(id int, at Time) {
		schedAt(at, func() {
			order = append(order, id)
			if depthOf[id] < 2 && rng.Intn(3) == 0 {
				child := next
				next++
				depthOf[child] = depthOf[id] + 1
				schedule(child, now())
				child = next
				next++
				depthOf[child] = depthOf[id] + 1
				schedule(child, now()+Time(times[rng.Intn(len(times))]))
			}
		})
	}
	for i := 0; i < n; i++ {
		schedule(i, times[rng.Intn(len(times))])
	}
	run()
	return order
}

func TestKernelOrderPropertyVsReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		got := driveScenario(seed, 60, func() (func(Time, func()), func() Time, func()) {
			e := NewEngine()
			return func(t Time, fn func()) { at(e, t, fn) }, e.Now, func() { e.Run() }
		})
		want := driveScenario(seed, 60, func() (func(Time, func()), func() Time, func()) {
			r := &refEngine{}
			return r.At, func() Time { return r.now }, r.Run
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: firing order diverged from pointer-heap reference:\n got %v\nwant %v", seed, got, want)
		}
	}
}

// Mass time-ties: thousands of events at the same instant must fire in
// exact scheduling order, exercising deep sift chains of equal keys.
func TestMassTimeTiesFIFO(t *testing.T) {
	e := NewEngine()
	const n = 5000
	var order []int
	for i := 0; i < n; i++ {
		// Two tied instants interleaved to stress the comparator.
		at(e, Time(i%2), func() { order = append(order, i) })
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("fired %d of %d", len(order), n)
	}
	// All t=0 events (even i) in scheduling order, then all t=1 (odd).
	want := 0
	for k := 0; k < n/2; k++ {
		if order[k] != want {
			t.Fatalf("t=0 event %d fired as %d, want %d", k, order[k], want)
		}
		want += 2
	}
	want = 1
	for k := n / 2; k < n; k++ {
		if order[k] != want {
			t.Fatalf("t=1 event %d fired as %d, want %d", k, order[k], want)
		}
		want += 2
	}
}

// Event pool reuse after Stop: stopping mid-run must leave queued
// events intact, and recycled slots from the executed prefix must not
// corrupt the remainder when the run resumes.
func TestEventReuseAfterStop(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		at(e, Time(i), func() {
			order = append(order, i)
			if i == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if len(order) != 5 || e.Pending() != 5 {
		t.Fatalf("after stop: order=%v pending=%d", order, e.Pending())
	}
	// Schedule more events; their bodies reuse slots recycled by the
	// first half.
	for i := 10; i < 15; i++ {
		at(e, Time(i), func() { order = append(order, i) })
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("resumed order = %v, want %v", order, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
}

// Scheduling at the current instant from inside a callback must run
// within the same Run, after events already queued for that instant.
func TestScheduleAtCurrentInstantFromCallback(t *testing.T) {
	e := NewEngine()
	var order []string
	at(e, 1, func() {
		order = append(order, "a")
		at(e, e.Now(), func() { order = append(order, "a-now") })
		at(e, e.Now(), func() { order = append(order, "a-now-2") })
	})
	at(e, 1, func() { order = append(order, "b") })
	at(e, 2, func() { order = append(order, "c") })
	e.Run()
	want := []string{"a", "b", "a-now", "a-now-2", "c"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// Events with different callbacks interleave in strict scheduling order
// at tied times, and AtFunc passes its context and arguments through.
func TestAtFuncOrderingAndArgs(t *testing.T) {
	e := NewEngine()
	type rec struct {
		tag string
		a   int
		b   int
	}
	var got []rec
	ctx := &got
	cb := func(c any, a, b int) {
		g := c.(*[]rec)
		*g = append(*g, rec{"f", a, b})
	}
	e.AtFunc(1, cb, ctx, 1, 2)
	at(e, 1, func() { got = append(got, rec{tag: "c"}) })
	e.AtFunc(1, cb, ctx, 3, 4)
	e.Run()
	want := []rec{{"f", 1, 2}, {tag: "c"}, {"f", 3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// RunUntil leaves later events queued with their bodies intact; a
// subsequent Run executes them in order with the pool warm.
func TestRunUntilPreservesPooledEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 20; i++ {
		at(e, Time(i), func() { order = append(order, i) })
	}
	if got := e.RunUntil(9.5); got != 9.5 {
		t.Fatalf("RunUntil = %v", got)
	}
	if len(order) != 10 || e.Pending() != 10 {
		t.Fatalf("after RunUntil: fired=%d pending=%d", len(order), e.Pending())
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

// streamScenario runs n arrivals, at sorted times drawn from a tiny
// alphabet (so many tie), among other events scheduled before and after
// them, with every event sometimes scheduling children at the current
// or a later instant, and returns the firing order. Up front, every
// arrival is scheduled with AtFunc before the run; chained, ReserveSeq
// numbers them and each arrival schedules the next with AtFuncSeq, at
// the start of its callback or at its end (late).
func streamScenario(seed int64, n int, chained, late bool) []int {
	e := NewEngine()
	rng := rand.New(rand.NewSource(seed))
	times := []Time{0, 0, 0.25, 0.5, 0.5, 1, 2}
	arrivals := make([]Time, n)
	for i := range arrivals {
		arrivals[i] = times[rng.Intn(len(times))]
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	var order []int
	next := 2 * n
	var spawn func(id int)
	var first uint64
	var arrive func(i int)
	spawn = func(id int) {
		order = append(order, id)
		if rng.Intn(3) != 0 || next > 4*n {
			return
		}
		for _, at := range []Time{e.Now(), e.Now() + times[rng.Intn(len(times))]} {
			child := next
			next++
			e.AtFunc(at, func(any, int, int) { spawn(child) }, nil, 0, 0)
		}
	}
	arrive = func(i int) {
		chain := func() {
			if chained && i+1 < n {
				e.AtFuncSeq(arrivals[i+1], first+uint64(i+1), func(any, int, int) { arrive(i + 1) }, nil, 0, 0)
			}
		}
		if !late {
			chain()
		}
		spawn(i)
		if late {
			chain()
		}
	}
	other := func(k int) {
		id := n + k
		e.AtFunc(times[rng.Intn(len(times))], func(any, int, int) { spawn(id) }, nil, 0, 0)
	}
	for k := 0; k < n/2; k++ {
		other(k)
	}
	if chained {
		first = e.ReserveSeq(n)
		e.AtFuncSeq(arrivals[0], first, func(any, int, int) { arrive(0) }, nil, 0, 0)
	} else {
		for i := range arrivals {
			i := i
			e.AtFunc(arrivals[i], func(any, int, int) { arrive(i) }, nil, 0, 0)
		}
	}
	for k := n / 2; k < n; k++ {
		other(k)
	}
	e.Run()
	return order
}

// Arrivals streamed one at a time under reserved sequence numbers fire
// in exactly the order they fire in when all are scheduled up front:
// equal-time ties among themselves and with other events, and events
// scheduled meanwhile, included.
func TestReservedSeqStreamMatchesUpFront(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		want := streamScenario(seed, 40, false, false)
		for _, late := range []bool{false, true} {
			if got := streamScenario(seed, 40, true, late); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (late %v): chained order diverged from up-front order:\n got %v\nwant %v", seed, late, got, want)
			}
		}
	}
}

// AtFuncSeq refuses a number ReserveSeq never handed out.
func TestAtFuncSeqUnreservedPanics(t *testing.T) {
	e := NewEngine()
	first := e.ReserveSeq(2)
	e.AtFunc(0, func(any, int, int) {}, nil, 0, 0)
	for _, seq := range []uint64{0, first + 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AtFuncSeq under unreserved number %d did not panic", seq)
				}
			}()
			e.AtFuncSeq(1, seq, func(any, int, int) {}, nil, 0, 0)
		}()
	}
}
