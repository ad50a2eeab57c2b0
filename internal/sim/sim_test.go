package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// at schedules fn at time t: a closure passed to AtFunc as its
// EventFunc.
func at(e *Engine, t Time, fn func()) {
	e.AtFunc(t, func(any, int, int) { fn() }, nil, 0, 0)
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, when := range []Time{3, 1, 2, 5, 4} {
		at(e, when, func() { got = append(got, when) })
	}
	end := e.Run()
	if end != 5 {
		t.Fatalf("final time = %v, want 5", end)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		at(e, 1, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order not FIFO: %v", got)
		}
	}
}

// Events a callback schedules at Now() and Now()+2 run after it: the
// first at the same instant, the second two seconds later.
func TestEngineAfterAndImmediately(t *testing.T) {
	e := NewEngine()
	var order []string
	at(e, 1, func() {
		at(e, e.Now(), func() { order = append(order, "imm") })
		at(e, e.Now()+2, func() { order = append(order, "after") })
		order = append(order, "first")
	})
	e.Run()
	want := []string{"first", "imm", "after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %v, want 3", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	at(e, 5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		at(e, 1, func() {})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	at(e, 1, func() { n++; e.Stop() })
	at(e, 2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("ran %d events before stop, want 1", n)
	}
	// Run again resumes with remaining events.
	e.Run()
	if n != 2 {
		t.Fatalf("ran %d events total, want 2", n)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, when := range []Time{1, 2, 3, 4} {
		at(e, when, func() { fired = append(fired, when) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=2.5, want 2", len(fired))
	}
	if e.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestEngineRunBefore(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, when := range []Time{1, 2, 3, 4} {
		at(e, when, func() { fired = append(fired, when) })
	}
	// Strict horizon: the event at t=3 stays pending, and the clock
	// parks at the last executed event, not at the horizon.
	e.RunBefore(3)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before t=3, want 2", len(fired))
	}
	if e.Now() != 2 {
		t.Fatalf("clock = %v after RunBefore(3), want 2", e.Now())
	}
	if got := e.NextEventTime(); got != 3 {
		t.Fatalf("NextEventTime = %v, want 3", got)
	}
	// Events cascading inside the window still run: an event at 3.5
	// scheduling one at 3.75 drains both under RunBefore(4).
	at(e, 3.5, func() { at(e, 3.75, func() { fired = append(fired, 3.75) }) })
	e.RunBefore(4)
	if len(fired) != 4 || fired[3] != 3.75 {
		t.Fatalf("fired = %v, want cascade through 3.75", fired)
	}
	e.Run()
	if e.NextEventTime() != Infinity {
		t.Fatalf("NextEventTime on empty queue = %v, want Infinity", e.NextEventTime())
	}
}

func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	at(e, 1, func() {})
	e.RunBefore(2)
	e.AdvanceTo(2)
	if e.Now() != 2 {
		t.Fatalf("clock = %v after AdvanceTo(2), want 2", e.Now())
	}
	// Advancing onto a pending event's instant is allowed (the event
	// can still fire at now); advancing past it must panic.
	at(e, 3, func() {})
	e.AdvanceTo(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdvanceTo past a pending event did not panic")
			}
		}()
		e.AdvanceTo(3.5)
	}()
	e.Run()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdvanceTo into the past did not panic")
			}
		}()
		e.AdvanceTo(1)
	}()
}

func TestEngineMaxStepsGuard(t *testing.T) {
	e := NewEngine()
	e.MaxSteps = 100
	var loop EventFunc
	loop = func(any, int, int) { e.AtFunc(e.Now(), loop, nil, 0, 0) }
	e.AtFunc(0, loop, nil, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("livelock did not trip MaxSteps panic")
		}
	}()
	e.Run()
}

func TestResourceFIFOAndBusyTime(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	s1, e1 := r.Acquire(0, 2)
	s2, e2 := r.Acquire(0, 3)
	s3, e3 := r.Acquire(10, 1)
	if s1 != 0 || e1 != 2 {
		t.Fatalf("first interval [%v,%v], want [0,2]", s1, e1)
	}
	if s2 != 2 || e2 != 5 {
		t.Fatalf("second interval [%v,%v], want [2,5] (FIFO queue)", s2, e2)
	}
	if s3 != 10 || e3 != 11 {
		t.Fatalf("third interval [%v,%v], want [10,11] (respects readyAt)", s3, e3)
	}
	if r.BusyTime() != 6 {
		t.Fatalf("busy time = %v, want 6", r.BusyTime())
	}
}

// Rewind restores the marked state exactly, where subtracting the
// undone work would not: 0.1 + 0.2 - 0.2 is not 0.1 in float64.
func TestResourceRewindIsExact(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Acquire(0, 0.1)
	m := r.Mark()
	free, busy := r.FreeAt(), r.BusyTime()
	r.Acquire(0, 0.2)
	r.Occupy(5)
	if busy+0.2-0.2 == busy {
		t.Fatal("durations no longer show float rounding; pick others")
	}
	r.Rewind(m)
	if r.FreeAt() != free || r.BusyTime() != busy {
		t.Errorf("rewound to free %v busy %v, want %v and %v", r.FreeAt(), r.BusyTime(), free, busy)
	}
	if s, _ := r.Acquire(0, 1); s != free {
		t.Errorf("first reservation after the rewind starts at %v, want %v", s, free)
	}
}

// Property: however events are scheduled, they execute in nondecreasing
// time order and the engine clock never moves backwards.
func TestEventOrderProperty(t *testing.T) {
	prop := func(times []float64) bool {
		e := NewEngine()
		var fired []Time
		for _, raw := range times {
			when := Time(raw)
			if when < 0 {
				when = -when
			}
			if when > 1e12 {
				continue
			}
			at(e, when, func() { fired = append(fired, when) })
		}
		e.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a resource never overlaps two work items and its busy time
// equals the sum of the requested durations.
func TestResourceNoOverlapProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e)
		var prevEnd Time
		var total Duration
		for i := 0; i < int(n%50); i++ {
			ready := Time(rng.Float64() * 100)
			dur := rng.Float64() * 10
			s, en := r.Acquire(ready, dur)
			if s < prevEnd || en < s || s < ready {
				return false
			}
			prevEnd = en
			total += dur
		}
		return r.BusyTime() == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
