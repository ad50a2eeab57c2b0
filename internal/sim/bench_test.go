package sim

import "testing"

// BenchmarkEventThroughputAtFunc measures raw event dispatch rate — the
// DES kernel's hot path — and reports it as steps/sec. Steady state is
// allocation-free: the callback is shared and event bodies recycle
// through the arena.
func BenchmarkEventThroughputAtFunc(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick EventFunc
	tick = func(ctx any, _, _ int) {
		n++
		if n < b.N {
			e.AtFunc(e.Now()+1, tick, ctx, 0, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.AtFunc(1, tick, e, 0, 0)
	e.Run()
	b.ReportMetric(float64(e.Steps())/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkResourceAcquire measures FIFO reservation cost.
func BenchmarkResourceAcquire(b *testing.B) {
	e := NewEngine()
	r := NewResource(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(Time(i), 0.5)
	}
}

// BenchmarkHeapChurn measures interleaved scheduling at many distinct
// times with the full b.N backlog queued at once (worst case for the
// event heap: every sift walks a deep, cache-cold tree).
func BenchmarkHeapChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i % 1024)
		e.AtFunc(t+Time(b.N), func(any, int, int) {}, nil, 0, 0)
	}
	e.Run()
}

// BenchmarkSteadyChurn measures the simulator's realistic regime: a
// bounded pending set (as produced by in-flight pipeline passes and
// arrivals) with one push per pop.
func BenchmarkSteadyChurn(b *testing.B) {
	e := NewEngine()
	const pending = 1024
	n := 0
	var tick EventFunc
	tick = func(ctx any, i, _ int) {
		n++
		if n+pending <= b.N {
			e.AtFunc(e.Now()+Time(1+i%7), tick, ctx, i, 0)
		}
	}
	for i := 0; i < pending && i < b.N; i++ {
		e.AtFunc(Time(1+i%7), tick, e, i, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(e.Steps())/b.Elapsed().Seconds(), "steps/s")
}
