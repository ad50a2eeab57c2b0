package runtime

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// stageTimes are one decode pass's per-stage timings through an idle
// pipeline: input landing, which is also the compute start, and end.
type stageTimes struct {
	landed, end []sim.Time
}

// idlePass times a decode pass submitted at 0 on an idle cluster by
// hand, adding in the order the resources do.
func idlePass(c *Cluster, batch, kv int) stageTimes {
	var t stageTimes
	at := sim.Time(0)
	for st := 0; st < c.World(); st++ {
		if st > 0 {
			at += sim.Time(c.Cost.P2PActivation(batch))
		}
		t.landed = append(t.landed, at)
		at += sim.Time(c.Cost.DecodeStage(st, batch, kv))
		t.end = append(t.end, at)
	}
	return t
}

// A stall that lands between the stages of an in-flight pass delays
// only the stages whose input has not landed yet: stages already
// reached keep their times, the rest start after the downtime, and the
// completion callback fires at the re-timed End. A second stall that
// lands while the first is still re-timing the pass shifts the stages
// that remain unreached at its own instant.
func TestStallRetimesUnreachedStages(t *testing.T) {
	const batch, kv, world = 8, 960, 4
	type stall struct {
		at  sim.Time
		dur float64
	}
	nominal := idlePass(newTestCluster(t, world), batch, kv)
	// The first stall lands mid-way through stage 1's compute, so
	// stages 0 and 1 are reached and stages 2 and 3 are not.
	first := stall{at: (nominal.landed[1] + nominal.end[1]) / 2, dur: 0.5}
	resume := first.at + sim.Time(first.dur)
	cases := []struct {
		name   string
		stalls []stall
		// want returns the expected stage starts given the stage
		// durations and the link transfer time.
		want func(d []float64, x float64) []sim.Time
	}{
		{
			name:   "one stall",
			stalls: []stall{first},
			want: func(d []float64, x float64) []sim.Time {
				s2 := resume // stage 2's input lands inside the downtime
				s3 := s2 + sim.Time(d[2]) + sim.Time(x)
				return []sim.Time{0, nominal.landed[1], s2, s3}
			},
		},
		{
			// Stage 2's input has landed by the second stall (it
			// waits for the first stall's downtime), so only stage 3
			// moves again.
			name:   "second stall after stage 2 landed",
			stalls: []stall{first, {at: first.at + sim.Time(first.dur/2), dur: 0.25}},
			want: func(d []float64, x float64) []sim.Time {
				s2 := resume
				s3 := resume + sim.Time(0.25)
				return []sim.Time{0, nominal.landed[1], s2, s3}
			},
		},
		{
			// The second stall lands before stage 2's input does:
			// stages 2 and 3 are still unreached and wait out both
			// downtimes.
			name: "second stall before stage 2 landed",
			stalls: []stall{first, {
				at:  (first.at + nominal.landed[2]) / 2,
				dur: 0.25,
			}},
			want: func(d []float64, x float64) []sim.Time {
				s2 := resume + sim.Time(0.25)
				s3 := s2 + sim.Time(d[2]) + sim.Time(x)
				return []sim.Time{0, nominal.landed[1], s2, s3}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, world)
			var got PassResult
			var firedAt sim.Time
			calls := 0
			c.SubmitDecode(batch, kv, 0, func(r PassResult) {
				calls++
				firedAt = c.Eng.Now()
				got = r
				got.StageEnds = append([]sim.Time(nil), r.StageEnds...) // recycled after return
			})
			for _, s := range tc.stalls {
				schedule(c.Eng, s.at, func() { c.Stall(s.at, s.dur) })
			}
			c.Eng.Run()
			if calls != 1 {
				t.Fatalf("completion fired %d times, want 1", calls)
			}
			d := make([]float64, world)
			for st := range d {
				d[st] = c.Cost.DecodeStage(st, batch, kv)
			}
			starts := tc.want(d, c.Cost.P2PActivation(batch))
			for st := 0; st < world; st++ {
				want := starts[st] + sim.Time(d[st])
				if got.StageEnds[st] != want {
					t.Errorf("stage %d ended at %v, want %v", st, got.StageEnds[st], want)
				}
			}
			for st := 0; st < 2; st++ {
				if got.StageEnds[st] != nominal.end[st] {
					t.Errorf("reached stage %d moved: ended at %v, nominal %v", st, got.StageEnds[st], nominal.end[st])
				}
			}
			if got.End != got.StageEnds[world-1] || firedAt != got.End {
				t.Errorf("completion fired at %v with End %v, want both at last stage end %v",
					firedAt, got.End, got.StageEnds[world-1])
			}
			for st := 0; st < world; st++ {
				iv := c.Rec.Intervals(st)
				if len(iv) != 1 || iv[0].Start != float64(starts[st]) || iv[0].End != float64(got.StageEnds[st]) {
					t.Errorf("gpu %d busy intervals %v, want one [%v, %v]", st, iv, starts[st], got.StageEnds[st])
				}
			}
		})
	}
}

// schedule runs fn at time t on eng: a closure passed to AtFunc as its
// EventFunc.
func schedule(eng *sim.Engine, t sim.Time, fn func()) {
	eng.AtFunc(t, func(any, int, int) { fn() }, nil, 0, 0)
}

// hopModel is a reference pipeline timer that reserves each stage only
// when its input lands, as a kernel event of its own, so a stall
// reaches exactly the stages its instant has not. The cluster must
// produce the same times.
type hopModel struct {
	eng         *sim.Engine
	c           *Cluster // for the cost model and plan only
	gpus, links []sim.Resource
	busy        [][][2]sim.Time
	inflight    int
}

func newHopModel(c *Cluster) *hopModel {
	m := &hopModel{eng: sim.NewEngine(), c: c, busy: make([][][2]sim.Time, c.World())}
	for i := 0; i < c.World(); i++ {
		m.gpus = append(m.gpus, *sim.NewResource(m.eng))
		if i < c.World()-1 {
			m.links = append(m.links, *sim.NewResource(m.eng))
		}
	}
	return m
}

func (m *hopModel) submit(batch, kv int, readyAt sim.Time, done func(starts, ends []sim.Time)) {
	m.inflight++
	m.stage(batch, kv, 0, readyAt, make([]sim.Time, 0, len(m.gpus)), make([]sim.Time, 0, len(m.gpus)), done)
}

func (m *hopModel) stage(batch, kv, st int, arrival sim.Time, starts, ends []sim.Time, done func(starts, ends []sim.Time)) {
	start, end := m.gpus[st].Acquire(arrival, m.c.Cost.DecodeStage(st, batch, kv))
	starts, ends = append(starts, start), append(ends, end)
	if st == len(m.gpus)-1 {
		schedule(m.eng, end, func() {
			m.inflight--
			done(starts, ends)
			for g := range starts {
				m.busy[g] = append(m.busy[g], [2]sim.Time{starts[g], ends[g]})
			}
		})
		return
	}
	_, landed := m.links[st].Acquire(end, m.c.Cost.P2PActivation(batch))
	schedule(m.eng, landed, func() { m.stage(batch, kv, st+1, landed, starts, ends, done) })
}

func (m *hopModel) stall(at sim.Time, dur float64) {
	for i := range m.gpus {
		from := m.gpus[i].FreeAt()
		if at > from {
			from = at
		}
		m.gpus[i].Occupy(from + sim.Time(dur))
	}
}

// completion is one pass completion as its callback saw it: the pass,
// the instant, and the pass's start and stage ends.
type completion struct {
	id        int
	at, start sim.Time
	ends      [4]sim.Time
}

// Random decode passes and stalls, most stalls landing on passes in
// flight and some while earlier stalls are still re-timing them, must
// give the same completions (order, instants, stage ends), busy
// intervals and resource state as the per-hop reference.
func TestStallMatchesPerHopReference(t *testing.T) {
	midPass := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCluster(t, 4)
		ref := newHopModel(c)
		var got, want []completion
		at := sim.Time(0)
		// A pass takes about 0.9 ms; arrivals every 0.15 ms keep
		// several in flight.
		for op := 0; op < 80; op++ {
			at += sim.Time(rng.ExpFloat64() * 1.5e-4)
			at := at
			if rng.Intn(4) == 0 {
				dur := rng.ExpFloat64() * 5e-4
				schedule(c.Eng, at, func() { c.Stall(at, dur) })
				schedule(ref.eng, at, func() {
					if ref.inflight > 0 {
						midPass++
					}
					ref.stall(at, dur)
				})
				continue
			}
			id, batch, kv := op, 1+rng.Intn(64), rng.Intn(4096)
			ready := at + sim.Time(rng.Float64()*1e-3)
			schedule(c.Eng, at, func() {
				c.SubmitDecode(batch, kv, ready, func(r PassResult) {
					if r.End != r.StageEnds[3] {
						t.Errorf("seed %d: pass %d End %v, last stage end %v", seed, id, r.End, r.StageEnds[3])
					}
					got = append(got, completion{id, c.Eng.Now(), r.Start, [4]sim.Time(r.StageEnds)})
				})
			})
			schedule(ref.eng, at, func() {
				ref.submit(batch, kv, ready, func(starts, ends []sim.Time) {
					want = append(want, completion{id, ref.eng.Now(), starts[0], [4]sim.Time(ends)})
				})
			})
		}
		c.Eng.Run()
		ref.eng.Run()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d completions, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: completion %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		for g := 0; g < 4; g++ {
			if c.GPUs[g].FreeAt() != ref.gpus[g].FreeAt() || c.GPUs[g].BusyTime() != ref.gpus[g].BusyTime() {
				t.Errorf("seed %d: gpu %d free %v busy %v, reference free %v busy %v", seed, g,
					c.GPUs[g].FreeAt(), c.GPUs[g].BusyTime(), ref.gpus[g].FreeAt(), ref.gpus[g].BusyTime())
			}
			iv := c.Rec.Intervals(g)
			if len(iv) != len(ref.busy[g]) {
				t.Fatalf("seed %d: gpu %d recorded %d intervals, reference %d", seed, g, len(iv), len(ref.busy[g]))
			}
			for k, b := range ref.busy[g] {
				if iv[k].Start != float64(b[0]) || iv[k].End != float64(b[1]) {
					t.Errorf("seed %d: gpu %d interval %d = %v, reference %v", seed, g, k, iv[k], b)
				}
			}
			if g < 3 && (c.Links[g].FreeAt() != ref.links[g].FreeAt() || c.Links[g].BusyTime() != ref.links[g].BusyTime()) {
				t.Errorf("seed %d: link %d differs from reference", seed, g)
			}
		}
	}
	if midPass < 300 {
		t.Errorf("only %d stalls landed with passes in flight; the schedule no longer exercises re-timing", midPass)
	}
}
