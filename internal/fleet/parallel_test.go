package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
)

// The headline guarantee of the parallel fabric: for every router,
// reports and per-request records are byte-identical across worker
// counts. Sequential (workers=1) is the reference; 2/4/8 must match it
// bit for bit.

var workerSweep = []int{2, 4, 8}

func fullJSON(t *testing.T, report, records any) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Report  any
		Records any
	}{report, records})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParallelOnlineByteIdenticalToSequential(t *testing.T) {
	cfg := fastConfig(2)
	reqs := workload.StampArrivals(smallTrace(400, 3), workload.Poisson{Rate: 300}, 9)
	run := func(workers int) []byte {
		res, err := Serve(cfg, reqs, ServeConfig{Replicas: 8, Policy: mustPolicy(t, PredictedCost, Options{Seed: 1}), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fullJSON(t, res.Report, res.Records)
	}
	seq := run(1)
	for _, w := range workerSweep {
		if got := run(w); !bytes.Equal(seq, got) {
			t.Errorf("workers=%d diverges from sequential:\n%s\n%s", w, seq, got)
		}
	}
}

func TestParallelPrefixAffinityByteIdenticalToSequential(t *testing.T) {
	cfg := fastConfig(2)
	reqs := prefixOnlineTrace(300, 41, 8000, 32, 512)
	run := func(workers int) []byte {
		res, err := Serve(cfg, reqs, ServeConfig{Replicas: 8, Policy: mustPolicy(t, PrefixAffinity, Options{}), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fullJSON(t, res.Report, res.Records)
	}
	seq := run(1)
	for _, w := range workerSweep {
		if got := run(w); !bytes.Equal(seq, got) {
			t.Errorf("workers=%d diverges from sequential:\n%s\n%s", w, seq, got)
		}
	}
}

func TestParallelDisaggByteIdenticalToSequential(t *testing.T) {
	cfg := fastConfig(2)
	reqs := workload.StampArrivals(smallTrace(300, 7), workload.Poisson{Rate: 500}, 13)
	run := func(workers int) []byte {
		dc := DisaggConfig{PrefillReplicas: 4, DecodeReplicas: 4, Workers: workers}
		res, err := RunDisagg(cfg, dc, reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Workers != 1 {
			t.Errorf("workers=%d: split fleet ran on %d workers, want 1", workers, res.Workers)
		}
		return fullJSON(t, res.Report, res.Records)
	}
	seq := run(1)
	for _, w := range workerSweep {
		if got := run(w); !bytes.Equal(seq, got) {
			t.Errorf("workers=%d diverges from sequential:\n%s\n%s", w, seq, got)
		}
	}
}

func TestParallelOnlineFaultsByteIdenticalToSequential(t *testing.T) {
	cfg := fastConfig(2)
	const replicas = 8
	reqs := faultTrace(200, 11)
	fc := faults.Config{
		Seed: 5, Horizon: 0.2, MTBF: 0.04, RestartDelay: 0.02,
		Stragglers: 2, StragglerFactor: 1.3,
		CheckpointInterval: 0.02,
	}
	plan, err := faults.NewPlan(fc, replicas, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		res, err := Serve(cfg, reqs, ServeConfig{Replicas: replicas, Policy: mustPolicy(t, LeastWork, Options{}), Workers: workers, Faults: plan})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkConservation(t, res, len(reqs), res.Report.Faults.Dropped)
		return fullJSON(t, res.Report, res.Records)
	}
	seq := run(1)
	for _, w := range workerSweep {
		if got := run(w); !bytes.Equal(seq, got) {
			t.Errorf("workers=%d diverges from sequential:\n%s\n%s", w, seq, got)
		}
	}
}

func TestParallelDisaggFaultsByteIdenticalToSequential(t *testing.T) {
	cfg := fastConfig(2)
	dc := DisaggConfig{PrefillReplicas: 3, DecodeReplicas: 5}
	reqs := faultTrace(200, 23)
	base, err := RunDisagg(cfg, dc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	fc := faults.Config{
		Seed:               3,
		Horizon:            base.Report.Elapsed,
		MTBF:               base.Report.Elapsed / 3,
		RestartDelay:       base.Report.Elapsed / 10,
		LinkDegradeFrac:    0.3,
		LinkDegradeFactor:  4,
		LinkPartitionFrac:  0.2,
		CheckpointInterval: base.Report.Elapsed / 8,
	}
	plan, err := faults.NewPlan(fc, dc.PrefillReplicas+dc.DecodeReplicas, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		wdc := dc
		wdc.Workers, wdc.Faults = workers, plan
		res, err := RunDisagg(cfg, wdc, reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fullJSON(t, res.Report, res.Records)
	}
	seq := run(1)
	for _, w := range workerSweep {
		if got := run(w); !bytes.Equal(seq, got) {
			t.Errorf("workers=%d diverges from sequential:\n%s\n%s", w, seq, got)
		}
	}
}

// Cross-shard-boundary property test: random traces engineered so that
// crashes and KV hand-offs land exactly on epoch horizons (crash
// instants coincide with arrival instants, restores with later
// arrivals), then every worker count 1..8 must produce byte-identical
// results and preserve exactly-once conservation. This drives the
// fabric's nastiest corners: control events tied at one instant,
// transfer completions rewinding the decode horizon mid-epoch, and
// lockstep placement during drained-pending windows.
func TestParallelCrossShardBoundaryProperty(t *testing.T) {
	cfg := fastConfig(2)
	for _, seed := range []int64{1, 2, 3} {
		reqs := workload.StampArrivals(smallTrace(120, seed), workload.Poisson{Rate: 1500}, seed+31)
		// Plant crashes exactly at arrival instants (the epoch
		// horizons of the fabric) and restores at later arrivals.
		n := len(reqs)
		plan := &faults.Plan{
			Replicas: 6,
			Config:   faults.Config{Seed: seed, MaxRetries: 4, CheckpointInterval: 0.01},
			Crashes: []faults.Crash{
				{Replica: 1, At: reqs[n/4].ArrivalTime, RestartAt: reqs[n/2].ArrivalTime},
				{Replica: 4, At: reqs[n/3].ArrivalTime, RestartAt: reqs[2*n/3].ArrivalTime},
			},
		}
		online := func(workers int) []byte {
			res, err := Serve(cfg, reqs, ServeConfig{Replicas: 6, Policy: mustPolicy(t, LeastWork, Options{}), Workers: workers, Faults: plan})
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			checkConservation(t, res, len(reqs), res.Report.Faults.Dropped)
			return fullJSON(t, res.Report, res.Records)
		}
		disagg := func(workers int) []byte {
			dc := DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 4, Workers: workers, Faults: plan}
			res, err := RunDisagg(cfg, dc, reqs)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			if got := res.Report.Requests + res.Report.Faults.Dropped; got != len(reqs) {
				t.Fatalf("seed %d workers=%d: finished %d + dropped %d != %d",
					seed, workers, res.Report.Requests, res.Report.Faults.Dropped, len(reqs))
			}
			return fullJSON(t, res.Report, res.Records)
		}
		seqOnline, seqDisagg := online(1), disagg(1)
		for w := 2; w <= 8; w++ {
			if got := online(w); !bytes.Equal(seqOnline, got) {
				t.Errorf("seed %d: online workers=%d diverges from sequential", seed, w)
			}
			if got := disagg(w); !bytes.Equal(seqDisagg, got) {
				t.Errorf("seed %d: disagg workers=%d diverges from sequential", seed, w)
			}
		}
	}
}

// Satellite: invalid arrival stamps are rejected up front with a
// documented error, consistently across both entry points with and
// without the fault layer — never silently clamped to t=0.
func TestInvalidArrivalsRejectedByAllRouters(t *testing.T) {
	cfg := fastConfig(2)
	plan := &faults.Plan{
		Replicas: 2,
		Config:   faults.Config{Seed: 1},
		Crashes:  []faults.Crash{{Replica: 0, At: 0.01, RestartAt: 0.02}},
	}
	dc := DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 1}
	routers := []struct {
		name string
		run  func(reqs []workload.Request) error
	}{
		{"Serve", func(reqs []workload.Request) error {
			_, err := Serve(cfg, reqs, ServeConfig{Replicas: 2, Policy: mustPolicy(t, RoundRobin, Options{})})
			return err
		}},
		{"Serve with faults", func(reqs []workload.Request) error {
			_, err := Serve(cfg, reqs, ServeConfig{Replicas: 2, Policy: mustPolicy(t, RoundRobin, Options{}), Faults: plan})
			return err
		}},
		{"RunDisagg", func(reqs []workload.Request) error {
			_, err := RunDisagg(cfg, dc, reqs)
			return err
		}},
		{"RunDisagg with faults", func(reqs []workload.Request) error {
			fdc := dc
			fdc.Faults = plan
			_, err := RunDisagg(cfg, fdc, reqs)
			return err
		}},
	}
	cases := []struct {
		name    string
		stamp   float64
		wantErr bool
	}{
		{"negative", -0.5, true},
		{"nan", math.NaN(), true},
		{"zero", 0, false},
		{"positive", 0.25, false},
	}
	for _, rt := range routers {
		for _, tc := range cases {
			reqs := workload.StampArrivals(smallTrace(10, 3), workload.Poisson{Rate: 100}, 7)
			reqs[4].ArrivalTime = tc.stamp
			err := rt.run(reqs)
			if tc.wantErr {
				if !errors.Is(err, ErrInvalidArrival) {
					t.Errorf("%s/%s: err = %v, want ErrInvalidArrival", rt.name, tc.name, err)
				}
			} else if err != nil {
				t.Errorf("%s/%s: unexpected error %v", rt.name, tc.name, err)
			}
		}
	}
}

// TestParallelForEachCoversEveryReplica holds forEach to its split:
// every replica of a single- or two-tier fabric runs exactly once, on
// the calling goroutine with one worker, and otherwise in one
// contiguous block per worker goroutine. Each call writes only its
// replica's slots, so under the race detector a replica run on two
// goroutines also shows as a race.
func TestParallelForEachCoversEveryReplica(t *testing.T) {
	self := goroutineID()
	for n := 1; n <= 17; n++ {
		for tiers := 1; tiers <= min(2, n); tiers++ {
			for w := 1; w <= 8; w++ {
				f := newFabric(ResolveWorkers(w, n))
				f.addTier(0, n-(tiers-1)*n/2)
				if tiers == 2 {
					f.addTier(1, n/2)
				}
				calls, gids := make([]int, n), make([]uint64, n)
				f.forEach(func(g int) {
					calls[g]++
					gids[g] = goroutineID()
				})
				name := fmt.Sprintf("replicas=%d tiers=%d workers=%d", n, tiers, f.workers)
				blocks, seen := 0, map[uint64]bool{}
				for g := range calls {
					if calls[g] != 1 {
						t.Errorf("%s: replica %d ran %d times, want 1", name, g, calls[g])
					}
					if g > 0 && gids[g] == gids[g-1] {
						continue
					}
					if seen[gids[g]] {
						t.Errorf("%s: replica %d runs on a goroutine outside its block", name, g)
					}
					seen[gids[g]] = true
					blocks++
				}
				if blocks != f.workers || (f.workers == 1) != (gids[0] == self) {
					t.Errorf("%s: %d goroutine blocks (caller's first: %v), want one per worker, the caller's only when sequential", name, blocks, gids[0] == self)
				}
			}
		}
	}
}

// goroutineID parses the calling goroutine's id from its stack header
// ("goroutine 7 [running]:").
func goroutineID() uint64 {
	var buf [32]byte
	var id uint64
	fmt.Sscanf(string(buf[:runtime.Stack(buf[:], false)]), "goroutine %d ", &id)
	return id
}

func TestResolveWorkers(t *testing.T) {
	cases := []struct {
		workers, replicas, want int
	}{
		{0, 4, 1},
		{1, 4, 1},
		{8, 4, 4},   // capped at the fleet size
		{4, 100, 4}, // explicit request honored
		{WorkersAuto, AutoWorkerThreshold - 1, 1},
	}
	for _, tc := range cases {
		if got := ResolveWorkers(tc.workers, tc.replicas); got != tc.want {
			t.Errorf("ResolveWorkers(%d, %d) = %d, want %d", tc.workers, tc.replicas, got, tc.want)
		}
	}
	// Auto at or above the threshold resolves to at least one worker
	// per core, bounded by the fleet.
	got := ResolveWorkers(WorkersAuto, AutoWorkerThreshold)
	if got < 1 || got > AutoWorkerThreshold {
		t.Errorf("ResolveWorkers(auto, %d) = %d out of range", AutoWorkerThreshold, got)
	}
}
