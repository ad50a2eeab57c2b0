// Package fleet is the data-parallel serving layer: it shards a request
// trace across N concurrently-running TD-Pipe engine replicas and
// merges their per-replica reports into one fleet-level report. Each
// replica is a full core engine on its own virtual-time substrate, so
// replicas simulate independently and the fleet runs them on real
// goroutines; the merge is deterministic because replicas are combined
// in index order regardless of completion order.
//
// Dispatch is pluggable: a Policy picks a replica per request
// (round-robin, seeded random, least known work, or predicted-cost
// using the paper's output-length classifier), and policies are
// registered by name so binaries can select them via a flag.
package fleet

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Shard is the portion of a trace dispatched to one replica.
type Shard struct {
	// Reqs are the replica's requests, renumbered to the dense IDs the
	// core engine requires.
	Reqs []workload.Request
	// Origin[i] is the index in the dispatched trace of Reqs[i].
	Origin []int
}

// Dispatch shards reqs across replicas under policy p. Every request is
// assigned to exactly one shard; within a shard, requests keep their
// trace order and are renumbered 0..len-1.
func Dispatch(p Policy, replicas int, reqs []workload.Request) ([]Shard, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("fleet: replicas = %d", replicas)
	}
	if p == nil {
		return nil, fmt.Errorf("fleet: nil policy")
	}
	loads := make([]Load, replicas)
	shards := make([]Shard, replicas)
	// warmth[k][g] is the longest prefix of group g assigned to
	// replica k so far — the pre-shard's stand-in for live KV
	// residency (without engines there is nothing to probe).
	warmth := make([]map[int]int, replicas)
	for i, r := range reqs {
		for k := range loads {
			loads[k].WarmTokens = warmTokens(warmth[k], r)
		}
		k := p.Pick(r, loads)
		if k < 0 || k >= replicas {
			return nil, fmt.Errorf("fleet: policy %q picked replica %d of %d", p.Name(), k, replicas)
		}
		loads[k].Requests++
		loads[k].InputTokens += r.InputLen
		loads[k].CostTokens += p.Cost(r)
		if r.PrefixLen > 0 {
			if warmth[k] == nil {
				warmth[k] = make(map[int]int)
			}
			if plen := min(r.PrefixLen, r.InputLen); plen > warmth[k][r.PrefixGroup] {
				warmth[k][r.PrefixGroup] = plen
			}
		}
		r.ID = len(shards[k].Reqs)
		shards[k].Reqs = append(shards[k].Reqs, r)
		shards[k].Origin = append(shards[k].Origin, i)
	}
	return shards, nil
}

// warmTokens is the usable overlap between r's shared prefix and the
// longest same-group prefix recorded in m.
func warmTokens(m map[int]int, r workload.Request) int {
	if r.PrefixLen <= 0 || m == nil {
		return 0
	}
	return min(r.PrefixLen, r.InputLen, m[r.PrefixGroup])
}

// Result is the outcome of a fleet run.
type Result struct {
	// Report is the fleet-level aggregate: token counts summed,
	// Elapsed the slowest replica (replicas run concurrently), and
	// utilization averaged over all GPU-seconds of the fleet makespan.
	// Report.Latency digests the merged per-request records.
	Report metrics.Report
	// Replicas holds per-replica engine results in replica order.
	Replicas []*core.Result
	// Shards records the dispatch; Shards[i].Origin maps replica i's
	// requests back to indices in the dispatched trace.
	Shards []Shard
	// Records holds the merged per-request records, indexed by the
	// request's position in the dispatched trace (record ID == trace
	// index). The merge is deterministic and conservation-checked:
	// every trace position is covered by exactly one replica record.
	Records []metrics.RequestRecord
	// Policy is the dispatch policy name.
	Policy string
	// Steps counts the simulation events processed across the run's
	// engines (router timeline included for online runs). Dividing by
	// wall-clock time yields the simulator's steps/sec rate.
	Steps uint64
}

// Run executes reqs across replicas data-parallel copies of cfg under
// policy p. Each replica runs core.Run on its own goroutine and its own
// simulation; the aggregate is deterministic for a fixed trace, config
// and policy seed.
func Run(cfg core.Config, replicas int, p Policy, reqs []workload.Request) (*Result, error) {
	shards, err := Dispatch(p, replicas, reqs)
	if err != nil {
		return nil, err
	}
	results := make([]*core.Result, replicas)
	errs := make([]error, replicas)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		//det:ignore goroutine offline replicas run disjoint engines with no cross-talk; the WaitGroup join is the only synchronization and results land in slot order
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = core.Run(cfg, shards[i].Reqs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
	}
	res, err := assemble(cfg, p.Name(), reqs, results, shards)
	if err == nil {
		// Offline replicas own their engines, so per-replica step
		// counts sum without double counting.
		for _, r := range results {
			res.Steps += r.Steps
		}
	}
	return res, err
}

// assemble builds the offline pre-shard's merged result: the shard
// conservation check, then the ledger's record merge and report fold.
func assemble(cfg core.Config, policy string, reqs []workload.Request, results []*core.Result, shards []Shard) (*Result, error) {
	res := &Result{Replicas: results, Shards: shards, Policy: policy}
	if err := res.CheckConservation(len(reqs)); err != nil {
		return nil, err
	}
	led := newLedger(reqs)
	for i, sh := range shards {
		for j, o := range sh.Origin {
			led.final[o] = recRef{replica: i, local: j}
			led.fin[o]++
		}
	}
	var err error
	res.Report, res.Records, err = led.assemble(cfg, fmt.Sprintf("Fleet(TD-Pipe/%s)x%d", policy, len(results)), results, false)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// foldReport builds a fleet-level report, the one fold every fleet mode
// shares. Request and input-token counts cover the trace minus its
// dropped requests (dropped[origin] != ""), output tokens sum the
// merged records, per-replica counters sum, Elapsed and KVPeakUsage
// take the slowest and fullest replica, and utilization averages over
// all GPU-seconds of the fleet makespan. withFaults also folds the
// replicas' crash and checkpoint accounting.
func foldReport(cfg core.Config, scheduler string, reqs []workload.Request, dropped []string,
	results []*core.Result, records []metrics.RequestRecord, withFaults bool) metrics.Report {
	rep := metrics.Report{
		Scheduler: scheduler,
		Node:      cfg.Node.Name,
		Model:     cfg.Spec.Name,
		GPUs:      cfg.World * len(results),
	}
	for origin, r := range reqs {
		if dropped[origin] == "" {
			rep.Requests++
			rep.InputTokens += r.InputLen
		}
	}
	for _, rec := range records {
		rep.OutputTokens += rec.OutputTokens
	}
	var busy float64
	for _, r := range results {
		rr := r.Report
		rep.PhaseSwitches += rr.PhaseSwitches
		rep.Recomputes += rr.Recomputes
		rep.PrefixCachedTokens += rr.PrefixCachedTokens
		if withFaults {
			rep.Faults.Add(rr.Faults)
		}
		if rr.Elapsed > rep.Elapsed {
			rep.Elapsed = rr.Elapsed
		}
		if rr.KVPeakUsage > rep.KVPeakUsage {
			rep.KVPeakUsage = rr.KVPeakUsage
		}
		busy += rr.MeanUtilization * rr.Elapsed * float64(rr.GPUs)
	}
	if len(results) == 1 {
		// A single-replica fleet is the lone engine; copy its
		// utilization rather than round-tripping through the weighted
		// average (which costs one ulp).
		rep.MeanUtilization = results[0].Report.MeanUtilization
	} else if rep.Elapsed > 0 && rep.GPUs > 0 {
		rep.MeanUtilization = busy / (rep.Elapsed * float64(rep.GPUs))
	}
	rep.BubbleRatio = 1 - rep.MeanUtilization
	rep.Latency = metrics.Digest(records, cfg.SLO)
	return rep
}

// recRef locates the record of a request's final owner: the replica
// (indexed across every pool of the run) and its replica-local id.
type recRef struct{ replica, local int }

// ledger is the exactly-once bookkeeping of a routed run: who owns each
// request's record, how often it finished terminally, the retries spent
// on it and why it was dropped. Conservation is exactly one terminal
// finish XOR a drop reason for every trace request.
type ledger struct {
	reqs []workload.Request
	// final[origin] locates the record of origin's last owner.
	final []recRef
	// fin[origin] counts terminal finishes.
	fin []int
	// attempts[origin] counts the retries spent: crash re-dispatches
	// or admission retries.
	attempts []int
	// droppedReason[origin] is non-empty once origin is abandoned.
	droppedReason []string
	dropped       int
}

func newLedger(reqs []workload.Request) *ledger {
	return &ledger{
		reqs:          reqs,
		final:         make([]recRef, len(reqs)),
		fin:           make([]int, len(reqs)),
		attempts:      make([]int, len(reqs)),
		droppedReason: make([]string, len(reqs)),
	}
}

// drop abandons a request with a reason (idempotent).
func (l *ledger) drop(origin int, reason string) {
	if l.droppedReason[origin] == "" {
		l.droppedReason[origin] = reason
		l.dropped++
	}
}

// assemble runs the exactly-once-XOR-dropped conservation check, merges
// each request's final record into trace order and folds the report
// (see foldReport). results are indexed like recRef.replica.
func (l *ledger) assemble(cfg core.Config, scheduler string, results []*core.Result, withFaults bool) (metrics.Report, []metrics.RequestRecord, error) {
	records := make([]metrics.RequestRecord, len(l.reqs))
	for origin, ref := range l.final {
		switch f, dropped := l.fin[origin], l.droppedReason[origin] != ""; {
		case f == 1 && !dropped:
			rec := results[ref.replica].Records[ref.local]
			rec.ID = origin
			records[origin] = rec
		case f == 0 && dropped:
			// An unfinished zero record keeps the request in the
			// digest's denominator, so goodput pays for the loss.
			records[origin] = metrics.RequestRecord{ID: origin, Arrival: l.reqs[origin].ArrivalTime}
		case f > 1:
			return metrics.Report{}, nil, fmt.Errorf("fleet: request %d finished %d times", origin, f)
		case dropped:
			return metrics.Report{}, nil, fmt.Errorf("fleet: request %d both finished and dropped (%s)", origin, l.droppedReason[origin])
		default:
			return metrics.Report{}, nil, fmt.Errorf("fleet: request %d lost without a drop reason (fin=%d)", origin, f)
		}
	}
	return foldReport(cfg, scheduler, l.reqs, l.droppedReason, results, records, withFaults), records, nil
}

// CheckConservation verifies that each of n dispatched requests was
// assigned to exactly one replica and completed there: shard origins
// partition 0..n-1 and every replica reports exactly its shard size.
func (r *Result) CheckConservation(n int) error {
	if len(r.Shards) != len(r.Replicas) {
		return fmt.Errorf("fleet: %d shards but %d replica results", len(r.Shards), len(r.Replicas))
	}
	seen := make([]int, n)
	for i, sh := range r.Shards {
		if len(sh.Reqs) != len(sh.Origin) {
			return fmt.Errorf("fleet: replica %d has %d requests but %d origins", i, len(sh.Reqs), len(sh.Origin))
		}
		if got := r.Replicas[i].Report.Requests; got != len(sh.Reqs) {
			return fmt.Errorf("fleet: replica %d completed %d of %d requests", i, got, len(sh.Reqs))
		}
		for _, o := range sh.Origin {
			if o < 0 || o >= n {
				return fmt.Errorf("fleet: replica %d has origin %d outside trace of %d", i, o, n)
			}
			seen[o]++
		}
	}
	for idx, c := range seen {
		if c != 1 {
			return fmt.Errorf("fleet: request %d dispatched %d times", idx, c)
		}
	}
	return nil
}
