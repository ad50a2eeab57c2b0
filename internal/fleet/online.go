package fleet

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrInvalidArrival reports a trace whose arrival stamps cannot be
// scheduled: negative (before simulation start) or NaN. Serve
// validates the trace up front and returns this error (wrapped with
// the offending trace index) before any engine is built — a bad
// stamp is a workload bug, and silently clamping it to t=0 would
// reorder the trace behind the caller's back.
var ErrInvalidArrival = errors.New("fleet: invalid arrival time")

// validateArrivals rejects traces with negative or NaN arrival stamps.
// Closed-loop traces (all zeros) pass: zero is a valid instant.
func validateArrivals(reqs []workload.Request) error {
	for i := range reqs {
		if at := reqs[i].ArrivalTime; at < 0 || math.IsNaN(at) {
			return fmt.Errorf("%w: request %d arrives at %v; stamp traces with workload arrival processes or shift them to start at t >= 0", ErrInvalidArrival, i, at)
		}
	}
	return nil
}

// router is the fleet router, the one control path of every routed
// run. A colocated fleet is one pool; a disaggregated fleet is a
// prefill pool and a decode pool, joined by the KV transfer path
// (disagg.go). The base routes each request at its arrival instant into
// the first pool, keeps each pool's load counters and records ownership
// in the ledger. Two optional layers attach, alone or together: the
// fault layer (crash recovery under plan, faults.go) and the policy
// layer (pol, the policy stack, elastic.go). A nil layer means no hook
// call. Every intervention executes on the fabric's control timeline;
// only the engines' finish hooks may run on worker goroutines (in the
// fabric's tail, after the last control event), and there they touch
// replica-indexed slots exclusively.
type router struct {
	ctl  *sim.Engine
	fab  *fabric
	reqs []workload.Request
	led  *ledger
	// arrivals lists the trace in (arrival, trace index) order and
	// arrivalSeq is the control sequence number reserved for its first
	// entry: each first-time arrival event schedules the next one under
	// its reserved number, so the timeline holds one of them at a time.
	arrivals   []int
	arrivalSeq uint64
	// engines holds every replica in fleet-global order (the prefill
	// pool first, then decode); pools slice it.
	engines []*core.Engine
	pools   []*pool
	// blockBytes is the KV footprint of one block across the model;
	// xferTime models the node's KV link.
	blockBytes float64
	xferTime   func(bytes float64) float64

	// plan is nil on a fault-free run, which then takes no fault path;
	// fstats is the fault layer's recovery accounting and
	// recoveries[origin] the crash re-dispatches spent on origin.
	plan       *faults.Plan
	fstats     metrics.FaultStats
	recoveries []int
	pol        *policyLayer

	// The KV transfer path: items are the KV moves in flight or queued
	// (hand-offs and checkpoint reloads), freeItems the slots of
	// settled ones, reused by the next transfer; pending holds the
	// indices of transferred items no replica can import yet, in
	// completion order;
	// lift is the earliest instant a partition excluding an import
	// target lifts, found by the last placement snapshot (-1: none).
	items          []handoffItem
	freeItems      []int
	pending        []int
	lift           float64
	handoffs       int
	moved          float64
	queuedHandoffs int

	err error
}

// pool is one replica pool of the router: its engines, books and
// dispatch policy, the policy layer's per-replica breakers and
// autoscaled lifecycle (nil when the stack attaches none here), the
// requests waiting for a live replica, and either the cost tree (with
// the prefix holders of a prefix-affinity pool) or the reusable pick
// snapshot.
type pool struct {
	// role names the pool in errors and drop reasons: empty for a
	// colocated fleet, "prefill " or "decode " for a split one.
	role string
	// off is the fleet-global index of the pool's replica 0.
	off     int
	engines []*core.Engine
	policy  Policy
	books
	breakers []*policy.Breaker
	elastic  *elasticPool
	// queued holds requests that found every active replica dead; the
	// pool's next restore or activation dispatches them again.
	queued []pendingRec
	// tree ranks the candidates when the policy's pick is argminCost,
	// or when holders index a prefix-affinity pool, and no breaker
	// gates the pool (nil otherwise). Every change to a leaf's inputs
	// re-keys it at once, the finish hook's included (except in the
	// fabric's tail, after the last pick).
	tree *minTree
	// holders[g] lists, in the order they were first sent one, the
	// replicas routed a request of prefix group g. It is set only for a
	// lone fault-free prefix-affinity pool without breakers, where warm
	// blocks (and the warmth before a replica's start event) come only
	// from requests routed there: every other replica is cold for g.
	holders map[int][]int
	// probe is whether the policy's pick reads the engine probes.
	probe bool
	// loads and cand are the per-pick snapshot, reused across picks:
	// loads[j] is the view of replica cand[j].
	loads []Load
	cand  []int
}

// newPool sizes a pool of n replicas dispatched by p; the router fills
// in its engines.
func newPool(role string, n int, p Policy) *pool {
	v := viewOf(p)
	return &pool{role: role, policy: p, books: newBooks(n), probe: v == viewProbes || v == viewAffinity, loads: make([]Load, n), cand: make([]int, n)}
}

// plantTree gives p its cost tree when the policy's pick is argminCost
// and no breaker gates the pool (a breaker's routability depends on
// time, and every gated candidate counts as a skip, so those pools
// scan), and when holders index the pool. The autoscaler re-keys a
// replica's leaf at each of its state changes.
func (p *pool) plantTree() {
	ranked := viewOf(p.policy) == viewArgmin && p.breakers == nil
	if !ranked && p.holders == nil {
		return
	}
	p.tree = newMinTree(len(p.engines))
	for i := range p.engines {
		p.fix(i)
	}
	if p.elastic != nil {
		p.elastic.changed = p.fix
	}
}

// fix re-keys replica i's tree leaf, if the pool has a tree, from its
// load counters and its candidacy: alive and kept active by the
// autoscaler.
//
//det:hotpath
func (p *pool) fix(i int) {
	if p.tree != nil {
		p.tree.set(i, p.out[i].CostTokens, p.out[i].Requests, p.engines[i].Alive() && p.elastic.routable(i))
	}
}

// newRouter attaches the layers an active plan or stack asks for to a
// fleet of the given pools (tier i of the fabric is pools[i]), starts
// the engines on a fresh fabric and schedules every arrival, crash and
// autoscale tick on its control timeline.
func newRouter(cfg core.Config, reqs []workload.Request, workers int, plan *faults.Plan, stack *policy.Stack, pools ...*pool) (*router, error) {
	if !plan.Active() {
		plan = nil
	}
	ro := &router{reqs: reqs, led: newLedger(reqs), pools: pools, plan: plan}
	if plan != nil {
		ro.recoveries = make([]int, len(reqs))
	}
	ro.blockBytes, ro.xferTime = kvLink(cfg)
	total := 0
	for _, p := range pools {
		p.off = total
		total += len(p.out)
	}
	if stack.Active() {
		ro.pol = newPolicyLayer(cfg, stack, len(reqs), pools)
	}
	// Each pool is one fabric tier: the prefill tier advances to
	// each control horizon first (discovering hand-offs), and the decode
	// tier follows only after their transfer completions are on the
	// control timeline.
	fab := newFabric(workers)
	for tier, p := range pools {
		fab.addTier(tier, len(p.out))
	}
	// A lone prefix-affinity pool with no fault plan and no breakers
	// picks from its holders; a fault plan's checkpoint reloads warm
	// replicas no request was routed to.
	first, lone := pools[0], len(pools) == 1 && plan == nil
	indexed := lone && viewOf(first.policy) == viewAffinity && first.breakers == nil
	if indexed {
		first.holders = make(map[int][]int)
	}
	// A lone pool whose pick reads only the router's counters, or those
	// and the holders it touches, lets replicas lag up to their next
	// possible finish; a probing scan reads every candidate, and a fault
	// plan's checkpoint reloads probe every replica's KV headroom.
	fab.lazy = lone && (!first.probe || indexed)
	engines, err := startEngines(fab, cfg, plan)
	if err != nil {
		return nil, err
	}
	ro.ctl, ro.fab, ro.engines = fab.ctl, fab, engines
	for _, p := range pools {
		p.engines = engines[p.off : p.off+len(p.out)]
		for i, e := range p.engines {
			p, i := p, i
			e.SetOnFinish(func(local int) { ro.finished(p, i, local) })
		}
		p.plantTree()
	}
	if ro.split() {
		for i, e := range pools[0].engines {
			i := i
			// Hand-offs are discovered while the fabric advances the
			// prefill tier: buffer them; the fabric drains the buffer
			// in canonical order after the advance and feeds it to
			// ro.handoff.
			e.SetHandoff(func(h core.Handoff) { fab.note(i, h) })
		}
		fab.onNote = ro.handoff
		fab.pendingWork = func() bool { return len(ro.pending) > 0 }
		fab.drainAt = ro.drainPending
	}
	// One control event per request at its arrival instant, numbered
	// in (arrival, trace index) order so simultaneous arrivals route in
	// trace order. The numbers are reserved here and the events
	// streamed: only the first is scheduled now, and each schedules the
	// next as it fires.
	ro.arrivals = workload.SortByArrival(reqs)
	ro.arrivalSeq = fab.ctl.ReserveSeq(len(reqs))
	ro.scheduleArrival(0)
	if plan != nil {
		ro.scheduleCrashes()
	}
	if ep := ro.last().elastic; ep != nil {
		fab.ctl.AtFunc(ep.tickInterval(), tickEvent, ro, 0, 0)
	}
	return ro, nil
}

// last is the pool that imports KV and that the autoscaler scales: the
// whole fleet when colocated, the decode pool when split.
func (ro *router) last() *pool { return ro.pools[len(ro.pools)-1] }

// split reports whether the fleet is disaggregated into prefill and
// decode pools.
func (ro *router) split() bool { return len(ro.pools) == 2 }

// replica maps a fleet-global replica index to its pool and its index
// inside the pool.
func (ro *router) replica(g int) (*pool, int) {
	p := ro.pools[0]
	if g >= len(p.engines) {
		p = ro.last()
	}
	return p, g - p.off
}

// serve drives the run to its end and assembles the report under the
// scheduler name, the layers' accounting included. A fault run may lose
// requests, never silently: work still queued when the timeline drained
// is dropped with a reason; a fault-free run with stranded hand-offs
// fails.
func (ro *router) serve(cfg core.Config, scheduler string) (metrics.Report, []*core.Result, []metrics.RequestRecord, error) {
	ro.fab.run()
	switch {
	case ro.err != nil:
	case ro.plan != nil:
		for _, item := range ro.pending {
			ro.led.drop(ro.items[item].pr.origin, "stranded hand-off: fits no decode replica")
		}
		for _, p := range ro.pools {
			for _, q := range p.queued {
				ro.led.drop(q.origin, "no live "+p.role+"replica")
			}
		}
	case len(ro.pending) > 0:
		it := ro.items[ro.pending[0]]
		ro.err = fmt.Errorf("fleet: %d hand-offs stranded: request %d (%d KV blocks) fits no decode replica",
			len(ro.pending), it.pr.origin, it.h.KV.Blocks())
	}
	results, err := finalize(ro.fab, ro.engines, ro.err)
	if err != nil {
		return metrics.Report{}, nil, nil, err
	}
	rep, records, err := ro.led.assemble(cfg, scheduler, results)
	if err != nil {
		return metrics.Report{}, nil, nil, err
	}
	if ro.plan != nil {
		// The retry schedule's drops are the policy layer's; every
		// other drop is the fault layer's.
		ro.fstats.DomainOutages = len(ro.plan.Domains)
		ro.fstats.Dropped = ro.led.dropped
		if ro.pol != nil {
			ro.fstats.Dropped -= ro.pol.stats.Dropped
		}
		rep.Faults.Add(ro.fstats)
	}
	if ro.pol != nil {
		ro.pol.assemble(&rep, ro)
	}
	return rep, results, records, nil
}

// scheduler labels the run's report by fleet shape and the layers
// that run.
func (ro *router) scheduler(sc ServeConfig) string {
	if ro.split() {
		mode := "Disagg"
		if ro.plan != nil {
			mode = "DisaggFaults"
		}
		return fmt.Sprintf("%s(TD-Pipe %dP+%dD)", mode, sc.PrefillReplicas, sc.DecodeReplicas)
	}
	mode := "FleetOnline"
	switch {
	case ro.plan != nil && ro.pol != nil:
		mode = "FleetFaultsElastic"
	case ro.plan != nil:
		mode = "FleetFaults"
	case ro.pol != nil:
		mode = "FleetElastic"
	case !workload.HasArrivals(ro.reqs):
		// A layer-free closed-loop run is labelled an offline fleet.
		mode = "Fleet"
	}
	return fmt.Sprintf("%s(TD-Pipe/%s)x%d", mode, sc.Policy.Name(), sc.Replicas)
}

// pendingRec is one dispatchable unit: a fresh arrival or a crash-lost
// request awaiting re-dispatch. fresh submits from scratch; otherwise
// the request resumes by recompute from its lost progress, generated
// tokens first produced at firstTokenAt.
type pendingRec struct {
	origin       int
	fresh        bool
	generated    int
	firstTokenAt sim.Time
}

// arrivalCheck, when set, runs at every arrival event once the event
// has scheduled the next first-time arrival. Only tests set it, to see
// how much of the trace the control timeline holds.
var arrivalCheck func(ro *router)

// scheduleArrival schedules the i-th arrival in arrival order, if the
// trace has one, under its reserved sequence number (AtFuncSeq carries
// the trace index and i+1).
func (ro *router) scheduleArrival(i int) {
	if i < len(ro.arrivals) {
		idx := ro.arrivals[i]
		ro.ctl.AtFuncSeq(sim.Time(ro.reqs[idx].ArrivalTime), ro.arrivalSeq+uint64(i), arriveEvent, ro, idx, i+1)
	}
}

// arriveEvent fires at a request's arrival instant, and again at each
// admission retry the policy layer schedules (AtFunc: ctx is the
// router, a the trace index, b the arrival's position in arrival order
// plus one for a first-time arrival, which schedules the next, and 0
// for a retry).
func arriveEvent(ctx any, idx, next int) {
	ro := ctx.(*router)
	if next > 0 {
		ro.scheduleArrival(next)
	}
	if arrivalCheck != nil {
		arrivalCheck(ro)
	}
	if ro.err != nil || ro.led.droppedReason[idx] != "" {
		return
	}
	if ro.pol != nil && !ro.admit(idx) {
		return
	}
	ro.dispatch(pendingRec{origin: idx, fresh: true})
}

// dispatch routes one request to a replica of the first pool: a fresh
// arrival submits normally, a crash-lost one resumes by recompute
// (SubmitRecovered). Only a layer can leave no candidate. The request
// then waits in the pool's queue for a restart or an activation when
// the fault layer has killed every replica the autoscaler keeps
// active, and on the retry schedule otherwise (a crash-lost request
// re-enters admission there as a fresh arrival). A run with a layer
// drops a request too large for any replica; a layer-free run fails on
// it.
func (ro *router) dispatch(pr pendingRec) {
	p := ro.pools[0]
	origin := pr.origin
	r := ro.reqs[origin]
	k, ok := ro.route(p, r, float64(ro.ctl.Now()))
	if !ok {
		return
	}
	if k < 0 {
		if ro.activeDead(p) {
			p.queued = append(p.queued, pr)
		} else {
			ro.requeue(origin, "no routable replica")
		}
		return
	}
	e := ro.fab.touch(p.off + k)
	var local int
	var err error
	if pr.fresh {
		local, err = e.Submit(r)
	} else {
		local, err = e.SubmitRecovered(r, pr.generated, pr.firstTokenAt)
	}
	if err != nil {
		if errors.Is(err, core.ErrRequestTooLarge) && (ro.plan != nil || ro.pol != nil) {
			ro.led.drop(origin, err.Error())
			return
		}
		ro.err = fmt.Errorf("fleet: %sreplica %d rejected request %d: %w", p.role, k, origin, err)
		return
	}
	if ro.pol != nil {
		ro.preempt(e, r)
	}
	ro.record(p, r, origin, k, local)
}

// route picks the replica of pool p that receives r at instant now: -1
// when no replica is a candidate. ok is false when the policy's pick
// failed the run. A pool with a cost tree reads its root, whose leaves
// are all current, and a pool with holders prefers the warmest of
// them; any other pool builds the snapshot and asks its policy.
//
//det:hotpath
func (ro *router) route(p *pool, r workload.Request, now float64) (k int, ok bool) {
	if p.tree != nil {
		k = p.tree.root()
		if p.holders != nil && r.PrefixLen > 0 {
			k = ro.warmest(p, r, k)
		}
		if treeCheck != nil {
			treeCheck(ro, p, r, now, k)
		}
		return k, true
	}
	loads := ro.snapshot(p, r, nil, now)
	if len(loads) == 0 {
		return -1, true
	}
	return ro.pick(p, r, loads, now)
}

// treeCheck, when set, sees every pick a cost tree makes, a holder's
// included: the replica it picked for r at instant now, -1 for none.
// Only tests set it, to compare each tree pick with the scan's.
var treeCheck func(ro *router, p *pool, r workload.Request, now float64, k int)

// warmest answers prefix affinity's pick from pool p's holders: the
// routable holder of r's prefix group that holds the most of it, ties
// in costLess's order, or root, the cost tree's pick, when none holds
// any. No other replica was sent the group, so the full scan finds
// them all cold, and its all-cold pick is argminCost. Each holder is
// touched before its probe, so a lazy fabric runs it up to the pick's
// instant.
//
//det:hotpath
func (ro *router) warmest(p *pool, r workload.Request, root int) int {
	best, warm := root, 0
	for _, i := range p.holders[r.PrefixGroup] {
		if !p.elastic.routable(i) {
			continue
		}
		w := ro.fab.touch(p.off + i).PrefixWarmTokens(r)
		if w == 0 || w < warm {
			continue
		}
		if w == warm && !costLess(&p.out[i], &p.out[best], i, best) {
			continue
		}
		best, warm = i, w
	}
	return best
}

// snapshot fills pool p's reusable load view for routing r right now,
// one row per candidate replica: the live replicas (under the fault
// layer) that the autoscaler keeps active and whose breakers let
// traffic through. Each row is the incrementally maintained outstanding
// counters plus, when the pool's policy reads them, two live probes of
// the replica's KV pool — how much of r's shared prefix is resident
// (warm blocks included, so affinity survives request completion) and
// the free-KV headroom pool-aware policies rank on. With an exported
// KV sequence kv the candidates must also be able to import it over an
// unpartitioned link (the earliest partition lift lands in ro.lift),
// and warmth is kv's resident share instead. Breaker skips are
// counted, except on a split fleet whose candidates are all
// breaker-open: it falls back to the rest of the filter, so a fully
// tripped pool degrades instead of stalling.
//
//det:hotpath
func (ro *router) snapshot(p *pool, r workload.Request, kv *kvcache.ExportedSeq, now float64) []Load {
	n, skips := 0, 0
	gate := p.breakers != nil
	for {
		for i, e := range p.engines {
			// Only the fault layer kills replicas, so only it pays for
			// the liveness probe.
			if (ro.plan != nil && !e.Alive()) || !p.elastic.routable(i) {
				continue
			}
			if kv != nil {
				if !e.CanImportKV(*kv) {
					continue
				}
				if ro.plan.PartitionedAt(p.off+i, now) {
					if end := ro.plan.PartitionLiftsAt(p.off+i, now); ro.lift < 0 || end < ro.lift {
						ro.lift = end
					}
					continue
				}
			}
			if gate && !p.breakers[i].Routable(now) {
				skips++
				continue
			}
			l := p.out[i]
			if p.probe {
				if kv == nil {
					l.WarmTokens = e.PrefixWarmTokens(r)
				} else {
					l.WarmTokens = e.ResidentKVTokens(*kv)
				}
				l.FreeKVTokens = e.FreeKVTokens()
			}
			p.cand[n], p.loads[n] = i, l
			n++
		}
		if n > 0 || skips == 0 || !ro.split() {
			break
		}
		gate, skips = false, 0
	}
	if skips > 0 {
		ro.pol.stats.BreakerSkips += skips
	}
	return p.loads[:n]
}

// pick asks pool p's policy for a candidate of loads and maps it back
// to a replica of the pool, consuming the replica's half-open breaker
// probe slot if the pick is probing. An out-of-range pick fails the
// run.
//
//det:hotpath
func (ro *router) pick(p *pool, r workload.Request, loads []Load, now float64) (int, bool) {
	j := p.policy.Pick(r, loads)
	if j < 0 || j >= len(loads) {
		ro.badPick(p, j, len(loads))
		return 0, false
	}
	k := p.cand[j]
	if p.breakers != nil {
		p.breakers[k].Allow(now)
	}
	return k, true
}

// badPick fails the run on an out-of-range pick, outside pick because
// formatting the error allocates.
func (ro *router) badPick(p *pool, j, n int) {
	ro.err = fmt.Errorf("fleet: policy %q picked %scandidate %d of %d", p.policy.Name(), p.role, j, n)
}

// record books one landed submission: load counters, shard membership,
// the tree leaf, the prefix group's holders and the final-owner
// pointer. Submit only schedules simulation events, so the finish hook
// cannot fire before the entry lands.
//
//det:hotpath
func (ro *router) record(p *pool, r workload.Request, origin, k, local int) {
	p.add(k, origin, p.policy.Cost(r))
	p.fix(k)
	if g := r.PrefixGroup; p.holders != nil && r.PrefixLen > 0 && !slices.Contains(p.holders[g], k) {
		p.holders[g] = append(p.holders[g], k) //det:ignore hotalloc amortized growth, at most one entry per prefix group and replica
	}
	ro.led.final[origin] = recRef{replica: p.off + k, local: local}
}

// finished is the engines' completion hook: it retires the request's
// contribution from its replica's counters in O(1), counts the terminal
// finish (a prefill replica's hand-off included; the hand-off hook
// takes it back), re-keys the replica's tree leaf and flags the finish
// on the fabric, where its decode lockstep looks for it. In the
// fabric's tail the hook may run on a worker goroutine; there it
// leaves the shared tree, count and flag alone, since no pick, tick or
// lockstep follows.
//
//det:hotpath
func (ro *router) finished(p *pool, i, local int) {
	ro.led.fin[p.retire(i, local)]++
	if ro.pol != nil {
		ro.policyFinished(p, i, local)
	}
	if !ro.fab.tail {
		p.fix(i)
		ro.led.finished++
	}
	ro.fab.markFinish(p.off + i)
}

// books is one replica pool's routing bookkeeping: the live load
// counters, maintained incrementally (add on submission, retire on
// finish, hand-off or crash), each routed request's contribution to
// them, and the shard record of which replica got which request.
type books struct {
	out []Load
	// entries[k][local] is the policy cost replica k's local request
	// local added to CostTokens, subtracted when the engine reports it
	// finished.
	entries [][]float64
	shards  []Shard
}

func newBooks(n int) books {
	return books{out: make([]Load, n), entries: make([][]float64, n), shards: make([]Shard, n)}
}

// add books request origin as replica k's next local request, at the
// given policy cost. The shard lists the request by
// its origin alone.
//
//det:hotpath
func (b *books) add(k, origin int, cost float64) {
	b.entries[k] = append(b.entries[k], cost) //det:ignore hotalloc amortized growth, one entry per request the replica is sent
	b.out[k].Requests++
	b.out[k].CostTokens += cost
	b.shards[k].Origin = append(b.shards[k].Origin, origin) //det:ignore hotalloc amortized growth, one origin per request the replica is sent
}

// retire removes replica k's local request from the load counters and
// returns its trace index.
//
//det:hotpath
func (b *books) retire(k, local int) int {
	b.out[k].Requests--
	b.out[k].CostTokens -= b.entries[k][local]
	return b.shards[k].Origin[local]
}

// startEngines builds and starts one engine per fabric replica through
// forEach, each on its replicaConfig and its replica's simulation
// engine, empty and waiting for submissions. The fabric keys its
// replicas from the started engines.
func startEngines(fab *fabric, cfg core.Config, plan *faults.Plan) ([]*core.Engine, error) {
	engines := make([]*core.Engine, len(fab.engs))
	errs := make([]error, len(engines))
	fab.forEach(func(i int) {
		e, err := core.NewEngine(fab.engs[i], replicaConfig(cfg, plan, i))
		if err == nil {
			err = e.StartOnline()
		}
		engines[i], errs[i] = e, err
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	fab.bind(engines)
	return engines, nil
}

// finalize ends a run's engines through forEach: it returns the
// router's error if there was one, otherwise every engine's result or
// the first replica's Finalize error.
func finalize(fab *fabric, engines []*core.Engine, err error) ([]*core.Result, error) {
	if err != nil {
		return nil, err
	}
	results := make([]*core.Result, len(engines))
	errs := make([]error, len(engines))
	fab.forEach(func(i int) { results[i], errs[i] = engines[i].Finalize() })
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// firstErr wraps the lowest replica's error, the one a replica-order
// loop stops at.
func firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: replica %d: %w", i, err)
		}
	}
	return nil
}

// kvLink returns the KV footprint of one block across the model and the
// node's KV-link transfer-time model.
func kvLink(cfg core.Config) (blockBytes float64, xferTime func(bytes float64) float64) {
	blockSize := cfg.BlockSize
	if blockSize <= 0 {
		blockSize = kvcache.DefaultBlockSize
	}
	return float64(blockSize) * cfg.Spec.KVBytesPerToken(), costmodel.KVTransfer(cfg.Node)
}
