package fleet

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/workload"
)

// Load is the dispatcher's view of the work already assigned to one
// replica.
type Load struct {
	// Requests is the number of requests assigned so far.
	Requests int
	// CostTokens accumulates the dispatching policy's own Cost
	// estimates for the assigned requests.
	CostTokens float64
	// WarmTokens is how many tokens of the *current* request's shared
	// prefix this replica already holds: live KV residency, or, before
	// the replica's start event (a closed-loop trace's t=0 routing),
	// the warmth of the requests routed to it so far (see
	// core.Engine.PrefixWarmTokens). Always 0 for requests without
	// prefix structure; recomputed per request before Pick. In a disaggregated decode pool it is the
	// resident share of the hand-off's exported block window instead.
	// The router probes it only for policies that read it (every
	// policy but the four counter-only built-ins); the others see 0.
	WarmTokens int
	// FreeKVTokens is the replica's live KV headroom in tokens (free
	// plus reclaimable warm blocks) at routing time — the pool-aware
	// signal the disaggregated decode pick ranks on. The router probes
	// it for the same policies as WarmTokens.
	FreeKVTokens int
}

// Policy decides which replica receives each request of a trace.
// Implementations may keep internal state (round-robin counters, seeded
// RNGs), so use a fresh instance per dispatch for reproducibility.
// Policies must not read Request.OutputLen — like the engine, they only
// see observable features and the predictor's estimate.
type Policy interface {
	// Name returns the registry name of the policy.
	Name() string
	// Pick returns the index in loads of the replica that receives r.
	Pick(r workload.Request, loads []Load) int
	// Cost estimates the work r adds to its replica; the dispatcher
	// accumulates it into Load.CostTokens before the next Pick.
	Cost(r workload.Request) float64
}

// pickView is how much of the candidate loads a built-in policy's Pick
// reads, so the router builds no more than that. A policy that does not
// declare one (a user policy, or a wrapper that embeds Policy) gets the
// full snapshot.
type pickView int

const (
	// viewProbes is the full snapshot: the router-kept counters plus
	// the engine probes WarmTokens and FreeKVTokens.
	viewProbes pickView = iota
	// viewCounters is the router-kept counters alone.
	viewCounters
	// viewArgmin is a Pick that is argminCost over the candidates: the
	// router may answer it from its cost tree without calling Pick.
	viewArgmin
	// viewAffinity is prefixAffinity's Pick: the warmest candidate,
	// argminCost among the equally warm. A lone fault-free pool without
	// breakers answers it from its prefix holders and its cost tree
	// without calling Pick; any other pool scans the full snapshot.
	viewAffinity
)

// viewOf returns the view p declares, viewProbes if none.
func viewOf(p Policy) pickView {
	if v, ok := p.(interface{ view() pickView }); ok {
		return v.view()
	}
	return viewProbes
}

// Options parameterize policy construction.
type Options struct {
	// Seed drives stochastic policies (random).
	Seed int64
	// Predictor supplies output-length estimates for predicted-cost;
	// nil falls back to the oracle.
	Predictor core.LenPredictor
}

// predictor returns o.Predictor, or the oracle if it is nil.
func (o Options) predictor() core.LenPredictor {
	if o.Predictor == nil {
		return core.OraclePredictor{}
	}
	return o.Predictor
}

// registry builds each built-in policy from options. Nothing writes it
// after package initialization, so reading it needs no lock.
var registry = map[string]func(Options) Policy{
	RoundRobin:     func(Options) Policy { return &roundRobin{} },
	Random:         func(o Options) Policy { return &random{rng: rand.New(rand.NewSource(o.Seed))} },
	LeastWork:      func(Options) Policy { return leastWork{} },
	PredictedCost:  func(o Options) Policy { return &predictedCost{pred: o.predictor()} },
	PrefixAffinity: func(Options) Policy { return prefixAffinity{} },
	DecodeAffinity: func(o Options) Policy { return &decodeAffinity{pred: o.predictor()} },
}

// New builds a registered policy by name.
func New(name string, opts Options) (Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown policy %q (have %v)", name, Names())
	}
	return f(opts), nil
}

// Names lists the registered policies, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Built-in policy names.
const (
	// RoundRobin cycles through replicas in order.
	RoundRobin = "round-robin"
	// Random picks a seeded uniform replica per request.
	Random = "random"
	// LeastWork assigns to the replica with the least known prefill
	// work (input tokens) so far.
	LeastWork = "least-work"
	// PredictedCost assigns to the replica with the least estimated
	// total work, input plus the predictor's output-length estimate —
	// the paper's key signal, applied to dispatch.
	PredictedCost = "predicted-cost"
	// PrefixAffinity routes to the replica with the warmest matching
	// shared prefix (most reusable KV), falling back to least-work
	// when no replica holds any of the request's prefix.
	PrefixAffinity = "prefix-affinity"
	// DecodeAffinity is the disaggregated decode-pool pick: warmest
	// resident KV first (the import re-references resident blocks
	// instead of storing new ones), then the most free KV headroom,
	// then least estimated outstanding decode work. The disaggregated
	// router pairs it with least-work on the prefill pool.
	DecodeAffinity = "decode-affinity"
)

type roundRobin struct{ next int }

// Name returns RoundRobin.
func (*roundRobin) Name() string { return RoundRobin }

// Pick cycles through the replicas in index order.
func (p *roundRobin) Pick(_ workload.Request, loads []Load) int {
	i := p.next % len(loads)
	p.next = i + 1
	return i
}

// Cost is the known prefill work (the request's input length).
func (*roundRobin) Cost(r workload.Request) float64 { return float64(r.InputLen) }

// view is viewCounters: Pick reads only the number of candidates.
func (*roundRobin) view() pickView { return viewCounters }

type random struct{ rng *rand.Rand }

// Name returns Random.
func (*random) Name() string { return Random }

// Pick draws a replica uniformly from the policy's seeded generator.
func (p *random) Pick(_ workload.Request, loads []Load) int {
	return p.rng.Intn(len(loads))
}

// Cost is the known prefill work (the request's input length).
func (*random) Cost(r workload.Request) float64 { return float64(r.InputLen) }

// view is viewCounters: Pick reads only the number of candidates.
func (*random) view() pickView { return viewCounters }

// argminCost returns the replica with the least accumulated cost,
// breaking ties toward fewer requests, then the lower index. The
// router's cost tree (mintree.go) keeps the same order.
func argminCost(loads []Load) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		if costLess(&loads[i], &loads[best], i, best) {
			best = i
		}
	}
	return best
}

// costLess is the cost order argminCost, prefix affinity's ties and
// the holders' ties share: a, candidate i, ranks before b, candidate j,
// on less CostTokens, then fewer Requests, then the lower index.
//
//det:hotpath
func costLess(a, b *Load, i, j int) bool {
	if a.CostTokens != b.CostTokens {
		return a.CostTokens < b.CostTokens
	}
	if a.Requests != b.Requests {
		return a.Requests < b.Requests
	}
	return i < j
}

type leastWork struct{}

// Name returns LeastWork.
func (leastWork) Name() string { return LeastWork }

// Pick chooses the replica with the least accumulated cost.
func (leastWork) Pick(_ workload.Request, loads []Load) int { return argminCost(loads) }

// Cost is the known prefill work (the request's input length).
func (leastWork) Cost(r workload.Request) float64 { return float64(r.InputLen) }

// view is viewArgmin: Pick is argminCost.
func (leastWork) view() pickView { return viewArgmin }

type prefixAffinity struct{}

// Name returns PrefixAffinity.
func (prefixAffinity) Name() string { return PrefixAffinity }

// Pick chooses the replica holding the most of the request's shared
// prefix; ties (including the all-cold case) resolve by least
// accumulated cost, so unstructured traffic degrades to least-work.
func (prefixAffinity) Pick(_ workload.Request, loads []Load) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		switch {
		case loads[i].WarmTokens > loads[best].WarmTokens:
			best = i
		case loads[i].WarmTokens < loads[best].WarmTokens:
		case costLess(&loads[i], &loads[best], i, best):
			best = i
		}
	}
	return best
}

// Cost is the known prefill work, as in least-work; Pick's warmth
// signal, not the cost estimate, carries the cache information.
func (prefixAffinity) Cost(r workload.Request) float64 { return float64(r.InputLen) }

// view is viewAffinity: Pick is the warmest candidate, then argminCost.
func (prefixAffinity) view() pickView { return viewAffinity }

type decodeAffinity struct{ pred core.LenPredictor }

// Name returns DecodeAffinity.
func (*decodeAffinity) Name() string { return DecodeAffinity }

// Pick ranks replicas for a decode-pool admission: the warmest resident
// KV wins (the import stores the fewest new blocks there), ties prefer
// the most free-KV headroom (the request's context still has to grow),
// and remaining ties fall back to least accumulated cost, then the
// lower index.
func (*decodeAffinity) Pick(_ workload.Request, loads []Load) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		switch {
		case loads[i].WarmTokens > loads[best].WarmTokens:
			best = i
		case loads[i].WarmTokens < loads[best].WarmTokens:
		case loads[i].FreeKVTokens > loads[best].FreeKVTokens:
			best = i
		case loads[i].FreeKVTokens < loads[best].FreeKVTokens:
		case costLess(&loads[i], &loads[best], i, best):
			best = i
		}
	}
	return best
}

// Cost is the predicted decode work the request adds to its replica:
// the output-length estimate (prefill happened elsewhere).
func (p *decodeAffinity) Cost(r workload.Request) float64 {
	return float64(p.pred.PredictLen(r))
}

type predictedCost struct{ pred core.LenPredictor }

// Name returns PredictedCost.
func (*predictedCost) Name() string { return PredictedCost }

// Pick chooses the replica with the least accumulated predicted cost.
func (*predictedCost) Pick(_ workload.Request, loads []Load) int { return argminCost(loads) }

// Cost is the full predicted footprint: known prefill work plus the
// output-length estimate.
func (p *predictedCost) Cost(r workload.Request) float64 {
	return float64(r.InputLen + p.pred.PredictLen(r))
}

// view is viewArgmin: Pick is argminCost.
func (*predictedCost) view() pickView { return viewArgmin }
