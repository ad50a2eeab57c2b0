package fleet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// scanPick is argminCost over the candidate rows of loads, mapped back
// to a replica index: the pick the cost tree must reproduce, -1 when no
// replica is a candidate.
func scanPick(loads []Load, candidate []bool) int {
	var rows []Load
	var idx []int
	for i, l := range loads {
		if candidate[i] {
			rows = append(rows, l)
			idx = append(idx, i)
		}
	}
	if len(rows) == 0 {
		return -1
	}
	return idx[argminCost(rows)]
}

// TestCostTreeMatchesArgminCost drives trees of several sizes through
// random add, retire, exclude and include steps and checks the root
// against argminCost over the full candidate snapshot after every batch.
// Costs come from a small set with both signed zeros, so equal costs,
// equal request counts and ±0 ties are common. Each batch re-keys the
// leaves it touched in shuffled order, as the router's stale-leaf drain
// may.
func TestCostTreeMatchesArgminCost(t *testing.T) {
	negZero := math.Copysign(0, -1)
	costs := []float64{0, negZero, 1, 2, 0.5}
	for _, n := range []int{1, 2, 3, 5, 8, 13, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		loads := make([]Load, n)
		candidate := make([]bool, n)
		tree := newMinTree(n)
		if got := tree.root(); got != -1 {
			t.Fatalf("n=%d: empty tree picks %d", n, got)
		}
		for step := 0; step < 4000; step++ {
			touched := map[int]bool{}
			for op := rng.Intn(4); op >= 0; op-- {
				k := rng.Intn(n)
				touched[k] = true
				switch rng.Intn(6) {
				case 0, 1:
					loads[k].CostTokens += costs[rng.Intn(len(costs))]
					loads[k].Requests++
				case 2:
					if loads[k].Requests > 0 {
						loads[k].CostTokens -= costs[rng.Intn(len(costs))]
						loads[k].Requests--
					}
				case 3:
					candidate[k] = false
				case 4:
					candidate[k] = true
				case 5:
					loads[k].CostTokens = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
			}
			order := make([]int, 0, len(touched))
			for k := 0; k < n; k++ {
				if touched[k] {
					order = append(order, k)
				}
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, k := range order {
				tree.set(k, loads[k].CostTokens, loads[k].Requests, candidate[k])
			}
			if got, want := tree.root(), scanPick(loads, candidate); got != want {
				t.Fatalf("n=%d step %d: tree picks %d, argminCost %d\nloads %+v\ncandidates %v", n, step, got, want, loads, candidate)
			}
		}
	}
}

// TestTreePicksMatchScan runs routed configurations whose first pool
// ranks by cost from a tree and checks every tree pick against the
// scan it replaced (the candidate snapshot, then argminCost), at one
// worker and at four: the fault layer on a colocated fleet, the
// disaggregated fleet plain and under faults (its least-work prefill
// pool), plain predicted-cost over 64 replicas and an autoscaler-only
// stack, whose state changes re-key leaves.
func TestTreePicksMatchScan(t *testing.T) {
	var runs []goldenRun
	for _, g := range goldenRuns() {
		switch g.name {
		case "online-faults", "disagg", "disagg-faults", "online-predicted-64":
			runs = append(runs, g)
		}
	}
	runs = append(runs, goldenRun{name: "online-autoscaler", run: func(t *testing.T) goldenOut {
		stack := &policy.Stack{Autoscaler: elasticStack(t, 6).Autoscaler}
		res, err := Serve(fastConfig(2), goldenPoissonTrace(), ServeConfig{Replicas: 6, Policy: mustPolicy(t, PredictedCost, Options{}), Stack: stack})
		out := serveOut(t, res, err)
		if s := out.Report.Autoscale; s.ScaleUps == 0 || s.ScaleDowns == 0 {
			t.Errorf("autoscaler idle: %+v", s)
		}
		return out
	}})
	if len(runs) != 5 {
		t.Fatalf("found %d of the 5 runs", len(runs))
	}
	var picks, loaded, mismatches int
	treeCheck = func(ro *router, p *pool, r workload.Request, now float64, k int) {
		picks++
		want := -1
		if loads := ro.snapshot(p, r, nil, now); len(loads) > 0 {
			j := argminCost(loads)
			want = p.cand[j]
			if loads[j].CostTokens != 0 {
				loaded++
			}
		}
		if k != want {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("%spool at t=%v: tree picks %d, scan %d", p.role, now, k, want)
			}
		}
	}
	defer func() { treeCheck = nil }()
	for _, g := range runs {
		for _, workers := range []int{1, 4} {
			setProcs(t, workers)
			picks, loaded, mismatches = 0, 0, 0
			g.run(t)
			if picks == 0 || loaded == 0 {
				t.Errorf("%s workers=%d: %d tree picks, %d of them among loaded replicas", g.name, workers, picks, loaded)
			}
			if mismatches > 0 {
				t.Errorf("%s workers=%d: %d of %d tree picks differ from the scan", g.name, workers, mismatches, picks)
			}
		}
	}
}
