package core

// Approach 1: AI-based greedy prefill (§3.3, Algorithm 1).
//
// The engine keeps prefilling as long as the *simulated future* KV
// usage stays within capacity. The simulation walks discrete future
// decode steps ("futurePoints": the 32nd, 64th, ..., 1024th) and sums,
// per point, the KV held by every request predicted to still be alive
// there. A request with input length in and predicted output length
// out contributes in+fp tokens at every futurePoint fp <= out — after
// that it is predicted to have finished and freed its cache.

// The engine's futurePoint grid: the paper checks the 32nd, 64th, ...,
// 1024th decode step.
const (
	futurePointStride = 32
	futurePointMax    = 1024
)

// usageSim is the engine's Algorithm-1 state: predicted KV usage (in
// tokens) at each futurePoint.
type usageSim struct {
	points []int // futurePoint step numbers
	usage  []int // predicted tokens held at each point
}

// newUsageSim builds the futurePoint grid.
func newUsageSim(stride, max int) *usageSim {
	s := &usageSim{}
	for fp := stride; fp <= max; fp += stride {
		s.points = append(s.points, fp)
	}
	s.usage = make([]int, len(s.points))
	return s
}

// Reset clears the simulation for a new prefill phase.
func (s *usageSim) Reset() {
	for i := range s.usage {
		s.usage[i] = 0
	}
}

// UpdateUsage is Algorithm 1's UpdateUsage: account a request that will
// hold ctx+fp tokens at each future point until its predicted remaining
// output remaining is exhausted.
func (s *usageSim) UpdateUsage(ctx, remaining int) {
	for i, fp := range s.points {
		if fp <= remaining {
			s.usage[i] += ctx + fp
		}
	}
}

// MaxUsage is the peak predicted usage across future points
// (Algorithm 1's CheckSwitch scan).
func (s *usageSim) MaxUsage() int {
	max := 0
	for _, u := range s.usage {
		if u > max {
			max = u
		}
	}
	return max
}

// ShouldSwitch is Algorithm 1's CheckSwitch: switch to decode when the
// predicted peak exceeds capacity.
func (s *usageSim) ShouldSwitch(kvCapacityTokens int) bool {
	return s.MaxUsage() > kvCapacityTokens
}
