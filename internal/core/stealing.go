package core

// Stealer implements Approach 2, inter-batch work stealing (§3.4).
//
// The scheduler can observe the true size of at most one decode batch
// at a time (the one that just returned), so balancing uses a sliding
// window over the most recent known size of each batch: when a batch
// returns, finished requests are removed, the window is updated, and
// the batch is compared with the window average. Surplus requests are
// withheld into a stash; deficits are topped up from the stash on later
// submissions. Figure 9's example replays exactly through this type.
// Requests move as their batch entries (decodeSeq), so a withheld
// request keeps its decode state while it waits in the stash.
type Stealer struct {
	// window[slot] is the most recent known size of each batch.
	window []int
	// stash holds withheld requests awaiting redistribution.
	stash []decodeSeq
	// enabled mirrors the Fig.-15 ablation toggle.
	enabled bool
}

// NewStealer tracks up to slots decode batches. If enabled is false,
// Rebalance passes batches through untouched (the "wo" ablation).
func NewStealer(slots int, enabled bool) *Stealer {
	return &Stealer{window: make([]int, slots), enabled: enabled}
}

// Prime starts a decode phase over len(sizes) batches, recording their
// initial submitted sizes.
func (s *Stealer) Prime(sizes []int) {
	s.window = append(s.window[:0], sizes...)
}

// StashLen returns the number of withheld requests.
func (s *Stealer) StashLen() int { return len(s.stash) }

// DrainStash removes and returns all withheld requests (used when the
// decode phase ends so no request is stranded).
func (s *Stealer) DrainStash() []decodeSeq {
	out := s.stash
	s.stash = nil
	return out
}

// average returns the sliding-window mean, rounded to nearest. Stashed
// requests are part of the balancing target: counting them keeps the
// stash draining instead of idling requests across rounds.
func (s *Stealer) average() int {
	sum := len(s.stash)
	for _, v := range s.window {
		sum += v
	}
	return (sum + len(s.window)/2) / len(s.window)
}

// Rebalance processes batch (already stripped of finished requests)
// returning from slot and returns the requests to resubmit: the window
// entry is refreshed, surplus beyond the window average is withheld from
// the batch's tail, and deficits are supplemented from the stash's tail.
// The returned slice is the batch to submit for the next decode step:
// batch itself cut short, or batch with stashed requests appended.
func (s *Stealer) Rebalance(slot int, batch []decodeSeq) []decodeSeq {
	if !s.enabled {
		s.window[slot] = len(batch)
		return batch
	}
	s.window[slot] = len(batch)
	avg := s.average()
	// Withholding a request costs it one idle round, so steal only
	// when the surplus is material (beyond avg/32); top deficits up eagerly.
	tol := avg / 32
	if tol < 1 {
		tol = 1
	}
	switch {
	case len(batch) > avg+tol:
		surplus := len(batch) - avg
		s.stash = append(s.stash, batch[len(batch)-surplus:]...)
		batch = batch[:len(batch)-surplus]
	case len(batch) < avg && len(s.stash) > 0:
		take := avg - len(batch)
		if take > len(s.stash) {
			take = len(s.stash)
		}
		batch = append(batch, s.stash[len(s.stash)-take:]...)
		s.stash = s.stash[:len(s.stash)-take]
	}
	s.window[slot] = len(batch)
	return batch
}

// Remove drops request id from the stash if present (used when a
// stashed request is evicted for recomputation).
func (s *Stealer) Remove(id int) bool {
	for i := range s.stash {
		if s.stash[i].id == id {
			s.stash = append(s.stash[:i], s.stash[i+1:]...)
			return true
		}
	}
	return false
}
