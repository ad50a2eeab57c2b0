package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ids returns batch entries for n fresh request ids starting at base.
func ids(base, n int) []decodeSeq {
	out := make([]decodeSeq, n)
	for i := range out {
		out[i].id = base + i
	}
	return out
}

// TestFig9Replay replays the paper's Figure-9 example: 512 requests in
// four batches of 128. Batch 0 returns with 48 finished (80 left) and
// is resubmitted whole because 80 is below the new average of 116;
// batch 1 returns with 8 finished (120 left) against an average of 114,
// so 6 requests are stolen and 114 submitted.
func TestFig9Replay(t *testing.T) {
	s := NewStealer(4, true)
	s.Prime([]int{128, 128, 128, 128})

	// Batch 0 returns with 80 survivors.
	if avgBefore := func() int { s.window[0] = 80; a := s.average(); s.window[0] = 128; return a }(); avgBefore != 116 {
		t.Errorf("average after batch0 = %d, want 116 (Fig. 9)", avgBefore)
	}
	sub := s.Rebalance(0, ids(0, 80))
	if len(sub) != 80 {
		t.Errorf("batch0 resubmitted %d, want all 80 (below average)", len(sub))
	}
	if s.StashLen() != 0 {
		t.Errorf("stash = %d after batch0", s.StashLen())
	}

	// Batch 1 returns with 120 survivors; average is (80+120+128+128)/4 = 114.
	sub = s.Rebalance(1, ids(1000, 120))
	if len(sub) != 114 {
		t.Errorf("batch1 resubmitted %d, want 114 (steal 6, Fig. 9)", len(sub))
	}
	if s.StashLen() != 6 {
		t.Errorf("stash = %d, want 6", s.StashLen())
	}

	// Batches 2 and 3 return full; they shed toward the average too.
	sub2 := s.Rebalance(2, ids(2000, 128))
	sub3 := s.Rebalance(3, ids(3000, 128))
	if len(sub2) > 128 || len(sub3) > 128 || len(sub2) < 105 || len(sub3) < 105 {
		t.Errorf("batches 2/3 resubmitted %d/%d, want near the average", len(sub2), len(sub3))
	}

	// Next round: batch 0 (still 80) is topped up from the stash.
	sub = s.Rebalance(0, ids(0, 80))
	if len(sub) <= 80 {
		t.Errorf("batch0 not supplemented: %d", len(sub))
	}
}

func TestStealingConvergesTowardBalance(t *testing.T) {
	s := NewStealer(4, true)
	sizes := []int{128, 128, 128, 128}
	s.Prime(sizes)
	batches := [][]decodeSeq{ids(0, 128), ids(200, 128), ids(400, 128), ids(600, 128)}
	rng := rand.New(rand.NewSource(1))
	// Simulate 60 rounds with random completions concentrated in batch 0.
	for round := 0; round < 60; round++ {
		for slot := 0; slot < 4; slot++ {
			b := batches[slot]
			finish := 0
			if slot == 0 && len(b) > 4 {
				finish = rng.Intn(4)
			} else if len(b) > 2 && rng.Intn(3) == 0 {
				finish = 1
			}
			b = b[:len(b)-finish]
			batches[slot] = s.Rebalance(slot, b)
		}
	}
	min, max := 1<<30, 0
	for _, b := range batches {
		if len(b) < min {
			min = len(b)
		}
		if len(b) > max {
			max = len(b)
		}
	}
	// Convergence is bounded by the stealing tolerance (avg/32 per
	// batch, so ~2x that across the spread).
	if max-min > max/8+4 {
		t.Errorf("batches did not converge: sizes spread %d..%d", min, max)
	}
}

func TestStealerDisabledPassesThrough(t *testing.T) {
	s := NewStealer(2, false)
	s.Prime([]int{10, 100})
	sub := s.Rebalance(1, ids(0, 100))
	if len(sub) != 100 {
		t.Errorf("disabled stealer changed batch: %d", len(sub))
	}
	if s.StashLen() != 0 {
		t.Errorf("disabled stealer stashed %d", s.StashLen())
	}
}

func TestStealerDrainStash(t *testing.T) {
	s := NewStealer(2, true)
	s.Prime([]int{100, 10})
	s.Rebalance(0, ids(0, 100)) // sheds toward avg 55
	n := s.StashLen()
	if n == 0 {
		t.Fatal("expected withheld requests")
	}
	drained := s.DrainStash()
	if len(drained) != n || s.StashLen() != 0 {
		t.Errorf("drain returned %d, stash now %d", len(drained), s.StashLen())
	}
}

func TestStealerRemove(t *testing.T) {
	s := NewStealer(2, true)
	s.Prime([]int{100, 0})
	s.Rebalance(0, ids(0, 100))
	if s.StashLen() == 0 {
		t.Fatal("no stash to remove from")
	}
	victim := s.stash[0].id
	if !s.Remove(victim) {
		t.Error("Remove failed for stashed id")
	}
	if s.Remove(victim) {
		t.Error("Remove succeeded twice")
	}
}

// Property: rebalancing conserves requests — everything returned is
// either resubmitted or in the stash, with no duplication.
func TestStealerConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStealer(4, true)
		s.Prime([]int{64, 64, 64, 64})
		owned := map[int]bool{}
		next := 0
		batches := make([][]decodeSeq, 4)
		for slot := range batches {
			for i := 0; i < 64; i++ {
				batches[slot] = append(batches[slot], decodeSeq{id: next})
				owned[next] = true
				next++
			}
		}
		for round := 0; round < 40; round++ {
			slot := rng.Intn(4)
			b := batches[slot]
			// Finish a few randomly.
			for len(b) > 0 && rng.Intn(4) == 0 {
				delete(owned, b[len(b)-1].id)
				b = b[:len(b)-1]
			}
			batches[slot] = s.Rebalance(slot, b)
		}
		seen := map[int]bool{}
		total := 0
		for _, b := range batches {
			for _, d := range b {
				if id := d.id; seen[id] || !owned[id] {
					return false
				}
				seen[d.id] = true
				total++
			}
		}
		for _, d := range s.DrainStash() {
			if id := d.id; seen[id] || !owned[id] {
				return false
			}
			seen[d.id] = true
			total++
		}
		return total == len(owned)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
