package baselines

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

// TestMain checks every PP run's slot lists at each round start, unless
// the binary runs benchmarks.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.bench"); f == nil || f.Value.String() == "" {
		roundCheck = checkOneSlot
	}
	os.Exit(m.Run())
}

// checkOneSlot reports a live request (neither evicted nor done) that
// more than one slot list names: two slots would then run passes for
// it, each advancing its tokens and its KV window.
func checkOneSlot(r *ppRunner) error {
	owner := make([]int, len(r.states)) // slot+1 of the first list naming id
	for slot := range r.batch {
		for _, list := range [][]int{r.batch[slot], r.partial[slot]} {
			for _, id := range list {
				if st := r.states[id]; st.evicted || st.done {
					continue
				}
				if owner[id] != 0 {
					return fmt.Errorf("baselines: %s round %d: request %d listed by slot %d and slot %d",
						r.cfg.Method, r.rounds, id, owner[id]-1, slot)
				}
				owner[id] = slot + 1
			}
		}
	}
	return nil
}
