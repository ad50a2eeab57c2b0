package kvcache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refMatchPrefix is MatchPrefix as a walk over the chain's records
// from the root, one block at a time.
func refMatchPrefix(m *Manager, group, prefixTokens int) int {
	hit := 0
	for ; hit < prefixTokens/m.blockSize; hit++ {
		if _, _, ok := blockState(m, group, hit); !ok {
			break
		}
	}
	return hit * m.blockSize
}

// Property: over random histories of shared allocations, frees,
// appends and KV export/import on a small pool, MatchPrefix equals the
// reference walk for every group, CanAllocate is true exactly
// when Allocate then succeeds, and a successful allocation hits
// exactly what MatchPrefix reported beforehand.
func TestProbeEquivalenceProperty(t *testing.T) {
	const bs, groups, maxPrefix = 16, 4, 12 * 16
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := NewManager(24*bs, bs)
		var live []int
		tokensOf := map[int]int{} // the owner's count per live sequence
		var exports []ExportedSeq
		next := 0
		fail := func(step int, format string, args ...any) bool {
			t.Logf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			return false
		}
		for step := 0; step < 300; step++ {
			for g := 0; g < groups; g++ {
				if got, want := m.MatchPrefix(g, maxPrefix), refMatchPrefix(m, g, maxPrefix); got != want {
					return fail(step, "MatchPrefix(%d) = %d, reference %d", g, got, want)
				}
			}
			warm, resident := 0, 0
			for _, c := range m.chains {
				for _, b := range c.blocks {
					if b.lastUse != 0 {
						resident++
						if b.refs == 0 {
							warm++
						}
					}
				}
			}
			if warm != m.WarmBlocks() || resident != m.SharedBlocks() {
				return fail(step, "%d zero-ref blocks of %d resident, reclaimable %d of %d", warm, resident, m.WarmBlocks(), m.SharedBlocks())
			}
			switch op := rng.Intn(10); {
			case op < 4:
				id := next
				next++
				tokens := 1 + rng.Intn(10*bs)
				group := rng.Intn(groups)
				prefix := rng.Intn(tokens + bs)
				warmHit := m.MatchPrefix(group, min(prefix, tokens))
				can := m.CanAllocate(tokens, group, prefix)
				hit, err := m.Allocate(id, tokens, group, prefix)
				if can != (err == nil) {
					return fail(step, "CanAllocate(%d, %d, %d) = %v, Allocate err = %v", tokens, group, prefix, can, err)
				}
				if err == nil {
					if hit != warmHit {
						return fail(step, "allocation hit %d tokens, MatchPrefix said %d", hit, warmHit)
					}
					live = append(live, id)
					tokensOf[id] = tokens
				}
			case op < 6 && len(live) > 0:
				id := live[rng.Intn(len(live))]
				if n := tokensOf[id] + 1 + rng.Intn(2*bs); m.Grow(id, n) == nil {
					tokensOf[id] = n
				}
			case op < 8 && len(live) > 0:
				i := rng.Intn(len(live))
				m.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			case op < 9 && len(live) > 0:
				i := rng.Intn(len(live))
				ex, err := m.ExportKV(live[i], tokensOf[live[i]])
				if err != nil {
					return fail(step, "export: %v", err)
				}
				exports = append(exports, ex)
				live = append(live[:i], live[i+1:]...)
			case len(exports) > 0:
				i := rng.Intn(len(exports))
				if _, err := m.ImportKV(next, exports[i]); err == nil {
					live = append(live, next)
					tokensOf[next] = exports[i].Tokens
				}
				next++
				exports = append(exports[:i], exports[i+1:]...)
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// The router probes every replica on every arrival: the probes must not
// allocate, hit or miss.
func TestProbesDoNotAllocate(t *testing.T) {
	m := mustManager(t, 16*1024, 16)
	if _, err := m.Allocate(0, 512, 1, 512); err != nil {
		t.Fatal(err)
	}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += m.MatchPrefix(1, 512) + m.MatchPrefix(2, 512)
		if m.CanAllocate(600, 1, 512) && m.CanAllocate(600, 2, 512) {
			sink++
		}
	})
	if allocs != 0 {
		t.Errorf("probes allocate %v times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Error("probes found nothing resident")
	}
}

// A prefix hit on a fully resident chain references the chain in place:
// admitting and freeing the sequence must not allocate.
func TestSharedHitDoesNotAllocate(t *testing.T) {
	m := mustManager(t, 16*1024, 16)
	if _, err := m.Allocate(0, 512, 1, 512); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if hit, err := m.Allocate(1, 600, 1, 512); err != nil || hit != 512 {
			t.Fatalf("hit %d, err %v", hit, err)
		}
		m.Free(1)
	})
	if allocs != 0 {
		t.Errorf("Allocate+Free on a resident chain allocates %v times per run, want 0", allocs)
	}
}
