package kvcache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustManager(t *testing.T, tokens, bs int) *Manager {
	t.Helper()
	m, err := NewManager(tokens, bs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(0, 16); err == nil {
		t.Error("zero capacity accepted")
	}
	m := mustManager(t, 1000, 0)
	if m.BlockSize() != DefaultBlockSize {
		t.Errorf("default block size = %d", m.BlockSize())
	}
	// 1000 tokens round UP to 63 blocks: a capacity not divisible by
	// the block size must not silently drop the remainder.
	if m.CapacityBlocks() != 63 {
		t.Errorf("capacity blocks = %d, want 63 (rounded up)", m.CapacityBlocks())
	}
	if m.CapacityTokens() != 63*16 {
		t.Errorf("capacity tokens = %d, want %d", m.CapacityTokens(), 63*16)
	}
}

func TestAllocateFreeRoundTrip(t *testing.T) {
	m := mustManager(t, 1600, 16) // 100 blocks
	if _, err := m.Allocate(1, 100, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 7 { // ceil(100/16)
		t.Errorf("used = %d, want 7", m.UsedBlocks())
	}
	if !m.Has(1) || m.Live() != 1 {
		t.Error("sequence state wrong after allocate")
	}
	m.Free(1)
	if m.UsedBlocks() != 0 || m.Has(1) || m.Live() != 0 {
		t.Error("state not clean after free")
	}
	m.Free(1) // double free is a no-op
	if m.UsedBlocks() != 0 {
		t.Error("double free corrupted accounting")
	}
}

func TestAllocateErrors(t *testing.T) {
	m := mustManager(t, 160, 16) // 10 blocks
	if _, err := m.Allocate(1, 0, 0, 0); err == nil {
		t.Error("zero-token allocation accepted")
	}
	if _, err := m.Allocate(1, 100, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(1, 10, 0, 0); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := m.Allocate(2, 100, 0, 0); err == nil {
		t.Error("over-capacity allocation accepted")
	}
}

func TestGrowTakesWholeBlocks(t *testing.T) {
	m := mustManager(t, 160, 16)
	if _, err := m.Allocate(1, 16, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 1 {
		t.Fatalf("used = %d", m.UsedBlocks())
	}
	// The 17th token crosses a block boundary.
	if !m.CanGrow(1, 17) {
		t.Fatal("CanGrow(1, 17) = false")
	}
	if err := m.Grow(1, 17); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 {
		t.Errorf("used = %d", m.UsedBlocks())
	}
	// Growing within the block takes no new blocks.
	if err := m.Grow(1, 32); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 {
		t.Errorf("used = %d after intra-block growth", m.UsedBlocks())
	}
	// Several blocks at once.
	if err := m.Grow(1, 80); err != nil || m.UsedBlocks() != 5 {
		t.Errorf("grow to 80 tokens: err=%v used=%d, want nil and 5", err, m.UsedBlocks())
	}
}

func TestGrowErrors(t *testing.T) {
	m := mustManager(t, 32, 16)
	if err := m.Grow(9, 1); err == nil {
		t.Error("grow of unknown sequence accepted")
	}
	if _, err := m.Allocate(1, 16, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Grow(1, 0); err == nil {
		t.Error("grow to zero tokens accepted")
	}
	if _, err := m.Allocate(2, 20, 0, 0); err == nil {
		t.Error("over-capacity allocation accepted")
	}
	if err := m.Grow(1, 32); err != nil {
		t.Fatal(err)
	}
	// A count below the window's need is a stale owner's count.
	if err := m.Grow(1, 16); err == nil {
		t.Error("grow to fewer blocks than held accepted")
	}
	if m.CanGrow(1, 33) {
		t.Error("CanGrow true with no free blocks")
	}
	if err := m.Grow(1, 33); err == nil {
		t.Error("OOM grow accepted")
	}
	if m.CanGrow(42, 1) {
		t.Error("CanGrow true for unknown sequence")
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	m := mustManager(t, 160, 16)
	_, _ = m.Allocate(1, 64, 0, 0) // 4 blocks
	_, _ = m.Allocate(2, 64, 0, 0) // 4 blocks
	m.Free(1)
	if m.PeakBlocks() != 8 {
		t.Errorf("peak = %d, want 8", m.PeakBlocks())
	}
	if m.UsedBlocks() != 4 {
		t.Errorf("used = %d, want 4", m.UsedBlocks())
	}
}

func TestEvictMostRecent(t *testing.T) {
	m := mustManager(t, 160, 16)   // 10 blocks
	_, _ = m.Allocate(1, 48, 0, 0) // 3 blocks, oldest
	_, _ = m.Allocate(2, 48, 0, 0) // 3 blocks
	_, _ = m.Allocate(3, 48, 0, 0) // 3 blocks, newest
	// Need 6 free blocks -> evict newest first: 3, then 2.
	evicted := m.EvictMostRecent(6)
	if len(evicted) != 2 || evicted[0] != 3 || evicted[1] != 2 {
		t.Fatalf("evicted = %v, want [3 2]", evicted)
	}
	if !m.Has(1) || m.Has(2) || m.Has(3) {
		t.Error("wrong sequences evicted")
	}
	if m.FreeBlocks() < 6 {
		t.Errorf("free = %d after eviction", m.FreeBlocks())
	}
}

func TestEvictRespectsKeepSet(t *testing.T) {
	m := mustManager(t, 96, 16) // 6 blocks
	_, _ = m.Allocate(1, 32, 0, 0)
	_, _ = m.Allocate(2, 32, 0, 0)
	_, _ = m.Allocate(3, 32, 0, 0)
	evicted := m.EvictMostRecent(2, []int{3, 99}, []int{3})
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted = %v, want [2]", evicted)
	}
	if !m.Has(3) {
		t.Error("kept sequence was evicted")
	}
	// The spared mark lasts only for the call.
	if ev := m.EvictMostRecent(4); len(ev) != 1 || ev[0] != 3 {
		t.Fatalf("evicted = %v, want [3]", ev)
	}
}

// Eviction follows allocation order, not id order, and a re-allocated
// id counts from its newest allocation: the arrival log's stale entries
// never name a victim.
func TestEvictFollowsArrivalOrderAcrossReuse(t *testing.T) {
	m := mustManager(t, 160, 16) // 10 blocks
	for _, id := range []int{4, 2, 7} {
		_, _ = m.Allocate(id, 32, 0, 0) // 2 blocks each
	}
	m.Free(4)
	_, _ = m.Allocate(4, 32, 0, 0) // newest now
	for i := 10; i < 40; i++ {
		_, _ = m.Allocate(i, 1, 0, 0) // churn the log past compaction
		m.Free(i)
	}
	if ev := m.EvictMostRecent(8); len(ev) != 2 || ev[0] != 4 || ev[1] != 7 {
		t.Fatalf("evicted = %v, want [4 7]", ev)
	}
}

func TestEvictNoOpWhenEnoughFree(t *testing.T) {
	m := mustManager(t, 160, 16)
	_, _ = m.Allocate(1, 16, 0, 0)
	if ev := m.EvictMostRecent(1); ev != nil {
		t.Errorf("needless eviction: %v", ev)
	}
}

func TestSnapshotSortedByID(t *testing.T) {
	m := mustManager(t, 1600, 16)
	for _, id := range []int{5, 1, 3} {
		_, _ = m.Allocate(id, 20, 0, 0)
	}
	snap := m.Snapshot()
	if len(snap) != 3 || snap[0].ID != 1 || snap[1].ID != 3 || snap[2].ID != 5 {
		t.Errorf("snapshot = %v", snap)
	}
	if snap[0].Blocks != 2 || snap[0].Shared != 0 {
		t.Errorf("snapshot entry = %+v", snap[0])
	}
}

// Property: under any sequence of operations the accounting invariants
// hold: used == sum of per-seq blocks, 0 <= used <= capacity, blocks
// always match BlocksFor of the owner's token count.
func TestAccountingInvariantProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := NewManager(16*64, 16)
		live := map[int]int{} // id -> the owner's token count
		next := 0
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0:
				next++
				tokens := rng.Intn(200) + 1
				if m.CanAllocate(tokens, 0, 0) {
					if _, err := m.Allocate(next, tokens, 0, 0); err != nil {
						return false
					}
					live[next] = tokens
				} else if _, err := m.Allocate(next, tokens, 0, 0); err == nil {
					return false // CanAllocate said no but Allocate worked
				}
			case 1:
				for id, tokens := range live {
					n := tokens + rng.Intn(40) + 1
					if m.CanGrow(id, n) {
						if err := m.Grow(id, n); err != nil {
							return false
						}
						live[id] = n
					}
					break
				}
			case 2:
				for id := range live {
					m.Free(id)
					delete(live, id)
					break
				}
			}
			sum := 0
			for _, s := range m.Snapshot() {
				if s.Blocks != m.BlocksFor(live[s.ID]) {
					return false
				}
				sum += s.Blocks
			}
			if sum != m.UsedBlocks() || m.UsedBlocks() < 0 || m.UsedBlocks() > m.CapacityBlocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
