package kvcache

import "testing"

// Interleaved allocation and free must keep eviction strictly
// most-recent-first in allocation order, with a re-allocated id taking
// its new, refreshed recency.
func TestEvictionOrderInterleavedAllocFree(t *testing.T) {
	m := mustManager(t, 16*10, 16) // 10 blocks
	for _, id := range []int{1, 2, 3} {
		if _, err := m.Allocate(id, 32, 0, 0); err != nil { // 2 blocks each
			t.Fatal(err)
		}
	}
	m.Free(2)
	for _, id := range []int{4, 5, 2} { // 2 comes back as the newest
		if _, err := m.Allocate(id, 32, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	evicted := m.EvictMostRecent(6)
	if len(evicted) != 3 || evicted[0] != 2 || evicted[1] != 5 || evicted[2] != 4 {
		t.Fatalf("evicted = %v, want [2 5 4] (most recent first)", evicted)
	}
	if !m.Has(1) || !m.Has(3) {
		t.Error("older sequences evicted out of order")
	}
	if m.FreeBlocks() < 6 {
		t.Errorf("free = %d after eviction", m.FreeBlocks())
	}
}

// Two sequences sharing a prefix pay for the shared blocks once; the
// second allocation reports the full hit, and freeing both leaves the
// chain warm and matchable.
func TestAllocateSharedHitMiss(t *testing.T) {
	m := mustManager(t, 16*100, 16)
	hit, err := m.Allocate(1, 100, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 0 {
		t.Errorf("cold allocation hit %d tokens", hit)
	}
	if m.UsedBlocks() != 7 { // 4 shared + ceil(100/16)-4 = 3 private
		t.Errorf("used = %d, want 7", m.UsedBlocks())
	}
	hit, err = m.Allocate(2, 100, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 64 {
		t.Errorf("second allocation hit %d tokens, want 64", hit)
	}
	if m.UsedBlocks() != 10 { // shared counted once: +3 private only
		t.Errorf("used = %d, want 10", m.UsedBlocks())
	}
	if st := m.Stats(); st.HitBlocks != 4 || st.MissBlocks != 4 {
		t.Errorf("stats = %+v, want 4 hits / 4 misses", st)
	}
	// A different group must not hit this chain.
	if got := m.MatchPrefix(8, 64); got != 0 {
		t.Errorf("foreign group matched %d tokens", got)
	}

	m.Free(1)
	if m.WarmBlocks() != 0 { // seq 2 still references the chain
		t.Errorf("warm = %d with a live referencer", m.WarmBlocks())
	}
	m.Free(2)
	if m.WarmBlocks() != 4 || m.UsedBlocks() != 4 {
		t.Errorf("warm = %d used = %d after freeing both, want 4/4", m.WarmBlocks(), m.UsedBlocks())
	}
	if got := m.MatchPrefix(7, 64); got != 64 {
		t.Errorf("warm chain matches %d tokens, want 64", got)
	}
	// The next allocation hits the warm chain without re-paying.
	hit, err = m.Allocate(3, 70, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 64 {
		t.Errorf("warm reuse hit %d tokens, want 64", hit)
	}
}

// Double-freeing a sharing sequence must not drop its references twice.
func TestDoubleFreeSharedDropsRefsOnce(t *testing.T) {
	m := mustManager(t, 16*20, 16)
	if _, err := m.Allocate(1, 64, 3, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(2, 64, 3, 64); err != nil {
		t.Fatal(err)
	}
	m.Free(1)
	m.Free(1) // no-op: refs must not go negative
	if m.WarmBlocks() != 0 {
		t.Fatalf("warm = %d; double free dropped live refs", m.WarmBlocks())
	}
	if got := m.MatchPrefix(3, 64); got != 64 {
		t.Errorf("chain matches %d tokens after double free, want 64", got)
	}
	m.Free(2)
	if m.WarmBlocks() != 4 {
		t.Errorf("warm = %d after final free, want 4", m.WarmBlocks())
	}
}

// Evicting a sequence that shares blocks must only drop its references:
// surviving referencers keep the chain, and warm blocks are reclaimed
// tail-first so the remaining chain stays contiguous and hittable.
func TestEvictWhileShared(t *testing.T) {
	m := mustManager(t, 16*12, 16) // 12 blocks
	if _, err := m.Allocate(1, 64, 5, 64); err != nil {
		t.Fatal(err) // 4 shared
	}
	if _, err := m.Allocate(2, 80, 5, 64); err != nil {
		t.Fatal(err) // +1 private
	}
	if _, err := m.Allocate(3, 112, 0, 0); err != nil { // +7 private: pool full
		t.Fatal(err)
	}
	evicted := m.EvictMostRecent(2, []int{3})
	if len(evicted) != 2 || evicted[0] != 2 || evicted[1] != 1 {
		t.Fatalf("evicted = %v, want [2 1]", evicted)
	}
	if m.FreeBlocks() < 2 {
		t.Errorf("free = %d after eviction", m.FreeBlocks())
	}
	// Eviction dropped refs, then reclaimed only what it needed, from
	// the chain tail: the surviving prefix must still match from the
	// root.
	if got := m.MatchPrefix(5, 64); got != 48 {
		t.Errorf("surviving chain matches %d tokens, want 48", got)
	}
}

// Warm chains are reclaimed LRU tail-first by ordinary allocations too,
// and CanAllocate counts warm blocks as allocatable space.
func TestReclaimKeepsChainContiguous(t *testing.T) {
	m := mustManager(t, 16*8, 16) // 8 blocks
	if _, err := m.Allocate(1, 96, 9, 96); err != nil {
		t.Fatal(err) // 6 shared, 0 private
	}
	m.Free(1)
	if m.WarmBlocks() != 6 || m.FreeBlocks() != 2 {
		t.Fatalf("warm/free = %d/%d, want 6/2", m.WarmBlocks(), m.FreeBlocks())
	}
	if !m.CanAllocate(64, 0, 0) { // needs 4 blocks; 2 free + reclaimable warm
		t.Fatal("CanAllocate ignores reclaimable warm blocks")
	}
	if _, err := m.Allocate(2, 64, 0, 0); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ReclaimedBlocks != 2 {
		t.Errorf("reclaimed = %d, want 2", st.ReclaimedBlocks)
	}
	if got := m.MatchPrefix(9, 96); got != 64 {
		t.Errorf("chain matches %d tokens after tail reclaim, want 64", got)
	}
}

// CanAllocate sizes against missing blocks only, and a full-pool
// shared allocation fails cleanly with references rolled back.
func TestAllocateSharedOOMRollback(t *testing.T) {
	m := mustManager(t, 16*6, 16) // 6 blocks
	if _, err := m.Allocate(1, 64, 2, 64); err != nil {
		t.Fatal(err) // 4 shared
	}
	// 2 free blocks: a 100-token (7-block) newcomer hits 4 shared and
	// needs 3 new -> must be refused even though it shares.
	if m.CanAllocate(112, 2, 64) {
		t.Error("CanAllocate accepted an over-capacity allocation")
	}
	if _, err := m.Allocate(9, 112, 2, 64); err == nil {
		t.Fatal("over-capacity shared allocation accepted")
	}
	// The failed attempt must not leave stray references: freeing the
	// only real referencer leaves the chain fully warm.
	m.Free(1)
	if m.WarmBlocks() != 4 {
		t.Errorf("warm = %d after rollback + free, want 4", m.WarmBlocks())
	}
	// A fitting sharer still succeeds against the warm chain.
	hit, err := m.Allocate(10, 80, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 64 {
		t.Errorf("hit = %d tokens, want 64", hit)
	}
}

// A warm block of the request's own chain is either already paid for or
// reclaimable headroom, never both: Allocate references it first,
// so CanAllocate must not count it twice.
func TestCanAllocateSharedCountsOwnWarmChainOnce(t *testing.T) {
	m := mustManager(t, 16*4, 16) // 4 blocks
	if _, err := m.Allocate(1, 32, 7, 32); err != nil {
		t.Fatal(err) // 2 shared
	}
	m.Free(1) // the 2-block chain stays warm
	if _, err := m.Allocate(2, 32, 0, 0); err != nil {
		t.Fatal(err) // 2 private: 0 free
	}
	// 3 blocks: 2 hit the warm chain, 1 is new, and the only reclaimable
	// blocks are the 2 this allocation is about to reference.
	if m.CanAllocate(48, 7, 32) {
		t.Error("CanAllocate promised room only the hit chain could free")
	}
	if _, err := m.Allocate(3, 48, 7, 32); err == nil {
		t.Fatal("allocation succeeded with no free block")
	}
	// Freeing the private sequence makes room; both sides agree again.
	m.Free(2)
	if !m.CanAllocate(48, 7, 32) {
		t.Error("CanAllocate refused a fitting allocation")
	}
	hit, err := m.Allocate(3, 48, 7, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 32 {
		t.Errorf("hit = %d tokens, want 32", hit)
	}
}
