package kvcache

// Prefix sharing: PagedAttention-style ref-counted block reuse behind a
// prefix trie of hash-chained block keys.
//
// Requests that open with the same shared prefix (system prompt,
// conversation history) map their first full blocks to the same chain
// of keys: key_i = mix(key_{i-1}, i), rooted at the prefix group. The
// chain IS the trie — looking up a prefix walks keys from the root and
// stops at the first miss, so a longer conversation extends a shorter
// one's chain instead of duplicating it. Each resident shared block is
// counted once in the pool no matter how many sequences reference it;
// blocks whose refcount drops to zero stay resident ("warm") and are
// reclaimed LRU, chain tails first, only under memory pressure.
//
// Only full prefix blocks are shared, so a sequence's shared blocks
// all precede its private ones and decode appends never write a shared
// block: Append grows private blocks only.

import (
	"fmt"
	"sort"
)

// sharedBlock is one resident ref-counted block.
type sharedBlock struct {
	refs    int
	lastUse int // touchSeq stamp; LRU order for reclaiming warm blocks
}

// ShareStats counts prefix-sharing traffic since the manager was built.
type ShareStats struct {
	// HitBlocks/MissBlocks count shared-prefix blocks found resident
	// vs. newly inserted at allocation time.
	HitBlocks, MissBlocks int
	// ReclaimedBlocks counts warm blocks dropped under memory pressure.
	ReclaimedBlocks int
}

// Stats returns the sharing counters.
func (m *Manager) Stats() ShareStats { return m.stats }

// SharedBlocks returns the number of resident shared blocks.
func (m *Manager) SharedBlocks() int { return len(m.shared) }

// WarmBlocks returns resident shared blocks no live sequence references.
func (m *Manager) WarmBlocks() int { return m.reclaimable }

// chainRoot returns the hash state group's chain of block keys starts
// from. chainNext advances state h to block index i; the new state is
// also block i's key. Together they form a splitmix-style chain rooted
// at the group id, so equal (group, block index) pairs collide on
// purpose and everything else does not (up to 64-bit hashing). Probes
// walk the chain one key at a time and stop early; only AllocateShared
// materializes it (chainKeys), for the sequence to keep.
func chainRoot(group int) uint64 { return uint64(group)*0x9E3779B97F4A7C15 + 0x85EBCA77C2B2AE63 }

func chainNext(h uint64, i int) uint64 {
	h += uint64(i) + 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// chainKeys returns the keys of the first n full blocks of group's
// shared prefix.
func chainKeys(group, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	keys := make([]uint64, n)
	h := chainRoot(group)
	for i := range keys {
		h = chainNext(h, i)
		keys[i] = h
	}
	return keys
}

// touch advances the LRU clock and returns the new stamp.
func (m *Manager) touch() int {
	m.touchSeq++
	return m.touchSeq
}

// MatchPrefix returns how many tokens of the first prefixTokens tokens
// of group's shared prefix are resident right now — the longest warm or
// referenced chain walk from the root, in whole blocks. This is the
// signal cache-affinity dispatch reads and the prefill skip the engine
// applies. The router probes every replica on every arrival and most
// probes miss at the root, so the walk hashes lazily and stops at the
// first miss.
//
//det:hotpath
func (m *Manager) MatchPrefix(group, prefixTokens int) int {
	n := prefixTokens / m.blockSize
	h := chainRoot(group)
	hit := 0
	for ; hit < n; hit++ {
		h = chainNext(h, hit)
		if _, ok := m.shared[h]; !ok {
			break
		}
	}
	return hit * m.blockSize
}

// chainLen returns how many full blocks of a tokens-token sequence
// belong to its prefixTokens-token shared prefix.
func (m *Manager) chainLen(tokens, prefixTokens int) int {
	return min(max(prefixTokens, 0), tokens) / m.blockSize
}

// CanAllocateShared reports whether AllocateShared would fit a new
// sequence of tokens tokens whose first prefixTokens tokens belong to
// group's shared prefix. Resident chain blocks are already paid for and
// other warm blocks are reclaimable — but a warm block of this chain
// counts once: the allocation references it first, which takes it out
// of the reclaimable pool (mirrors CanImport).
//
//det:hotpath
func (m *Manager) CanAllocateShared(tokens, group, prefixTokens int) bool {
	n := m.chainLen(tokens, prefixTokens)
	h := chainRoot(group)
	resident, residentWarm := 0, 0
	for i := 0; i < n; i++ {
		h = chainNext(h, i)
		if b, ok := m.shared[h]; ok {
			resident++
			if b.refs == 0 {
				residentWarm++
			}
		}
	}
	return m.BlocksFor(tokens)-resident <= m.FreeBlocks()+m.reclaimable-residentWarm
}

// AllocateShared reserves blocks for a new sequence whose first
// prefixTokens tokens are group's shared prefix. Resident chain blocks
// are referenced instead of re-allocated; missing ones are inserted
// (ref 1) so later sequences hit them. It returns the contiguous hit
// length in tokens — prefill work the caller may skip.
func (m *Manager) AllocateShared(id, tokens, group, prefixTokens int) (int, error) {
	if tokens <= 0 {
		return 0, fmt.Errorf("kvcache: allocate %d tokens", tokens)
	}
	if id < 0 {
		return 0, fmt.Errorf("kvcache: negative sequence id %d", id)
	}
	if m.Has(id) {
		return 0, fmt.Errorf("kvcache: sequence %d already allocated", id)
	}
	keys := chainKeys(group, m.chainLen(tokens, prefixTokens))
	// Reference resident chain blocks first so reclaim cannot drop them
	// while making room for the rest. Only a contiguous chain from the
	// root skips prefill work: KV for position t needs every earlier
	// position resident too.
	hitBlocks, contig := 0, len(keys)
	for i, k := range keys {
		b, ok := m.shared[k]
		if !ok {
			contig = min(contig, i)
			continue
		}
		hitBlocks++
		b.refs++
		if b.refs == 1 {
			m.reclaimable--
		}
	}
	need := m.BlocksFor(tokens) - hitBlocks // missing chain + private blocks
	if need > m.FreeBlocks() {
		m.reclaim(need - m.FreeBlocks())
	}
	if need > m.FreeBlocks() {
		// Roll the references back. Referenced blocks survive reclaim and
		// nothing was inserted, so the resident keys are the hit ones.
		for _, k := range keys {
			if b, ok := m.shared[k]; ok {
				b.refs--
				if b.refs == 0 {
					m.reclaimable++
				}
			}
		}
		return 0, fmt.Errorf("kvcache: out of memory: need %d blocks, free %d", need, m.FreeBlocks())
	}
	// Insert the missing blocks and touch tail-first so LRU reclaim
	// drops chain tails before roots, keeping surviving chains
	// contiguous (and so hittable).
	for i := len(keys) - 1; i >= 0; i-- {
		b, ok := m.shared[keys[i]]
		if !ok {
			b = &sharedBlock{refs: 1}
			m.shared[keys[i]] = b
			m.used++
		}
		b.lastUse = m.touch()
	}
	priv := m.BlocksFor(tokens) - len(keys)
	m.allocSeq++
	m.setSeq(id, seqAlloc{tokens: tokens, blocks: priv, keys: keys, arrival: m.allocSeq})
	m.used += priv
	if m.used > m.peak {
		m.peak = m.used
	}
	m.stats.HitBlocks += hitBlocks
	m.stats.MissBlocks += len(keys) - hitBlocks
	return contig * m.blockSize, nil
}

// reclaim drops up to need warm shared blocks (refs == 0), least
// recently used first, turning cached-but-unreferenced memory back into
// free blocks.
func (m *Manager) reclaim(need int) {
	if need <= 0 || m.reclaimable == 0 {
		return
	}
	type cand struct {
		key     uint64
		lastUse int
	}
	cands := make([]cand, 0, m.reclaimable)
	for k, b := range m.shared {
		if b.refs == 0 {
			cands = append(cands, cand{k, b.lastUse})
		}
	}
	// lastUse stamps are unique (one touch per block event), so the
	// order — and therefore the whole simulation — is deterministic.
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUse < cands[j].lastUse })
	for _, c := range cands {
		if need <= 0 {
			break
		}
		delete(m.shared, c.key)
		m.used--
		m.reclaimable--
		m.stats.ReclaimedBlocks++
		need--
	}
}
