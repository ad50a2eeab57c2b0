package kvcache

// KV hand-off: serializing a sequence's block window out of one manager
// and re-materializing it in another (or the same one), preserving
// shared-prefix ref-counts and the sharing counters. This is the
// substrate of disaggregated prefill/decode serving: a prefill replica
// exports the finished prefix KV, the modeled interconnect carries the
// blocks, and the decode replica imports them and resumes generation.
//
// Chain keys (hash-chained from the prefix group, see sharing.go) are
// globally consistent, so an export referencing group-shared blocks
// imports into any manager: resident chain blocks are re-referenced
// instead of re-stored, which is exactly the affinity signal a
// disaggregated router exploits. Shared keys name full prefix blocks
// only; ImportKV rejects an export whose keys cover more tokens than it
// holds.

import "fmt"

// ExportedSeq is a portable description of one sequence's KV block
// window: how many tokens it caches, how many private blocks back it,
// and the shared block keys it references, in chain order.
type ExportedSeq struct {
	// Tokens is the cached token count.
	Tokens int
	// PrivateBlocks is the number of blocks owned solely by the
	// sequence; their contents always travel with the export.
	PrivateBlocks int
	// Keys are the shared block keys the sequence referenced, root
	// first. On import, resident keys are re-referenced in place and
	// missing ones re-inserted from the transferred data.
	Keys []uint64
}

// Blocks returns the total block footprint of the export.
func (ex ExportedSeq) Blocks() int { return ex.PrivateBlocks + len(ex.Keys) }

// ExportKV detaches sequence id from the manager and returns its block
// window. The sequence's private blocks are released (their contents
// travel with the export) and its references on shared blocks are
// dropped — still-referenced blocks stay, zero-ref blocks stay resident
// as warm cache exactly as Free leaves them. No sharing counters are
// touched: an export followed by an import leaves the manager's
// statistics identical to never having exported.
func (m *Manager) ExportKV(id int) (ExportedSeq, error) {
	s, ok := m.seq(id)
	if !ok {
		return ExportedSeq{}, fmt.Errorf("kvcache: export of unknown sequence %d", id)
	}
	ex := ExportedSeq{
		Tokens:        s.tokens,
		PrivateBlocks: s.blocks,
		Keys:          append([]uint64(nil), s.keys...),
	}
	m.used -= s.blocks
	for _, k := range s.keys {
		b := m.shared[k]
		b.refs--
		if b.refs == 0 {
			m.reclaimable++
		}
	}
	m.seqs[id-m.base] = seqAlloc{}
	m.live--
	return ex, nil
}

// SnapshotKV returns sequence id's block window like ExportKV but
// WITHOUT detaching it: the sequence stays allocated and decoding can
// continue. This is the periodic-checkpoint primitive — a crash-safe
// copy a recovery path can later feed to ImportKV on another manager.
// The snapshot is immutable (keys are copied), so it stays valid as the
// live sequence keeps appending past it.
func (m *Manager) SnapshotKV(id int) (ExportedSeq, error) {
	s, ok := m.seq(id)
	if !ok {
		return ExportedSeq{}, fmt.Errorf("kvcache: snapshot of unknown sequence %d", id)
	}
	return ExportedSeq{
		Tokens:        s.tokens,
		PrivateBlocks: s.blocks,
		Keys:          append([]uint64(nil), s.keys...),
	}, nil
}

// ResidentBlocks returns how many of ex's shared keys are resident in m
// right now — blocks an import would reference instead of re-storing,
// and KV a hand-off need not move again. Private blocks are never
// resident elsewhere, so they do not count.
func (m *Manager) ResidentBlocks(ex ExportedSeq) int {
	n := 0
	for _, k := range ex.Keys {
		if _, ok := m.shared[k]; ok {
			n++
		}
	}
	return n
}

// MissingBlocks returns the blocks an import of ex into m would have to
// store: the private blocks plus every shared key not resident here.
// This sizes the import's memory footprint — the headroom a
// disaggregated router checks before placing a hand-off. (The modeled
// transfer always moves the whole window, ex.Blocks(); residency
// saves storage on the target, not link traffic.)
func (m *Manager) MissingBlocks(ex ExportedSeq) int {
	return ex.PrivateBlocks + len(ex.Keys) - m.ResidentBlocks(ex)
}

// CanImport reports whether ImportKV(id, ex) would fit right now,
// counting warm shared blocks as reclaimable space — except warm
// blocks that are themselves part of the export's chain: the import
// re-references those first, which takes them out of the reclaimable
// pool, so counting them as headroom too would promise space the
// import cannot actually free (mirrors ImportKV's arithmetic exactly).
func (m *Manager) CanImport(ex ExportedSeq) bool {
	resident, residentWarm := 0, 0
	for _, k := range ex.Keys {
		if b, ok := m.shared[k]; ok {
			resident++
			if b.refs == 0 {
				residentWarm++
			}
		}
	}
	missing := ex.PrivateBlocks + len(ex.Keys) - resident
	return missing <= m.FreeBlocks()+m.reclaimable-residentWarm
}

// ImportKV re-materializes an exported sequence as id. Resident shared
// keys are re-referenced in place; missing ones are re-inserted from the
// transferred data (ref 1); private blocks are re-allocated. It returns
// the number of shared blocks found resident (KV the import did not have
// to store). Like ExportKV it leaves the sharing counters untouched, so
// an export/import round trip is invisible in the statistics.
func (m *Manager) ImportKV(id int, ex ExportedSeq) (int, error) {
	if ex.Tokens <= 0 {
		return 0, fmt.Errorf("kvcache: import of %d tokens", ex.Tokens)
	}
	if id < 0 {
		return 0, fmt.Errorf("kvcache: negative sequence id %d", id)
	}
	if m.Has(id) {
		return 0, fmt.Errorf("kvcache: sequence %d already allocated", id)
	}
	// Shared keys name full blocks, so they may not cover more tokens
	// than the export holds.
	if ex.PrivateBlocks < 0 || ex.Blocks() != m.BlocksFor(ex.Tokens) || len(ex.Keys)*m.blockSize > ex.Tokens {
		return 0, fmt.Errorf("kvcache: malformed export: %d tokens need %d blocks with at most %d shared, export carries %d private and %d shared",
			ex.Tokens, m.BlocksFor(ex.Tokens), ex.Tokens/m.blockSize, ex.PrivateBlocks, len(ex.Keys))
	}
	// Reference resident keys first so reclaim cannot drop them while
	// making room for the rest (mirrors AllocateShared).
	resident := 0
	for _, k := range ex.Keys {
		b, ok := m.shared[k]
		if !ok {
			continue
		}
		resident++
		b.refs++
		if b.refs == 1 {
			m.reclaimable--
		}
	}
	need := ex.PrivateBlocks + len(ex.Keys) - resident
	if need > m.FreeBlocks() {
		m.reclaim(need - m.FreeBlocks())
	}
	if need > m.FreeBlocks() {
		for _, k := range ex.Keys { // roll the references back
			b, ok := m.shared[k]
			if !ok {
				continue
			}
			b.refs--
			if b.refs == 0 {
				m.reclaimable++
			}
		}
		return 0, fmt.Errorf("kvcache: out of memory importing sequence %d: need %d blocks, free %d",
			id, need, m.FreeBlocks())
	}
	for _, k := range ex.Keys {
		if _, ok := m.shared[k]; !ok {
			m.shared[k] = &sharedBlock{refs: 1}
			m.used++
		}
	}
	// Touch tail-first so LRU reclaim drops chain tails before roots,
	// as AllocateShared does.
	for i := len(ex.Keys) - 1; i >= 0; i-- {
		m.shared[ex.Keys[i]].lastUse = m.touch()
	}
	m.allocSeq++
	m.setSeq(id, seqAlloc{
		tokens:  ex.Tokens,
		blocks:  ex.PrivateBlocks,
		keys:    append([]uint64(nil), ex.Keys...),
		arrival: m.allocSeq,
	})
	m.used += ex.PrivateBlocks
	if m.used > m.peak {
		m.peak = m.used
	}
	return resident, nil
}

// AvailableBlocks returns blocks an allocation could take right now:
// free blocks plus warm shared blocks reclaimable under pressure.
func (m *Manager) AvailableBlocks() int { return m.capacity - m.used + m.reclaimable }
