package kvcache

// KV hand-off: serializing a sequence's block window out of one manager
// and re-materializing it in another (or the same one), preserving
// shared-prefix ref-counts and the sharing counters. This is the
// substrate of disaggregated prefill/decode serving: a prefill replica
// exports the finished prefix KV, the modeled interconnect carries the
// blocks, and the decode replica imports them and resumes generation.
//
// A shared block is named by its prefix group and its position in the
// group's prefix (see sharing.go), and those names mean the same in
// every manager, so an export referencing group-shared blocks imports
// into any manager: resident chain blocks are re-referenced instead of
// re-stored, which is exactly the affinity signal a disaggregated
// router exploits. Shared blocks are full prefix blocks only; ImportKV
// rejects an export whose shared blocks cover more tokens than it
// holds.

import "fmt"

// ExportedSeq is a portable description of one sequence's KV block
// window: how many tokens it caches, how many private blocks back it,
// and which shared prefix blocks it references — the first
// SharedBlocks blocks of group Group's chain.
type ExportedSeq struct {
	// Tokens is the cached token count.
	Tokens int
	// PrivateBlocks is the number of blocks owned solely by the
	// sequence; their contents always travel with the export.
	PrivateBlocks int
	// Group is the prefix group of the shared blocks.
	Group int
	// SharedBlocks is how many of the group's blocks, from the root,
	// the sequence referenced. On import, resident ones are
	// re-referenced in place and missing ones re-inserted from the
	// transferred data.
	SharedBlocks int
}

// Blocks returns the total block footprint of the export.
func (ex ExportedSeq) Blocks() int { return ex.PrivateBlocks + ex.SharedBlocks }

// export describes sequence id's block window holding tokens tokens,
// the owner's count, which must need exactly the window's blocks.
func (m *Manager) export(op string, id, tokens int) (ExportedSeq, error) {
	s := m.slot(id)
	if s == nil {
		return ExportedSeq{}, fmt.Errorf("kvcache: %s of unknown sequence %d", op, id)
	}
	if tokens <= 0 || m.BlocksFor(tokens) != s.blocks+s.shared {
		return ExportedSeq{}, fmt.Errorf("kvcache: %s of sequence %d: %d tokens need %d blocks, it holds %d",
			op, id, tokens, m.BlocksFor(tokens), s.blocks+s.shared)
	}
	return ExportedSeq{Tokens: tokens, PrivateBlocks: s.blocks, Group: s.group, SharedBlocks: s.shared}, nil
}

// ExportKV detaches sequence id, caching tokens tokens by its owner's
// count, from the manager and returns its block window. The sequence's
// private blocks are released (their contents travel with the export)
// and its references on shared blocks are dropped — still-referenced
// blocks stay, zero-ref blocks stay resident as warm cache exactly as
// Free leaves them. No sharing counters are touched: an export followed
// by an import leaves the manager's statistics identical to never
// having exported.
func (m *Manager) ExportKV(id, tokens int) (ExportedSeq, error) {
	ex, err := m.export("export", id, tokens)
	if err == nil {
		m.Free(id)
	}
	return ex, err
}

// SnapshotKV returns sequence id's block window like ExportKV but
// WITHOUT detaching it: the sequence stays allocated and decoding can
// continue. This is the periodic-checkpoint primitive — a crash-safe
// copy a recovery path can later feed to ImportKV on another manager.
// The snapshot is a value, so it stays valid as the live sequence keeps
// growing past it.
func (m *Manager) SnapshotKV(id, tokens int) (ExportedSeq, error) {
	return m.export("snapshot", id, tokens)
}

// ResidentBlocks returns how many of ex's shared blocks are resident in
// m right now — blocks an import would reference instead of re-storing,
// and KV a hand-off need not move again. Private blocks are never
// resident elsewhere, so they do not count.
func (m *Manager) ResidentBlocks(ex ExportedSeq) int {
	resident, _ := m.chain(ex.Group, ex.SharedBlocks).residency(ex.SharedBlocks)
	return resident
}

// MissingBlocks returns the blocks an import of ex into m would have to
// store: the private blocks plus every shared block not resident here.
// This sizes the import's memory footprint — the headroom a
// disaggregated router checks before placing a hand-off. (The modeled
// transfer always moves the whole window, ex.Blocks(); residency
// saves storage on the target, not link traffic.)
func (m *Manager) MissingBlocks(ex ExportedSeq) int {
	return ex.Blocks() - m.ResidentBlocks(ex)
}

// CanImport reports whether ImportKV(id, ex) would fit right now, by
// the fit rule of every admission: warm blocks count as reclaimable
// space, except those of the export's own chain, which the import
// references first.
func (m *Manager) CanImport(ex ExportedSeq) bool {
	return m.fits(ex.Group, ex.SharedBlocks, ex.Blocks())
}

// ImportKV re-materializes an exported sequence as id. Resident shared
// blocks are re-referenced in place; missing ones are re-inserted from
// the transferred data (ref 1); private blocks are re-allocated. It
// returns the number of shared blocks found resident (KV the import did
// not have to store). Like ExportKV it leaves the sharing counters
// untouched, so an export/import round trip is invisible in the
// statistics.
func (m *Manager) ImportKV(id int, ex ExportedSeq) (int, error) {
	if ex.Tokens <= 0 {
		return 0, fmt.Errorf("kvcache: import of %d tokens", ex.Tokens)
	}
	// Shared blocks are full blocks, so they may not cover more tokens
	// than the export holds.
	if ex.PrivateBlocks < 0 || ex.SharedBlocks < 0 || ex.Blocks() != m.BlocksFor(ex.Tokens) || ex.SharedBlocks*m.blockSize > ex.Tokens {
		return 0, fmt.Errorf("kvcache: malformed export: %d tokens need %d blocks with at most %d shared, export carries %d private and %d shared",
			ex.Tokens, m.BlocksFor(ex.Tokens), ex.Tokens/m.blockSize, ex.PrivateBlocks, ex.SharedBlocks)
	}
	return m.admit(id, ex.Group, ex.SharedBlocks, ex.Blocks())
}

// AvailableBlocks returns blocks an allocation could take right now:
// free blocks plus warm shared blocks reclaimable under pressure.
func (m *Manager) AvailableBlocks() int { return m.capacity - m.used + m.reclaimable }
