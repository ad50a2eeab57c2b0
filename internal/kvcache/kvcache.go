// Package kvcache implements a paged KV-cache block manager in the
// style of vLLM's PagedAttention allocator: per-request token counts are
// rounded up to fixed-size blocks drawn from a bounded pool. The
// schedulers use it for admission control, the greedy-prefill simulation
// for capacity checks, and the baselines for recompute-eviction when
// memory overflows (paper §4.1 "re-computation strategy").
//
// The manager keeps blocks, not tokens: the scheduler that owns a
// sequence owns its token count. A call that sizes a window from tokens
// (Allocate, Grow, ExportKV, SnapshotKV) takes the owner's count, so a
// decoding sequence calls Grow only when its next token opens a new
// block, not once per token.
package kvcache

import "fmt"

// DefaultBlockSize is vLLM's default block granularity in tokens.
const DefaultBlockSize = 16

// Manager tracks block allocations for a set of sequences against a
// fixed capacity. It is not safe for concurrent use; in TD-Pipe only the
// centralized engine touches it, which mirrors the paper's design.
//
// Sequence ids are expected to be small and dense (the engines number
// requests 0..n-1): the per-sequence table is a flat slice indexed by
// id, so a lookup costs an array index, not a map probe.
//
// Beyond per-sequence private blocks, the manager supports ref-counted
// shared prefix blocks (see sharing.go): a sequence may reference the
// first blocks of its prefix group's chain, paying for each shared
// block only once across the sequences that reference it. Shared blocks
// are indexed by group, then by position in the group's prefix.
type Manager struct {
	blockSize int
	capacity  int // blocks

	// used counts private blocks (summed over sequences) plus every
	// resident shared block exactly once, warm or referenced.
	used int
	// seqs is a dense window over sequence ids: seqs[i] holds id
	// base+i, and arrival == 0 marks an absent sequence (allocSeq
	// stamps start at 1). The window rebases whenever the table
	// empties, so long-lived managers serving ever-increasing ids stay
	// small.
	seqs []seqAlloc
	base int
	live int

	// chains holds each prefix group's shared blocks by position;
	// blocks whose refcount drops to zero stay resident ("warm") until
	// reclaimed under memory pressure.
	chains      map[int]*prefixChain
	sharedN     int // resident shared blocks
	reclaimable int // shared blocks with zero refs
	touchSeq    int // LRU clock for shared-block reclaim
	stats       ShareStats

	// peak tracks the high-water mark in blocks.
	peak int
	// allocSeq orders allocations for most-recent-first eviction.
	allocSeq int
	// order lists allocations by ascending arrival stamp, so eviction
	// walks it from the newest. Freed sequences leave stale entries
	// (their slot is gone or carries a newer stamp) that setSeq
	// compacts away once they outnumber the live ones.
	order []seqRef
}

type seqAlloc struct {
	// blocks counts the sequence's private blocks. The sequence also
	// references the first shared blocks of group's chain, which are
	// counted once globally.
	blocks  int
	group   int
	shared  int
	arrival int
	// spared marks a sequence EvictMostRecent must not evict; it is set
	// only during that call.
	spared bool
}

// seqRef names one allocation in the arrival log.
type seqRef struct{ id, arrival int }

// NewManager returns a manager with capacity for capacityTokens tokens
// at the given block size (DefaultBlockSize if blockSize <= 0). The
// capacity is rounded UP to whole blocks, so a capacity that is not a
// multiple of the block size still admits every requested token rather
// than silently truncating to the next-lower block boundary.
func NewManager(capacityTokens, blockSize int) (*Manager, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if capacityTokens <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive capacity %d", capacityTokens)
	}
	return &Manager{
		blockSize: blockSize,
		capacity:  (capacityTokens + blockSize - 1) / blockSize,
		chains:    make(map[int]*prefixChain),
	}, nil
}

// AlignTokens floors tokens to a whole-block multiple of blockSize
// (DefaultBlockSize if blockSize <= 0). Callers that derived a token
// budget from raw bytes pass their capacity through this to keep the
// pre-rounding block count now that NewManager rounds up instead of
// silently truncating.
func AlignTokens(tokens, blockSize int) int {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return tokens - tokens%blockSize
}

// BlockSize returns the block granularity in tokens.
func (m *Manager) BlockSize() int { return m.blockSize }

// CapacityBlocks returns the total block count.
func (m *Manager) CapacityBlocks() int { return m.capacity }

// CapacityTokens returns the capacity in tokens.
func (m *Manager) CapacityTokens() int { return m.capacity * m.blockSize }

// UsedBlocks returns blocks currently allocated.
func (m *Manager) UsedBlocks() int { return m.used }

// FreeBlocks returns blocks currently available.
func (m *Manager) FreeBlocks() int { return m.capacity - m.used }

// UsageRatio returns used/capacity in [0,1].
func (m *Manager) UsageRatio() float64 {
	return float64(m.used) / float64(m.capacity)
}

// PeakBlocks returns the allocation high-water mark.
func (m *Manager) PeakBlocks() int { return m.peak }

// Live returns the number of resident sequences.
func (m *Manager) Live() int { return m.live }

// slot returns id's table entry, or nil if id is not resident.
func (m *Manager) slot(id int) *seqAlloc {
	i := id - m.base
	if i < 0 || i >= len(m.seqs) || m.seqs[i].arrival == 0 {
		return nil
	}
	return &m.seqs[i]
}

// setSeq installs s for id, growing the dense table as needed.
//
// Invariant: every table slot at index >= len(m.seqs) and < cap is
// zero — fresh capacity comes zeroed from make, Free zeroes slots, and
// the table only shrinks (rebases) when all slots have been freed — so
// reslicing into spare capacity needs no clearing.
func (m *Manager) setSeq(id int, s seqAlloc) {
	if m.live == 0 {
		// Empty table: rebase the window to this id, so a long-lived
		// manager serving ever-increasing ids reuses its buffer
		// instead of growing with the id space.
		m.base = id
		m.seqs = m.seqs[:0]
		m.order = m.order[:0]
	}
	if id < m.base {
		// Rare: extend the window downward by rebasing to id.
		shift := m.base - id
		grown := make([]seqAlloc, len(m.seqs)+shift, max(2*(len(m.seqs)+shift), 16))
		copy(grown[shift:], m.seqs)
		m.seqs = grown
		m.base = id
	}
	i := id - m.base
	if i >= len(m.seqs) {
		if i < cap(m.seqs) {
			m.seqs = m.seqs[:i+1]
		} else {
			grown := make([]seqAlloc, i+1, max(2*(i+1), 16))
			copy(grown, m.seqs)
			m.seqs = grown
		}
	}
	if m.seqs[i].arrival == 0 {
		m.live++
	}
	m.seqs[i] = s
	if len(m.order) >= 2*m.live+16 {
		// Drop the stale entries: amortized O(1) per allocation, since
		// at least half the log goes each time.
		live := m.order[:0]
		for _, r := range m.order {
			if m.current(r) {
				live = append(live, r)
			}
		}
		m.order = live
	}
	m.order = append(m.order, seqRef{id, s.arrival})
}

// current reports whether r still names a resident allocation.
func (m *Manager) current(r seqRef) bool {
	s := m.slot(r.id)
	return s != nil && s.arrival == r.arrival
}

// Has reports whether sequence id is resident.
func (m *Manager) Has(id int) bool { return m.slot(id) != nil }

// BlocksFor returns the number of blocks needed for tokens tokens.
func (m *Manager) BlocksFor(tokens int) int {
	return (tokens + m.blockSize - 1) / m.blockSize
}

// CanAllocate reports whether Allocate would fit a new sequence of
// tokens tokens whose first prefixTokens tokens belong to group's
// shared prefix (prefixTokens 0: no sharing).
//
//det:hotpath
func (m *Manager) CanAllocate(tokens, group, prefixTokens int) bool {
	return m.fits(group, m.chainLen(tokens, prefixTokens), m.BlocksFor(tokens))
}

// Allocate reserves blocks for a new sequence of tokens tokens whose
// first prefixTokens tokens are group's shared prefix (prefixTokens 0:
// no sharing). Resident chain blocks are referenced instead of
// re-allocated; missing ones are inserted (ref 1) so later sequences
// hit them. It returns the contiguous hit length in tokens — prefill
// work the caller may skip.
func (m *Manager) Allocate(id, tokens, group, prefixTokens int) (hit int, err error) {
	if tokens <= 0 {
		return 0, fmt.Errorf("kvcache: allocate %d tokens", tokens)
	}
	n := m.chainLen(tokens, prefixTokens)
	// Only the run from the root skips prefill work: KV for position t
	// needs every earlier position resident too.
	hit = m.MatchPrefix(group, n*m.blockSize)
	resident, err := m.admit(id, group, n, m.BlocksFor(tokens))
	if err != nil {
		return 0, err
	}
	m.stats.HitBlocks += resident
	m.stats.MissBlocks += n - resident
	return hit, nil
}

// fits is the fit rule of every admission: whether a window of total
// blocks, whose first shared are group's chain from the root, fits
// right now. Resident chain blocks are already paid for and other warm
// blocks are reclaimable — but a warm block of this chain counts once:
// admit references it first, which takes it out of the reclaimable
// pool.
//
//det:hotpath
func (m *Manager) fits(group, shared, total int) bool {
	resident, residentWarm := m.chain(group, shared).residency(shared)
	return total-resident <= m.AvailableBlocks()-residentWarm
}

// admit installs id with a window of total blocks whose first shared
// are group's chain from the root, the one path of Allocate and
// ImportKV. Resident chain blocks are referenced first, so reclaim
// cannot drop them while take makes room for the rest; missing ones
// are inserted (ref 1). It returns how many chain blocks were
// resident. On out of memory it drops its references again, but warm
// blocks reclaimed on the way stay reclaimed.
func (m *Manager) admit(id, group, shared, total int) (resident int, err error) {
	if id < 0 {
		return 0, fmt.Errorf("kvcache: negative sequence id %d", id)
	}
	if m.Has(id) {
		return 0, fmt.Errorf("kvcache: sequence %d already allocated", id)
	}
	c := m.chain(group, shared)
	resident = m.ref(c, shared, +1)
	if need := total - resident; !m.take(need) {
		m.ref(c, shared, -1)
		return 0, fmt.Errorf("kvcache: out of memory admitting sequence %d: need %d blocks, free %d", id, need, m.FreeBlocks())
	}
	m.fill(group, c, shared)
	m.allocSeq++
	m.setSeq(id, seqAlloc{blocks: total - shared, group: group, shared: shared, arrival: m.allocSeq})
	return resident, nil
}

// take books n blocks, reclaiming warm shared blocks first if the free
// pool alone is too small. It reports false, booking nothing, if they
// do not fit even then.
func (m *Manager) take(n int) bool {
	if n > m.FreeBlocks() {
		m.reclaim(n - m.FreeBlocks())
	}
	if n > m.FreeBlocks() {
		return false
	}
	m.used += n
	m.peak = max(m.peak, m.used)
	return true
}

// CanGrow reports whether sequence id's window can grow to hold tokens
// tokens, counting warm shared blocks as reclaimable space.
func (m *Manager) CanGrow(id, tokens int) bool {
	s := m.slot(id)
	return s != nil && m.fits(0, 0, m.BlocksFor(tokens)-s.shared-s.blocks)
}

// Grow sizes sequence id's window to hold tokens tokens, the owner's
// new count, taking private blocks as needed. A sequence's shared
// blocks are full prefix blocks (ImportKV rejects any other kind), so
// growth only ever writes private blocks. A count the window already
// holds takes nothing; one it exceeds the need of is an error, since a
// window never shrinks while the sequence lives.
func (m *Manager) Grow(id, tokens int) error {
	s := m.slot(id)
	if s == nil {
		return fmt.Errorf("kvcache: grow of unknown sequence %d", id)
	}
	grow := m.BlocksFor(tokens) - s.shared - s.blocks
	switch {
	case grow < 0:
		return fmt.Errorf("kvcache: sequence %d holds %d blocks, more than %d tokens need", id, s.shared+s.blocks, tokens)
	case !m.take(grow):
		return fmt.Errorf("kvcache: out of memory growing sequence %d: need %d blocks, free %d", id, grow, m.FreeBlocks())
	}
	s.blocks += grow
	return nil
}

// Free releases sequence id's private blocks and drops its references
// on shared blocks. Shared blocks still referenced by other sequences
// stay; blocks whose refcount reaches zero stay resident as warm cache
// until reclaimed under pressure. Freeing an absent id is a no-op,
// matching allocator conventions (a double free drops no refs twice).
func (m *Manager) Free(id int) {
	s := m.slot(id)
	if s == nil {
		return
	}
	m.used -= s.blocks
	m.ref(m.chain(s.group, s.shared), s.shared, -1)
	*s = seqAlloc{}
	m.live--
}

// EvictMostRecent frees the most recently admitted sequences until at
// least needBlocks are available, returning the evicted ids (most recent
// first). This is the paper's recompute strategy: "the KV cache of
// recently arrived requests will be freed once memory capacity is
// saturated". It never evicts an id listed in spare. The walk starts at
// the newest allocation of the arrival log and stops as soon as enough
// is free, so it costs the victims and the spared sequences it passes,
// not the whole table.
func (m *Manager) EvictMostRecent(needBlocks int, spare ...[]int) []int {
	// Warm shared blocks are the cheapest space: reclaim them before
	// evicting any live sequence (no recompute needed to restore them).
	if m.FreeBlocks() < needBlocks {
		m.reclaim(needBlocks - m.FreeBlocks())
	}
	if m.FreeBlocks() >= needBlocks {
		return nil
	}
	m.markSpared(spare, true)
	var evicted []int
	for i := len(m.order) - 1; i >= 0 && m.FreeBlocks() < needBlocks; i-- {
		r := m.order[i]
		if !m.current(r) || m.slot(r.id).spared {
			continue
		}
		m.Free(r.id)
		// Freeing a sharing sequence may only have dropped refs; turn
		// any now-warm blocks into free space before evicting more.
		if m.FreeBlocks() < needBlocks {
			m.reclaim(needBlocks - m.FreeBlocks())
		}
		evicted = append(evicted, r.id)
	}
	m.markSpared(spare, false)
	return evicted
}

// markSpared sets the spared mark of every resident id in lists.
func (m *Manager) markSpared(lists [][]int, on bool) {
	for _, ids := range lists {
		for _, id := range ids {
			if s := m.slot(id); s != nil {
				s.spared = on
			}
		}
	}
}

// Snapshot returns the resident sequences' block footprints sorted by
// id, for deterministic iteration by schedulers. The dense table
// iterates in id order, so no sort is needed.
func (m *Manager) Snapshot() []SeqInfo {
	out := make([]SeqInfo, 0, m.live)
	for i := range m.seqs {
		s := m.seqs[i]
		if s.arrival == 0 {
			continue
		}
		out = append(out, SeqInfo{ID: m.base + i, Blocks: s.blocks + s.shared, Shared: s.shared})
	}
	return out
}

// SeqInfo describes one resident sequence.
type SeqInfo struct {
	ID int
	// Blocks is the total block footprint; Shared of them are
	// ref-counted shared prefix blocks (counted once fleet-wide).
	Blocks int
	Shared int
}
