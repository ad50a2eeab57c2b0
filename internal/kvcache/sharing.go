package kvcache

// Prefix sharing: PagedAttention-style ref-counted block reuse, indexed
// by prefix group and block position.
//
// Requests that open with the same shared prefix (system prompt,
// conversation history) map their first full blocks to the same
// positions of their group's chain: block i of the prefix is record i
// of the group's dense record slice. The chain IS the trie — a longer
// conversation extends a shorter one's chain instead of duplicating it,
// and a prefix hit is the run of resident records from the root, which
// each chain keeps up to date. Each resident shared block is counted
// once in the pool no matter how many sequences reference it; blocks
// whose refcount drops to zero stay resident ("warm") and are reclaimed
// LRU, chain tails first, only under memory pressure.
//
// The index needs no hash: the simulator names every shared block by
// its (group, position), where a real prefix cache must hash token
// contents to find the same block.
//
// Only full prefix blocks are shared, so a sequence's shared blocks
// all precede its private ones and decode growth never writes a shared
// block: Grow takes private blocks only.

// sharedBlock is one position of a prefix chain. lastUse == 0 marks a
// position with no resident block (touch stamps start at 1).
type sharedBlock struct {
	refs    int
	lastUse int // touchSeq stamp; LRU order for reclaiming warm blocks
}

// prefixChain is one prefix group's shared blocks, indexed by position.
type prefixChain struct {
	blocks []sharedBlock
	// run counts the resident blocks from the root up to the first
	// missing one: the chain's prefix hit length in blocks.
	run int
	// resident counts the chain's resident blocks; reclaim releases
	// blocks when it reaches zero.
	resident int
}

// span returns the records of c's first n positions that were ever
// written (none for a nil chain).
func (c *prefixChain) span(n int) []sharedBlock {
	if c == nil {
		return nil
	}
	return c.blocks[:min(max(n, 0), len(c.blocks))]
}

// residency counts the resident blocks among c's first n positions and
// how many of them are warm.
func (c *prefixChain) residency(n int) (resident, warm int) {
	for _, b := range c.span(n) {
		if b.lastUse != 0 {
			resident++
			if b.refs == 0 {
				warm++
			}
		}
	}
	return resident, warm
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
func (m *Manager) SharedBlocks() int { return m.sharedN }

// WarmBlocks returns resident shared blocks no live sequence references.
func (m *Manager) WarmBlocks() int { return m.reclaimable }

// chain returns group's chain when n > 0 of its blocks are wanted, and
// nil when none are or the group never had a resident block.
func (m *Manager) chain(group, n int) *prefixChain {
	if n <= 0 {
		return nil
	}
	return m.chains[group]
}

// touch advances the LRU clock and returns the new stamp.
func (m *Manager) touch() int {
	m.touchSeq++
	return m.touchSeq
}

// MatchPrefix returns how many tokens of the first prefixTokens tokens
// of group's shared prefix are resident right now — the run of warm or
// referenced blocks from the root, in whole blocks. This is the signal
// cache-affinity dispatch reads and the prefill skip the engine
// applies. The router probes every replica on every arrival, so the
// answer is one read of the chain's run.
//
//det:hotpath
func (m *Manager) MatchPrefix(group, prefixTokens int) int {
	n := prefixTokens / m.blockSize
	c := m.chain(group, n)
	if c == nil {
		return 0
	}
	return min(c.run, n) * m.blockSize
}

// chainLen returns how many full blocks of a tokens-token sequence
// belong to its prefixTokens-token shared prefix.
func (m *Manager) chainLen(tokens, prefixTokens int) int {
	return min(max(prefixTokens, 0), tokens) / m.blockSize
}

// ref adds delta (+1 or -1) to the refcount of every resident block
// among c's first n positions, moving blocks out of the reclaimable
// pool as they gain their first reference and into it as they lose
// their last, and returns how many blocks it changed. A sequence
// references its chain with +1 before reclaim can run and drops it
// with -1 when freed or rolled back.
func (m *Manager) ref(c *prefixChain, n, delta int) (resident int) {
	blocks := c.span(n)
	for i := range blocks {
		b := &blocks[i]
		if b.lastUse == 0 {
			continue
		}
		resident++
		if b.refs == 0 {
			m.reclaimable--
		}
		if b.refs += delta; b.refs == 0 {
			m.reclaimable++
		}
	}
	return resident
}

// fill inserts the missing blocks among group's first n positions
// (ref 1; admit's take has booked them) into c, or into a new chain if
// c is nil, and touches all n tail-first, so LRU reclaim drops chain
// tails before roots and keeps surviving chains contiguous (and so
// hittable).
func (m *Manager) fill(group int, c *prefixChain, n int) {
	if n <= 0 {
		return
	}
	if c == nil {
		c = &prefixChain{}
		m.chains[group] = c
	}
	if len(c.blocks) < n {
		c.blocks = append(c.blocks, make([]sharedBlock, n-len(c.blocks))...)
	}
	blocks := c.blocks[:n]
	for i := n - 1; i >= 0; i-- {
		b := &blocks[i]
		if b.lastUse == 0 {
			b.refs = 1
			c.resident++
			m.sharedN++
		}
		b.lastUse = m.touch()
	}
	c.run = max(c.run, n)
	for c.run < len(c.blocks) && c.blocks[c.run].lastUse != 0 {
		c.run++
	}
}

// reclaim drops up to need warm shared blocks (refs == 0), least
// recently used first, turning cached-but-unreferenced memory back into
// free blocks. One scan of the index keeps the need oldest warm blocks
// in a bounded max-heap on their stamps; only those are dropped, so a
// call costs one pass over the chains, not a sort of every warm block.
func (m *Manager) reclaim(need int) {
	if need <= 0 || m.reclaimable == 0 {
		return
	}
	// lastUse stamps are unique (one touch per block event), so the
	// selected set — and therefore the whole simulation — is
	// deterministic whatever order the chains are visited in.
	oldest := make(warmHeap, 0, min(need, m.reclaimable))
	for _, c := range m.chains {
		for i, b := range c.blocks {
			if b.lastUse != 0 && b.refs == 0 {
				oldest.offer(warmBlock{c, i, b.lastUse})
			}
		}
	}
	for _, wb := range oldest {
		c := wb.c
		c.blocks[wb.pos] = sharedBlock{}
		c.run = min(c.run, wb.pos)
		if c.resident--; c.resident == 0 {
			// All of this chain's resident blocks were selected, so
			// no block left to drop is in it.
			c.blocks = nil
		}
		m.sharedN--
		m.used--
		m.reclaimable--
		m.stats.ReclaimedBlocks++
	}
}

// warmBlock names a warm shared block and its LRU stamp.
type warmBlock struct {
	c            *prefixChain
	pos, lastUse int
}

// warmHeap is a max-heap on lastUse with a fixed capacity: it keeps the
// cap(h) least recently used blocks offered to it.
type warmHeap []warmBlock

// offer adds wb if the heap has room, or replaces the most recently
// used kept block if wb is older.
func (h *warmHeap) offer(wb warmBlock) {
	s := *h
	if len(s) < cap(s) {
		s = append(s, wb)
		for i := len(s) - 1; i > 0; {
			p := (i - 1) / 2
			if s[p].lastUse >= s[i].lastUse {
				break
			}
			s[p], s[i] = s[i], s[p]
			i = p
		}
		*h = s
		return
	}
	if wb.lastUse >= s[0].lastUse {
		return
	}
	s[0] = wb
	for i := 0; ; {
		big, l := i, 2*i+1
		if l < len(s) && s[l].lastUse > s[big].lastUse {
			big = l
		}
		if r := l + 1; r < len(s) && s[r].lastUse > s[big].lastUse {
			big = r
		}
		if big == i {
			return
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
}
