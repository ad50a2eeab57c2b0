package kvcache

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The reference model below is the prefix cache written the slow,
// obvious way: every resident shared block is a (group, position) entry
// in a plain map, every probe walks it block by block, and reclaim
// sorts every warm entry by last use. runModel drives a Manager and the
// model through the same operation sequence on a pool small enough to
// stay under memory pressure, and after every operation compares the
// full state: each block's refcount and LRU stamp (so the order reclaim
// drops blocks in), the sequence table, the counters, and every probe.

type modelKey struct{ group, pos int }

type modelBlock struct{ refs, lastUse int }

type modelSeq struct{ tokens, priv, group, shared, arrival int }

// modelExport is what the model knows of an exported block window.
type modelExport struct{ tokens, priv, group, shared int }

type model struct {
	bs, capacity                int
	used, peak, clock, allocSeq int
	blocks                      map[modelKey]*modelBlock
	seqs                        map[int]*modelSeq
	stats                       ShareStats
}

func newModel(capacityBlocks, bs int) *model {
	return &model{bs: bs, capacity: capacityBlocks, blocks: map[modelKey]*modelBlock{}, seqs: map[int]*modelSeq{}}
}

func (md *model) blocksFor(tokens int) int { return (tokens + md.bs - 1) / md.bs }
func (md *model) free() int                { return md.capacity - md.used }

func (md *model) warm() int {
	n := 0
	for _, b := range md.blocks {
		if b.refs == 0 {
			n++
		}
	}
	return n
}

func (md *model) grow(n int) {
	md.used += n
	md.peak = max(md.peak, md.used)
}

// reclaim drops the need least recently used warm blocks.
func (md *model) reclaim(need int) {
	var warm []modelKey
	for k, b := range md.blocks {
		if b.refs == 0 {
			warm = append(warm, k)
		}
	}
	sort.Slice(warm, func(i, j int) bool { return md.blocks[warm[i]].lastUse < md.blocks[warm[j]].lastUse })
	for _, k := range warm[:min(max(need, 0), len(warm))] {
		delete(md.blocks, k)
		md.used--
		md.stats.ReclaimedBlocks++
	}
}

// claim references group's resident blocks among the first n and
// returns how many there are and the first missing position.
func (md *model) claim(group, n int) (hits, contig int) {
	contig = n
	for i := 0; i < n; i++ {
		if b := md.blocks[modelKey{group, i}]; b != nil {
			hits++
			b.refs++
		} else {
			contig = min(contig, i)
		}
	}
	return hits, contig
}

// release drops one reference on group's resident blocks among the
// first n.
func (md *model) release(group, n int) {
	for i := 0; i < n; i++ {
		if b := md.blocks[modelKey{group, i}]; b != nil {
			b.refs--
		}
	}
}

// fill inserts group's missing blocks among the first n with one
// reference and stamps all n tail-first.
func (md *model) fill(group, n int) {
	for i := n - 1; i >= 0; i-- {
		b := md.blocks[modelKey{group, i}]
		if b == nil {
			b = &modelBlock{refs: 1}
			md.blocks[modelKey{group, i}] = b
			md.used++
		}
		md.clock++
		b.lastUse = md.clock
	}
}

// makeRoom reclaims toward need free blocks and reports whether need
// fits.
func (md *model) makeRoom(need int) bool {
	if need > md.free() {
		md.reclaim(need - md.free())
	}
	return need <= md.free()
}

func (md *model) allocate(id, tokens int) bool {
	need := md.blocksFor(tokens)
	if !md.makeRoom(need) {
		return false
	}
	md.allocSeq++
	md.seqs[id] = &modelSeq{tokens: tokens, priv: need, arrival: md.allocSeq}
	md.grow(need)
	return true
}

func (md *model) allocateShared(id, tokens, group, prefix int) (int, bool) {
	n := min(max(prefix, 0), tokens) / md.bs
	hits, contig := md.claim(group, n)
	if !md.makeRoom(md.blocksFor(tokens) - hits) {
		md.release(group, n)
		return 0, false
	}
	md.fill(group, n)
	priv := md.blocksFor(tokens) - n
	md.allocSeq++
	md.seqs[id] = &modelSeq{tokens: tokens, priv: priv, group: group, shared: n, arrival: md.allocSeq}
	md.grow(priv)
	md.stats.HitBlocks += hits
	md.stats.MissBlocks += n - hits
	return contig * md.bs, true
}

func (md *model) append(id, n int) bool {
	s := md.seqs[id]
	priv := md.blocksFor(s.tokens+n) - s.shared
	if !md.makeRoom(priv - s.priv) {
		return false
	}
	md.grow(priv - s.priv)
	s.tokens += n
	s.priv = priv
	return true
}

func (md *model) free1(id int) {
	s := md.seqs[id]
	if s == nil {
		return
	}
	md.used -= s.priv
	md.release(s.group, s.shared)
	delete(md.seqs, id)
}

func (md *model) snapshot(id int) modelExport {
	s := md.seqs[id]
	return modelExport{tokens: s.tokens, priv: s.priv, group: s.group, shared: s.shared}
}

func (md *model) resident(ex modelExport) int {
	n := 0
	for i := 0; i < ex.shared; i++ {
		if md.blocks[modelKey{ex.group, i}] != nil {
			n++
		}
	}
	return n
}

func (md *model) importKV(id int, ex modelExport) (int, bool) {
	hits, _ := md.claim(ex.group, ex.shared)
	if !md.makeRoom(ex.priv + ex.shared - hits) {
		md.release(ex.group, ex.shared)
		return 0, false
	}
	md.fill(ex.group, ex.shared)
	md.allocSeq++
	md.seqs[id] = &modelSeq{tokens: ex.tokens, priv: ex.priv, group: ex.group, shared: ex.shared, arrival: md.allocSeq}
	md.grow(ex.priv)
	return hits, true
}

func (md *model) evictMostRecent(need int, keep map[int]bool) []int {
	if !md.makeRoom(need) {
		var ids []int
		for id := range md.seqs {
			if !keep[id] {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return md.seqs[ids[i]].arrival > md.seqs[ids[j]].arrival })
		var evicted []int
		for _, id := range ids {
			if md.free() >= need {
				break
			}
			md.free1(id)
			md.makeRoom(need)
			evicted = append(evicted, id)
		}
		return evicted
	}
	return nil
}

func (md *model) matchPrefix(group, prefix int) int {
	hit := 0
	for hit < prefix/md.bs && md.blocks[modelKey{group, hit}] != nil {
		hit++
	}
	return hit * md.bs
}

func (md *model) seqInfos() []SeqInfo {
	out := []SeqInfo{}
	for id, s := range md.seqs {
		out = append(out, SeqInfo{ID: id, Blocks: s.priv + s.shared, Shared: s.shared})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Pool shape of the model runs: 24 blocks of 4 tokens, shared by four
// prefix groups whose chains reach at most 12 blocks.
const (
	modelBS, modelCapBlocks, modelGroups, modelMaxTokens = 4, 24, 4, 12 * 4
)

type heldExport struct {
	ex ExportedSeq
	md modelExport
}

// runModel decodes prog into operations and runs them on a Manager and
// the model side by side, failing at the first divergence.
func runModel(t *testing.T, prog []byte) {
	m, err := NewManager(modelCapBlocks*modelBS, modelBS)
	if err != nil {
		t.Fatal(err)
	}
	md := newModel(modelCapBlocks, modelBS)
	pc := 0
	next := func(n int) int { // the next program byte, modulo n
		if pc >= len(prog) {
			return 0
		}
		pc++
		return int(prog[pc-1]) % n
	}
	var live []int
	var held []heldExport
	nextID := 0
	freshID := func() int {
		nextID += 1 + next(3)
		return nextID
	}
	pick := func() (int, int) { // a live sequence and its index
		i := next(len(live))
		return live[i], i
	}
	drop := func(i int) { live = append(live[:i], live[i+1:]...) }
	for step := 0; pc < len(prog); step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
		}
		switch op := next(9); {
		case op <= 1:
			id, tokens := freshID(), 1+next(modelMaxTokens+modelBS)
			group, prefix := next(modelGroups), next(tokens+2*modelBS)-modelBS
			can := m.CanAllocate(tokens, group, prefix)
			hit, err := m.Allocate(id, tokens, group, prefix)
			wantHit, ok := md.allocateShared(id, tokens, group, prefix)
			if can != (err == nil) || ok != (err == nil) || hit != wantHit {
				fail("Allocate(%d, %d, %d, %d) = %d, %v (can %v), model %d, %v", id, tokens, group, prefix, hit, err, can, wantHit, ok)
			}
			if ok {
				live = append(live, id)
			}
		case op == 2:
			id, tokens := freshID(), 1+next(modelMaxTokens)
			can := m.CanAllocate(tokens, 0, 0)
			_, err := m.Allocate(id, tokens, 0, 0)
			if ok := md.allocate(id, tokens); can != (err == nil) || ok != (err == nil) {
				fail("Allocate(%d, %d) = %v (can %v), model %v", id, tokens, err, can, ok)
			}
			if err == nil {
				live = append(live, id)
			}
		case op == 3 && len(live) > 0:
			id, _ := pick()
			n := 1 + next(2*modelBS)
			// The model owns the token count; the manager sizes the
			// window from it.
			tokens := md.seqs[id].tokens + n
			can := m.CanGrow(id, tokens)
			err := m.Grow(id, tokens)
			if ok := md.append(id, n); can != (err == nil) || ok != (err == nil) {
				fail("Grow(%d, %d) = %v (can %v), model %v", id, tokens, err, can, ok)
			}
		case op == 4 && len(live) > 0:
			id, i := pick()
			m.Free(id)
			md.free1(id)
			if next(4) == 0 {
				m.Free(id) // a double free drops no references
			}
			drop(i)
		case op == 5 && len(live) > 0:
			id, i := pick()
			snap := next(2) == 0
			want := md.snapshot(id)
			var ex ExportedSeq
			var err error
			if snap {
				ex, err = m.SnapshotKV(id, want.tokens)
			} else {
				ex, err = m.ExportKV(id, want.tokens)
				md.free1(id)
				drop(i)
			}
			if err != nil || ex.Tokens != want.tokens || ex.PrivateBlocks != want.priv || exportShared(ex) != want.shared {
				fail("export of %d (snapshot %v) = %+v, %v; model %+v", id, snap, ex, err, want)
			}
			held = append(held, heldExport{ex, want})
		case op == 6 && len(held) > 0:
			i := next(len(held))
			h := held[i]
			id := freshID()
			can := m.CanImport(h.ex)
			res, err := m.ImportKV(id, h.ex)
			wantRes, ok := md.importKV(id, h.md)
			if can != (err == nil) || ok != (err == nil) || res != wantRes {
				fail("ImportKV(%d, %+v) = %d, %v (can %v), model %d, %v", id, h.md, res, err, can, wantRes, ok)
			}
			if ok {
				live = append(live, id)
			}
			if next(2) == 0 {
				held = append(held[:i], held[i+1:]...)
			}
		case op == 7:
			need := 1 + next(modelCapBlocks)
			keep := map[int]bool{}
			var spare []int
			for _, id := range live {
				if next(3) == 0 {
					keep[id] = true
					spare = append(spare, id)
				}
			}
			got, want := m.EvictMostRecent(need, spare), md.evictMostRecent(need, keep)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				fail("EvictMostRecent(%d) = %v, model %v", need, got, want)
			}
			for _, id := range got {
				for i := range live {
					if live[i] == id {
						drop(i)
						break
					}
				}
			}
		}
		compareModel(t, step, m, md, held)
	}
}

// compareModel fails unless m and md agree on every observable.
func compareModel(t *testing.T, step int, m *Manager, md *model, held []heldExport) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	if m.UsedBlocks() != md.used || m.PeakBlocks() != md.peak || m.WarmBlocks() != md.warm() ||
		m.SharedBlocks() != len(md.blocks) || m.Live() != len(md.seqs) ||
		m.AvailableBlocks() != md.free()+md.warm() {
		fail("pool: used %d peak %d warm %d shared %d live %d available %d; model %d %d %d %d %d %d",
			m.UsedBlocks(), m.PeakBlocks(), m.WarmBlocks(), m.SharedBlocks(), m.Live(), m.AvailableBlocks(),
			md.used, md.peak, md.warm(), len(md.blocks), len(md.seqs), md.free()+md.warm())
	}
	if m.Stats() != md.stats {
		fail("stats %+v, model %+v", m.Stats(), md.stats)
	}
	if got, want := fmt.Sprint(m.Snapshot()), fmt.Sprint(md.seqInfos()); got != want {
		fail("sequences %s, model %s", got, want)
	}
	for g := 0; g < modelGroups; g++ {
		for pos := 0; pos <= modelMaxTokens/modelBS; pos++ {
			refs, lastUse, ok := blockState(m, g, pos)
			b := md.blocks[modelKey{g, pos}]
			if ok != (b != nil) || ok && (refs != b.refs || lastUse != b.lastUse) {
				fail("block (%d, %d): refs %d lastUse %d resident %v; model %+v", g, pos, refs, lastUse, ok, b)
			}
		}
		for _, prefix := range []int{-modelBS, 0, 3, 2 * modelBS, 5*modelBS + 1, modelMaxTokens + modelBS} {
			if got, want := m.MatchPrefix(g, prefix), md.matchPrefix(g, prefix); got != want {
				fail("MatchPrefix(%d, %d) = %d, model %d", g, prefix, got, want)
			}
		}
	}
	for _, h := range held {
		res := md.resident(h.md)
		if m.ResidentBlocks(h.ex) != res || m.MissingBlocks(h.ex) != h.md.priv+h.md.shared-res {
			fail("export %+v: resident %d missing %d, model resident %d", h.md, m.ResidentBlocks(h.ex), m.MissingBlocks(h.ex), res)
		}
	}
}

// Property: random operation sequences agree with the reference model
// at every step.
func TestSharedPrefixModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prog := make([]byte, 600)
	for seed := 0; seed < 300; seed++ {
		rng.Read(prog)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runModel(t, prog) })
	}
}

// FuzzSharedPrefixModel runs fuzzer-chosen operation sequences against
// the reference model.
func FuzzSharedPrefixModel(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		prog := make([]byte, 64*(i+1))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runModel)
}

// exportShared returns how many shared blocks ex references.
func exportShared(ex ExportedSeq) int { return ex.SharedBlocks }

// blockState returns the refcount and LRU stamp of group's shared block
// at position pos, and whether that block is resident.
func blockState(m *Manager, group, pos int) (refs, lastUse int, ok bool) {
	if c := m.chains[group]; c != nil && pos < len(c.blocks) && c.blocks[pos].lastUse != 0 {
		return c.blocks[pos].refs, c.blocks[pos].lastUse, true
	}
	return 0, 0, false
}
