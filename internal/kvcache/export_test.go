package kvcache

import (
	"math/rand"
	"testing"
)

// exportObs captures every observable the round-trip property compares:
// pool accounting, sharing counters, per-sequence footprints, and the
// refcount of every resident shared block, by (group, position).
type exportObs struct {
	used, live, warm, shared int
	stats                    ShareStats
	seqs                     []SeqInfo
	refs                     map[modelKey]int
}

func observe(m *Manager) exportObs {
	o := exportObs{
		used:   m.UsedBlocks(),
		live:   m.Live(),
		warm:   m.WarmBlocks(),
		shared: m.SharedBlocks(),
		stats:  m.Stats(),
		seqs:   m.Snapshot(),
		refs:   make(map[modelKey]int, m.SharedBlocks()),
	}
	for g, c := range m.chains {
		for pos, b := range c.blocks {
			if b.lastUse != 0 {
				o.refs[modelKey{g, pos}] = b.refs
			}
		}
	}
	return o
}

func sameObs(t *testing.T, label string, got, want exportObs) {
	t.Helper()
	if got.used != want.used || got.live != want.live || got.warm != want.warm || got.shared != want.shared {
		t.Fatalf("%s: pool diverged: got used=%d live=%d warm=%d shared=%d, want used=%d live=%d warm=%d shared=%d",
			label, got.used, got.live, got.warm, got.shared, want.used, want.live, want.warm, want.shared)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: sharing counters diverged: got %+v, want %+v", label, got.stats, want.stats)
	}
	if len(got.seqs) != len(want.seqs) {
		t.Fatalf("%s: %d sequences vs %d", label, len(got.seqs), len(want.seqs))
	}
	for i := range got.seqs {
		if got.seqs[i] != want.seqs[i] {
			t.Fatalf("%s: sequence %d diverged: %+v vs %+v", label, i, got.seqs[i], want.seqs[i])
		}
	}
	if len(got.refs) != len(want.refs) {
		t.Fatalf("%s: shared table sizes differ: %d vs %d", label, len(got.refs), len(want.refs))
	}
	for k, r := range want.refs {
		if got.refs[k] != r {
			t.Fatalf("%s: block %+v refcount %d, want %d", label, k, got.refs[k], r)
		}
	}
}

// Export immediately followed by import must be invisible: ref-counts,
// hit/miss/reclaim counters and every sequence footprint identical to a
// manager that ran the same history without the round trip. The two
// managers run mirrored random workloads (shared allocations, appends,
// frees) with ample capacity, and only one
// of them round-trips sequences through ExportKV/ImportKV.
func TestExportImportRoundTripProperty(t *testing.T) {
	const capTokens, bs = 16 * 1024, 16
	a := mustManager(t, capTokens, bs) // round-trips
	b := mustManager(t, capTokens, bs) // control
	rng := rand.New(rand.NewSource(42))

	live := []int{}
	tokensOf := map[int]int{} // the owner's count per live sequence
	next := 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // allocate, usually onto a shared group chain
			id := next
			next++
			tokens := 1 + rng.Intn(300)
			group := rng.Intn(5)
			prefix := rng.Intn(tokens + 1)
			ha, ea := a.Allocate(id, tokens, group, prefix)
			hb, eb := b.Allocate(id, tokens, group, prefix)
			if (ea == nil) != (eb == nil) || ha != hb {
				t.Fatalf("step %d: alloc diverged: (%d,%v) vs (%d,%v)", step, ha, ea, hb, eb)
			}
			if ea == nil {
				live = append(live, id)
				tokensOf[id] = tokens
			}
		case op < 6 && len(live) > 0: // grow
			id := live[rng.Intn(len(live))]
			n := tokensOf[id] + 1 + rng.Intn(40)
			ea, eb := a.Grow(id, n), b.Grow(id, n)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: grow diverged: %v vs %v", step, ea, eb)
			}
			if ea == nil {
				tokensOf[id] = n
			}
		case op < 8 && len(live) > 0: // free
			i := rng.Intn(len(live))
			id := live[i]
			a.Free(id)
			b.Free(id)
			live = append(live[:i], live[i+1:]...)
		default: // round-trip a live sequence on a only
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			ex, err := a.ExportKV(id, tokensOf[id])
			if err != nil {
				t.Fatalf("step %d: export %d: %v", step, id, err)
			}
			if a.Has(id) {
				t.Fatalf("step %d: sequence %d still resident after export", step, id)
			}
			if _, err := a.ImportKV(id, ex); err != nil {
				t.Fatalf("step %d: import %d: %v", step, id, err)
			}
			sameObs(t, "after round trip", observe(a), observe(b))
		}
	}
	sameObs(t, "final", observe(a), observe(b))
}

// An import into a different manager references whatever chain blocks
// are already resident there and stores only the rest; the source keeps
// still-shared blocks warm.
func TestExportImportCrossManager(t *testing.T) {
	const bs = 16
	src := mustManager(t, 4096, bs)
	dst := mustManager(t, 4096, bs)

	// Destination already serves the first 2 blocks of group 7's chain.
	if _, err := dst.Allocate(0, 2*bs, 7, 2*bs); err != nil {
		t.Fatal(err)
	}
	// Source holds a longer same-group sequence: 4 chain blocks + 1
	// private tail block.
	if _, err := src.Allocate(0, 4*bs+8, 7, 4*bs); err != nil {
		t.Fatal(err)
	}
	ex, err := src.ExportKV(0, 4*bs+8)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Blocks(); got != 5 {
		t.Fatalf("export carries %d blocks, want 5", got)
	}
	if src.UsedBlocks() != 4 {
		// The 4 chain blocks stay resident (warm) on the source.
		t.Errorf("source holds %d blocks after export, want 4 warm", src.UsedBlocks())
	}
	if src.WarmBlocks() != 4 {
		t.Errorf("source warm blocks = %d, want 4", src.WarmBlocks())
	}
	if got := dst.ResidentBlocks(ex); got != 2 {
		t.Fatalf("destination resident blocks = %d, want 2", got)
	}
	if got := dst.MissingBlocks(ex); got != 3 {
		t.Fatalf("destination missing blocks = %d, want 3 (2 chain + 1 private)", got)
	}
	before := dst.Stats()
	hit, err := dst.ImportKV(1, ex)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 2 {
		t.Errorf("import referenced %d resident blocks, want 2", hit)
	}
	if dst.Stats() != before {
		t.Errorf("import moved the sharing counters: %+v vs %+v", dst.Stats(), before)
	}
	if snap, err := dst.SnapshotKV(1, 4*bs+8); err != nil || snap != ex {
		t.Errorf("imported sequence's window %+v (%v), want %+v", snap, err, ex)
	}
	// Both sequences share the chain root blocks: 2 original chain +
	// 2 imported chain + 1 imported private, each counted once.
	if dst.UsedBlocks() != 5 {
		t.Errorf("destination used blocks = %d, want 5", dst.UsedBlocks())
	}
	if err := dst.Grow(1, 4*bs+9); err != nil {
		t.Fatalf("grow after import: %v", err)
	}
}

// A failed import must roll back completely: no refcount, usage or
// reclaimable drift.
func TestImportOOMRollsBack(t *testing.T) {
	const bs = 16
	dst := mustManager(t, 8*bs, bs)
	if _, err := dst.Allocate(0, 6*bs, 0, 0); err != nil {
		t.Fatal(err)
	}
	src := mustManager(t, 4096, bs)
	if _, err := src.Allocate(0, 4*bs, 3, 4*bs); err != nil {
		t.Fatal(err)
	}
	ex, err := src.ExportKV(0, 4*bs)
	if err != nil {
		t.Fatal(err)
	}
	before := observe(dst)
	if dst.CanImport(ex) {
		t.Fatalf("import of %d blocks into %d free should not fit", ex.Blocks(), dst.FreeBlocks())
	}
	if _, err := dst.ImportKV(1, ex); err == nil {
		t.Fatal("oversized import accepted")
	}
	sameObs(t, "after failed import", observe(dst), before)
}

// CanImport must mirror ImportKV's arithmetic exactly: warm blocks
// that belong to the export's own chain are re-referenced by the
// import (leaving the reclaimable pool), so they must not be counted
// as reclaimable headroom on top of being resident. Regression for a
// confirmed false-positive: CanImport said yes, ImportKV failed OOM.
func TestCanImportMatchesImportUnderWarmChain(t *testing.T) {
	const bs = 16
	m := mustManager(t, 4*bs, bs) // capacity: 4 blocks
	// Leave 2 warm zero-ref chain blocks resident (free=2, warm=2).
	if _, err := m.Allocate(0, 2*bs, 9, 2*bs); err != nil {
		t.Fatal(err)
	}
	m.Free(0)
	if m.WarmBlocks() != 2 || m.FreeBlocks() != 2 {
		t.Fatalf("setup: warm=%d free=%d, want 2/2", m.WarmBlocks(), m.FreeBlocks())
	}
	// An export referencing those 2 chain keys plus 3 private blocks
	// needs 3 new blocks but only 2 are genuinely available once the
	// chain is re-referenced.
	src := mustManager(t, 16*bs, bs)
	if _, err := src.Allocate(0, 5*bs, 9, 2*bs); err != nil {
		t.Fatal(err)
	}
	ex, err := src.ExportKV(0, 5*bs)
	if err != nil {
		t.Fatal(err)
	}
	can := m.CanImport(ex)
	_, importErr := m.ImportKV(1, ex)
	if can != (importErr == nil) {
		t.Fatalf("CanImport = %v but ImportKV error = %v", can, importErr)
	}
	if can {
		t.Fatalf("import of %d missing blocks into free=2+warm-chain accepted", m.MissingBlocks(ex))
	}
}

// Malformed exports (token/block mismatch) are rejected.
func TestImportRejectsMalformedExport(t *testing.T) {
	m := mustManager(t, 1024, 16)
	if _, err := m.ImportKV(0, ExportedSeq{Tokens: 64, PrivateBlocks: 1}); err == nil {
		t.Error("import of 64 tokens in 1 block accepted")
	}
	if _, err := m.ImportKV(0, ExportedSeq{Tokens: 0, PrivateBlocks: 0}); err == nil {
		t.Error("import of 0 tokens accepted")
	}
	if _, err := m.ImportKV(-1, ExportedSeq{Tokens: 16, PrivateBlocks: 1}); err == nil {
		t.Error("negative id accepted")
	}
}

// Shared blocks are full prefix blocks, so an export whose shared
// blocks cover more tokens than it holds would leave a partly filled
// shared tail for Grow to write into. ImportKV rejects it, and a
// negative shared count, and leaves the pool as it was; shared blocks
// that exactly cover the tokens import.
func TestImportRejectsPartialSharedTail(t *testing.T) {
	m := mustManager(t, 1024, 16)
	for _, ex := range []ExportedSeq{
		{Tokens: 40, Group: 1, SharedBlocks: 3},
		{Tokens: 40, PrivateBlocks: 4, Group: 1, SharedBlocks: -1},
	} {
		if _, err := m.ImportKV(0, ex); err == nil {
			t.Fatalf("import of %+v accepted", ex)
		}
		if m.UsedBlocks() != 0 || m.SharedBlocks() != 0 || m.Has(0) {
			t.Fatalf("rejected import changed the pool: used=%d shared=%d has=%v", m.UsedBlocks(), m.SharedBlocks(), m.Has(0))
		}
	}
	if _, err := m.ImportKV(0, ExportedSeq{Tokens: 48, Group: 1, SharedBlocks: 3}); err != nil {
		t.Fatalf("import of 3 full shared blocks: %v", err)
	}
	if err := m.Grow(0, 49); err != nil || m.UsedBlocks() != 4 {
		t.Errorf("grow after import: err=%v used=%d, want nil and 4", err, m.UsedBlocks())
	}
}

// FuzzExportImportRebase drives the dense sequence window through its
// rebase boundary: export the only live sequence (the table empties and
// rebases on the next insert), allocate at a distant id, then re-import
// the original id — exercising both the upward reslice and the
// downward rebase of setSeq — and checks the round trip lands intact.
func FuzzExportImportRebase(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(40))
	f.Add(int64(7), uint16(0), uint16(1))
	f.Add(int64(9), uint16(5000), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, gap uint16, tok uint16) {
		tokens := int(tok)%500 + 1
		m, err := NewManager(4096, 16)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		id0 := rng.Intn(50)
		group := rng.Intn(8)
		if _, err := m.Allocate(id0, tokens, group, tokens/2); err != nil {
			t.Fatal(err)
		}
		wantUsed := m.UsedBlocks()
		ex, err := m.ExportKV(id0, tokens)
		if err != nil {
			t.Fatal(err)
		}
		if m.Live() != 0 {
			t.Fatalf("live = %d after exporting the only sequence", m.Live())
		}
		// Force a rebase far from id0, both above and (on re-import)
		// below the new base.
		far := id0 + 1 + int(gap)
		if _, err := m.Allocate(far, 32, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ImportKV(id0, ex); err != nil {
			t.Fatalf("import across rebase: %v", err)
		}
		if got, err := m.SnapshotKV(id0, tokens); err != nil || got != ex {
			t.Fatalf("window after rebase round trip = %+v (%v), want %+v", got, err, ex)
		}
		if got := m.UsedBlocks(); got != wantUsed+m.BlocksFor(32) {
			t.Fatalf("used = %d, want %d", got, wantUsed+m.BlocksFor(32))
		}
		if !m.Has(far) || !m.Has(id0) {
			t.Fatal("sequence lost across rebase")
		}
		// The re-imported sequence must still be growable and
		// freeable without leaking blocks.
		if err := m.Grow(id0, tokens+3); err != nil {
			t.Fatal(err)
		}
		m.Free(id0)
		m.Free(far)
		if m.Live() != 0 {
			t.Fatalf("live = %d after freeing everything", m.Live())
		}
		if m.UsedBlocks() != m.SharedBlocks() {
			t.Fatalf("used %d != resident shared %d after freeing all sequences",
				m.UsedBlocks(), m.SharedBlocks())
		}
	})
}

// SnapshotKV must capture the window without detaching the sequence:
// the live sequence keeps growing, the snapshot stays importable into
// a fresh manager at its captured length, and taking it perturbs no
// observable state.
func TestSnapshotKVNonDestructive(t *testing.T) {
	m, err := NewManager(64*16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(0, 40, 0, 0); err != nil {
		t.Fatal(err)
	}
	before := observe(m)
	snap, err := m.SnapshotKV(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	sameObs(t, "after snapshot", observe(m), before)
	if snap.Tokens != 40 || snap.Blocks() != m.BlocksFor(40) {
		t.Fatalf("snapshot = %d tokens / %d blocks, want 40 / %d", snap.Tokens, snap.Blocks(), m.BlocksFor(40))
	}
	// The live sequence moves on; the snapshot must not.
	if err := m.Grow(0, 70); err != nil {
		t.Fatal(err)
	}
	if snap.Tokens != 40 {
		t.Fatalf("snapshot tokens moved to %d", snap.Tokens)
	}
	other, err := NewManager(64*16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ImportKV(7, snap); err != nil {
		t.Fatalf("import of snapshot: %v", err)
	}
	if !other.Has(7) {
		t.Fatal("imported snapshot not resident")
	}
	if _, err := m.SnapshotKV(99, 40); err == nil {
		t.Fatal("snapshot of unknown sequence accepted")
	}
	// The owner's count must need exactly the window's blocks.
	for _, tokens := range []int{0, 64, 81} {
		if _, err := m.SnapshotKV(0, tokens); err == nil {
			t.Fatalf("snapshot of a 5-block window at %d tokens accepted", tokens)
		}
	}
}
