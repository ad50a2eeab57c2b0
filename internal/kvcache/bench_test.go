package kvcache

import "testing"

// BenchmarkAllocateFree measures the admission-path cost the engine
// pays per prefill batch member.
func BenchmarkAllocateFree(b *testing.B) {
	b.ReportAllocs()
	m, err := NewManager(1<<24, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Allocate(i, 300, 0, 0); err != nil {
			b.Fatal(err)
		}
		m.Free(i)
	}
}

// BenchmarkGrow measures the decode growth path: one Grow per block
// boundary crossed, 16 decoded tokens apart.
func BenchmarkGrow(b *testing.B) {
	b.ReportAllocs()
	m, err := NewManager(1<<30, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Allocate(1, 16, 0, 0); err != nil {
		b.Fatal(err)
	}
	tokens := 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokens += 16
		if err := m.Grow(1, tokens); err != nil {
			b.StopTimer()
			m.Free(1)
			_, _ = m.Allocate(1, 16, 0, 0)
			tokens = 16
			b.StartTimer()
		}
	}
}

// BenchmarkEvictMostRecent measures the recompute path under pressure.
func BenchmarkEvictMostRecent(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := NewManager(16*1024, 16)
		for id := 0; id < 64; id++ {
			_, _ = m.Allocate(id, 256, 0, 0)
		}
		b.StartTimer()
		m.EvictMostRecent(512)
	}
}

// BenchmarkAllocateSharedHit measures the warm-chain admission path —
// what a prefix-cache hit costs relative to a plain one (BenchmarkAllocateFree).
func BenchmarkAllocateSharedHit(b *testing.B) {
	b.ReportAllocs()
	m, err := NewManager(1<<24, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Allocate(0, 512, 1, 512); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if _, err := m.Allocate(i, 512, 1, 512); err != nil {
			b.Fatal(err)
		}
		m.Free(i)
	}
}

// BenchmarkMatchPrefix measures the router's warmth probe: a resident
// 64-block chain (hit), a 256-block prefix of a group with nothing
// resident (cold-miss, what most replicas answer on most arrivals), and
// a resident 4096-block chain (chain=4096).
func BenchmarkMatchPrefix(b *testing.B) {
	const chain = 4096
	m, err := NewManager(1<<24, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Allocate(0, chain*16, 1, chain*16); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name          string
		group, prefix int
		want          int
	}{
		{"hit", 1, 1024, 1024},
		{"cold-miss", 2, 4096, 0},
		{"chain=4096", 1, chain * 16, chain * 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m.MatchPrefix(bc.group, bc.prefix) != bc.want {
					b.Fatal("probe missed its expected match")
				}
			}
		})
	}
}

// BenchmarkFreeShared measures freeing a sequence that references a
// resident 4096-block chain another sequence keeps alive.
func BenchmarkFreeShared(b *testing.B) {
	const chain = 4096
	b.ReportAllocs()
	m, err := NewManager(1<<24, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Allocate(0, chain*16, 1, chain*16); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := m.Allocate(1, chain*16+1, 1, chain*16); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m.Free(1)
	}
}

// BenchmarkReclaim measures admission under memory pressure: the pool
// is full of 64 warm 64-block chains, and each shared allocation needs
// one block more than the free pool holds, so it reclaims the least
// recently used warm block.
func BenchmarkReclaim(b *testing.B) {
	const groups, chain = 64, 64
	b.ReportAllocs()
	m, err := NewManager(groups*chain*16, 16)
	if err != nil {
		b.Fatal(err)
	}
	for g := 0; g < groups; g++ {
		if _, err := m.Allocate(0, chain*16, g, chain*16); err != nil {
			b.Fatal(err)
		}
		m.Free(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Allocate(0, chain*16+1, i%groups, chain*16); err != nil {
			b.Fatal(err)
		}
		m.Free(0)
	}
	if m.Stats().ReclaimedBlocks < b.N {
		b.Fatalf("%d blocks reclaimed in %d allocations", m.Stats().ReclaimedBlocks, b.N)
	}
}
