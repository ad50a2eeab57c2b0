package workload

import "testing"

// BenchmarkGenerate measures trace generation at the largest pool
// tdpipe-bench draws (disagg-chaos's 60,000 requests).
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig(60000, 1)
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
