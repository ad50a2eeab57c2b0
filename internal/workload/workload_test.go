package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(500, 7)
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	for i := range a {
		if a[i].InputLen != b[i].InputLen || a[i].OutputLen != b[i].OutputLen || a[i].Topic != b[i].Topic {
			t.Fatalf("trace not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(DefaultConfig(200, 1))
	b := MustGenerate(DefaultConfig(200, 2))
	same := 0
	for i := range a {
		if a[i].InputLen == b[i].InputLen && a[i].OutputLen == b[i].OutputLen {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateRespectsLengthCaps(t *testing.T) {
	cfg := DefaultConfig(2000, 3)
	for _, r := range MustGenerate(cfg) {
		if r.InputLen < 4 || r.InputLen > cfg.MaxInputLen {
			t.Fatalf("input len %d outside [4,%d]", r.InputLen, cfg.MaxInputLen)
		}
		if r.OutputLen < 1 || r.OutputLen > cfg.MaxOutputLen {
			t.Fatalf("output len %d outside [1,%d]", r.OutputLen, cfg.MaxOutputLen)
		}
		if len(r.Features) != cfg.FeatureDim+1 {
			t.Fatalf("feature dim %d", len(r.Features))
		}
	}
}

func TestShareGPTLikeMarginals(t *testing.T) {
	s := Summarize(MustGenerate(DefaultConfig(20000, 11)))
	// ShareGPT-like: prompt median in the low hundreds, mean a few
	// hundred, heavy tail toward the 1023 cap.
	if s.P50Input < 80 || s.P50Input > 400 {
		t.Errorf("median input = %d, want 80-400", s.P50Input)
	}
	if s.MeanInput < 150 || s.MeanInput > 500 {
		t.Errorf("mean input = %.0f, want 150-500", s.MeanInput)
	}
	if s.MaxInput > 1023 {
		t.Errorf("max input = %d", s.MaxInput)
	}
	// Outputs: mean in the low hundreds with a long tail.
	if s.MeanOutput < 100 || s.MeanOutput > 500 {
		t.Errorf("mean output = %.0f, want 100-500", s.MeanOutput)
	}
	if s.P99Output < 2*s.P50Output {
		t.Errorf("output tail too light: p50=%d p99=%d", s.P50Output, s.P99Output)
	}
}

func TestTopicsDriveOutputLength(t *testing.T) {
	reqs := MustGenerate(DefaultConfig(20000, 5))
	cfg := DefaultConfig(0, 0)
	sums := make([]float64, cfg.Topics)
	counts := make([]int, cfg.Topics)
	for _, r := range reqs {
		sums[r.Topic] += float64(r.OutputLen)
		counts[r.Topic]++
	}
	lo := sums[0] / float64(counts[0])
	hi := sums[cfg.Topics-1] / float64(counts[cfg.Topics-1])
	if hi < 3*lo {
		t.Errorf("topic output means not separated: topic0=%.0f topicN=%.0f", lo, hi)
	}
}

func TestValidate(t *testing.T) {
	bad := DefaultConfig(10, 1)
	bad.N = 0
	if _, err := Generate(bad); err == nil {
		t.Error("N=0 accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.Topics = 0
	if _, err := Generate(bad); err == nil {
		t.Error("Topics=0 accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.FeatureDim = 2
	if _, err := Generate(bad); err == nil {
		t.Error("FeatureDim < Topics accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.MaxInputLen = 1
	if _, err := Generate(bad); err == nil {
		t.Error("tiny MaxInputLen accepted")
	}
}

func TestSplitFractions(t *testing.T) {
	reqs := MustGenerate(DefaultConfig(1000, 9))
	train, val, test, err := Split(reqs, 0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 600 || len(val) != 200 || len(test) != 200 {
		t.Errorf("split sizes = %d/%d/%d", len(train), len(val), len(test))
	}
	if train[0].ID != reqs[0].ID || test[199].ID != reqs[999].ID {
		t.Error("split reordered requests")
	}
}

func TestSplitEdgeCases(t *testing.T) {
	cases := []struct {
		name               string
		n                  int
		trainFrac, valFrac float64
		wantErr            bool
		// wantTrain/wantVal are checked only when wantErr is false;
		// test always gets the remainder.
		wantTrain, wantVal int
	}{
		{name: "exact thirds", n: 9, trainFrac: 1.0 / 3, valFrac: 1.0 / 3, wantTrain: 3, wantVal: 3},
		{name: "all train", n: 10, trainFrac: 1, valFrac: 0, wantTrain: 10, wantVal: 0},
		{name: "all val", n: 10, trainFrac: 0, valFrac: 1, wantTrain: 0, wantVal: 10},
		{name: "empty trace", n: 0, trainFrac: 0.6, valFrac: 0.2},
		{name: "single request", n: 1, trainFrac: 0.6, valFrac: 0.2, wantTrain: 0, wantVal: 0},
		// 0.7+0.3 sums to 1 within float64 but 7*0.7 truncates to 4
		// and 7*0.3 to 2: clamping must still cover the trace.
		{name: "truncating fractions", n: 7, trainFrac: 0.7, valFrac: 0.3, wantTrain: 4, wantVal: 2},
		{name: "negative train", n: 10, trainFrac: -0.1, valFrac: 0.2, wantErr: true},
		{name: "negative val", n: 10, trainFrac: 0.6, valFrac: -0.2, wantErr: true},
		{name: "sum above one", n: 10, trainFrac: 0.8, valFrac: 0.3, wantErr: true},
		{name: "NaN fraction", n: 10, trainFrac: math.NaN(), valFrac: 0.2, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reqs []Request
			if tc.n > 0 {
				reqs = MustGenerate(DefaultConfig(tc.n, 3))
			}
			train, val, test, err := Split(reqs, tc.trainFrac, tc.valFrac)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Split(%v, %v) accepted", tc.trainFrac, tc.valFrac)
				}
				return
			}
			if err != nil {
				t.Fatalf("Split(%v, %v): %v", tc.trainFrac, tc.valFrac, err)
			}
			if len(train)+len(val)+len(test) != tc.n {
				t.Fatalf("split %d+%d+%d != %d", len(train), len(val), len(test), tc.n)
			}
			if len(train) != tc.wantTrain || len(val) != tc.wantVal {
				t.Errorf("split sizes = %d/%d/%d, want %d/%d/%d", len(train), len(val), len(test),
					tc.wantTrain, tc.wantVal, tc.n-tc.wantTrain-tc.wantVal)
			}
			for i, r := range append(append(append([]Request(nil), train...), val...), test...) {
				if r.ID != i {
					t.Fatalf("split request at position %d has ID %d", i, r.ID)
				}
			}
		})
	}
}

func TestSampleRenumbersAndBounds(t *testing.T) {
	reqs := MustGenerate(DefaultConfig(100, 9))
	s := Sample(reqs, 10, 42)
	if len(s) != 10 {
		t.Fatalf("sample size = %d", len(s))
	}
	for i, r := range s {
		if r.ID != i {
			t.Errorf("sample ID %d at %d not renumbered", r.ID, i)
		}
	}
	// Oversampling returns everything.
	if got := Sample(reqs, 1000, 42); len(got) != 100 {
		t.Errorf("oversample size = %d", len(got))
	}
	// Deterministic.
	a, b := Sample(reqs, 10, 7), Sample(reqs, 10, 7)
	for i := range a {
		if a[i].InputLen != b[i].InputLen {
			t.Fatal("sample not deterministic")
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.MeanInput != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestPercentileInt(t *testing.T) {
	sorted := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := PercentileInt(sorted, 0); got != 1 {
		t.Errorf("p0 = %d", got)
	}
	if got := PercentileInt(sorted, 100); got != 10 {
		t.Errorf("p100 = %d", got)
	}
	if got := PercentileInt(sorted, 50); got != 5 {
		t.Errorf("p50 = %d", got)
	}
	if got := PercentileInt(nil, 50); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
}

// PercentileInt must not silently assume sorted input: unsorted slices
// are sorted defensively (on a copy), single elements are returned
// directly, and out-of-range p is clamped.
func TestPercentileIntDefensive(t *testing.T) {
	unsorted := []int{9, 1, 5, 3, 7, 2, 10, 4, 8, 6}
	if got := PercentileInt(unsorted, 50); got != 5 {
		t.Errorf("unsorted p50 = %d, want 5", got)
	}
	if got := PercentileInt(unsorted, 100); got != 10 {
		t.Errorf("unsorted p100 = %d, want 10", got)
	}
	// The input must not be reordered.
	if unsorted[0] != 9 || unsorted[9] != 6 {
		t.Errorf("input mutated: %v", unsorted)
	}
	if got := PercentileInt([]int{42}, 99); got != 42 {
		t.Errorf("single-element p99 = %d, want 42", got)
	}
	if got := PercentileInt([]int{42}, 0); got != 42 {
		t.Errorf("single-element p0 = %d, want 42", got)
	}
	sorted := []int{1, 2, 3}
	if got := PercentileInt(sorted, 150); got != 3 {
		t.Errorf("p150 = %d, want clamp to max", got)
	}
	if got := PercentileInt(sorted, -5); got != 1 {
		t.Errorf("p-5 = %d, want clamp to min", got)
	}
}

func TestTotalLen(t *testing.T) {
	r := Request{InputLen: 3, OutputLen: 4}
	if r.TotalLen() != 7 {
		t.Errorf("TotalLen = %d", r.TotalLen())
	}
}

// Property: any valid config yields requests within bounds with correct
// feature dimensionality.
func TestGenerateBoundsProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		cfg := DefaultConfig(int(n%64)+1, seed)
		reqs, err := Generate(cfg)
		if err != nil {
			return false
		}
		for _, r := range reqs {
			if r.InputLen < 4 || r.InputLen > cfg.MaxInputLen ||
				r.OutputLen < 1 || r.OutputLen > cfg.MaxOutputLen ||
				r.Topic < 0 || r.Topic >= cfg.Topics ||
				len(r.Features) != cfg.FeatureDim+1 {
				return false
			}
			for _, f := range r.Features {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Generate carves every request's features out of one block; each
// slice must be capped at its own length so an append on one request
// cannot overwrite its neighbour.
func TestGenerateFeaturesCapped(t *testing.T) {
	reqs := MustGenerate(DefaultConfig(3, 8))
	next := append([]float64(nil), reqs[1].Features...)
	for i, r := range reqs {
		if cap(r.Features) != len(r.Features) {
			t.Fatalf("request %d features: cap %d, len %d", i, cap(r.Features), len(r.Features))
		}
	}
	grown := append(reqs[0].Features, 42)
	if &grown[0] == &reqs[0].Features[0] {
		t.Error("append on request 0's features grew in place")
	}
	for d, v := range reqs[1].Features {
		if v != next[d] {
			t.Fatalf("append on request 0 overwrote request 1's feature %d: %v, want %v", d, v, next[d])
		}
	}
}
