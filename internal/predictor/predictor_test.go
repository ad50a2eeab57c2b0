package predictor

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func trainedClassifier(t *testing.T, n int, seed int64) (*Classifier, []workload.Request, []workload.Request) {
	t.Helper()
	reqs := workload.MustGenerate(workload.DefaultConfig(n, seed))
	train, _, test, err := workload.Split(reqs, 0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c, train, test
}

func TestFitBinsEdgesOrderedAndMeansMonotone(t *testing.T) {
	outputs := make([]int, 1000)
	for i := range outputs {
		outputs[i] = i + 1
	}
	b, err := FitBins(outputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(b.Edges); i++ {
		if b.Edges[i] <= b.Edges[i-1] {
			t.Fatalf("edges not increasing: %v", b.Edges)
		}
	}
	for k := 1; k < NumBins; k++ {
		if b.Mean[k] <= b.Mean[k-1] {
			t.Fatalf("bin means not increasing: %v", b.Mean)
		}
	}
}

func TestFitBinsTooFewSamples(t *testing.T) {
	if _, err := FitBins([]int{1, 2}); err == nil {
		t.Error("fit on 2 samples accepted")
	}
}

func TestFitBinsDegenerateData(t *testing.T) {
	outputs := make([]int, 100) // all equal
	for i := range outputs {
		outputs[i] = 7
	}
	b, err := FitBins(outputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(b.Edges); i++ {
		if b.Edges[i] <= b.Edges[i-1] {
			t.Fatalf("degenerate edges not repaired: %v", b.Edges)
		}
	}
}

func TestBinOfCoversRange(t *testing.T) {
	b := Bins{Edges: [4]int{10, 20, 30, 40}}
	cases := map[int]int{0: 0, 9: 0, 10: 1, 19: 1, 25: 2, 35: 3, 40: 4, 1000: 4}
	for in, want := range cases {
		if got := b.BinOf(in); got != want {
			t.Errorf("BinOf(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := Train(nil, DefaultTrainConfig()); err == nil {
		t.Error("empty training set accepted")
	}
}

// Paper §4.4.1: single-request bin accuracy is ~0.52-0.58, clearly above
// the majority-class baseline but far from perfect.
func TestAccuracyInPaperRegime(t *testing.T) {
	c, train, test := trainedClassifier(t, 8000, 42)
	acc := c.Accuracy(test)
	base := MajorityBaseline(c.Bins(), train, test)
	if acc < 0.35 || acc > 0.80 {
		t.Errorf("accuracy = %.3f, want paper-like 0.35-0.80", acc)
	}
	if acc <= base+0.05 {
		t.Errorf("accuracy %.3f not clearly above majority baseline %.3f", acc, base)
	}
	t.Logf("accuracy=%.4f baseline=%.4f", acc, base)
}

// Paper Fig. 14: accumulated error decreases as the group grows and is
// small (a few percent) at 256 requests.
func TestAccumulatedErrorShrinksWithGroupSize(t *testing.T) {
	c, _, test := trainedClassifier(t, 12000, 7)
	prev := math.Inf(1)
	nonIncreasing := 0
	sizes := []int{2, 8, 32, 128, 512}
	errs := make([]float64, len(sizes))
	for i, g := range sizes {
		errs[i] = c.AccumulatedError(test, g)
	}
	for i, e := range errs {
		if math.IsNaN(e) {
			t.Fatalf("accumulated error NaN at group %d", sizes[i])
		}
		if e <= prev {
			nonIncreasing++
		}
		prev = e
	}
	if nonIncreasing < len(sizes)-1 {
		t.Errorf("accumulated error not broadly decreasing: %v", errs)
	}
	if errs[0] < errs[len(errs)-1] {
		t.Errorf("error at group 2 (%v) below error at 512 (%v)", errs[0], errs[len(errs)-1])
	}
	if last := errs[len(errs)-1]; last > 0.15 {
		t.Errorf("accumulated error at 512 = %.3f, want <= 0.15 (paper: 2.8-6.2%%)", last)
	}
	t.Logf("accumulated errors %v -> %v", sizes, errs)
}

func TestAccumulatedErrorEdgeCases(t *testing.T) {
	c, _, test := trainedClassifier(t, 2000, 3)
	if !math.IsNaN(c.AccumulatedError(test, 0)) {
		t.Error("group size 0 did not return NaN")
	}
	if !math.IsNaN(c.AccumulatedError(test[:1], 10)) {
		t.Error("undersized test set did not return NaN")
	}
}

func TestPredictLenPositiveAndCalibrated(t *testing.T) {
	c, _, test := trainedClassifier(t, 4000, 9)
	means := c.Bins().Mean
	for _, r := range test[:200] {
		l := c.PredictLen(r)
		if l < 1 {
			t.Fatalf("PredictLen = %d", l)
		}
		// Calibration scales bin means by a bounded factor.
		found := false
		for _, m := range means {
			if float64(l) >= m*0.5-1 && float64(l) <= m*2+1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("PredictLen %d not near any bin mean %v", l, means)
		}
	}
}

// Calibration removes systematic bias: over a large test set the total
// predicted length lands within a few percent of the actual total.
func TestCalibrationUnbiased(t *testing.T) {
	c, _, test := trainedClassifier(t, 12000, 9)
	var pred, actual float64
	for _, r := range test {
		pred += float64(c.PredictLen(r))
		actual += float64(r.OutputLen)
	}
	ratio := pred / actual
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("predicted/actual total = %.3f, want near 1 after calibration", ratio)
	}
}

func TestTrainDeterministic(t *testing.T) {
	reqs := workload.MustGenerate(workload.DefaultConfig(2000, 5))
	train, _, test, err := workload.Split(reqs, 0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range test {
		if c1.PredictBin(r) != c2.PredictBin(r) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestTrainRejectsDimMismatch(t *testing.T) {
	reqs := workload.MustGenerate(workload.DefaultConfig(100, 5))
	reqs[50].Features = reqs[50].Features[:3]
	reqs[70].Features = nil
	_, err := Train(reqs, DefaultTrainConfig())
	if err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// The check runs over the rows in index order before any SGD, so
	// it names the first bad row, not the first one the shuffle visits.
	if want := "predictor: request 50 has feature dim 3, want 17"; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// The engine predicts at every admission; PredictLen must not allocate.
func TestPredictLenAllocFree(t *testing.T) {
	c, _, test := trainedClassifier(t, 2000, 4)
	if a := testing.AllocsPerRun(100, func() { _ = c.PredictLen(test[0]) }); a != 0 {
		t.Errorf("PredictLen allocates %v times per call, want 0", a)
	}
}

// The classifier must beat guessing because topics are observable in the
// features, but must stay imperfect because of within-topic noise —
// that head-room is what Approach 1 is designed to tolerate.
func TestPredictionImperfection(t *testing.T) {
	c, _, test := trainedClassifier(t, 8000, 21)
	if acc := c.Accuracy(test); acc > 0.95 {
		t.Errorf("accuracy %.3f implausibly high: workload noise miscalibrated", acc)
	}
}
