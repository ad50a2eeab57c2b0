package predictor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// classMajor returns the classifier's weights as [NumBins][dim+1],
// bias last, whatever layout the classifier stores them in.
func classMajor(c *Classifier) [][]float64 {
	w := make([][]float64, NumBins)
	for k := range w {
		w[k] = make([]float64, c.dim+1)
		for d := range w[k] {
			w[k][d] = c.w[d][k]
		}
	}
	return w
}

// fromClassMajor builds a classifier from [NumBins][dim+1] weights,
// bias last.
func fromClassMajor(bins Bins, w [][]float64, calib float64) *Classifier {
	dim := len(w[0]) - 1
	c := &Classifier{bins: bins, dim: dim, w: make([][NumBins]float64, dim+1), calib: calib}
	for k := range w {
		for d, v := range w[k] {
			c.w[d][k] = v
		}
	}
	return c
}

// refPredictBin is the row-major reference for PredictBin: one class at
// a time, bias first, features past dim ignored.
func refPredictBin(w [][]float64, x []float64) int {
	dim := len(w[0]) - 1
	var out [NumBins]float64
	max := math.Inf(-1)
	for k := 0; k < NumBins; k++ {
		s := w[k][dim]
		for d := 0; d < dim && d < len(x); d++ {
			s += w[k][d] * x[d]
		}
		out[k] = s
		if s > max {
			max = s
		}
	}
	var z float64
	for k := range out {
		out[k] = math.Exp(out[k] - max)
		z += out[k]
	}
	for k := range out {
		out[k] /= z
	}
	best := 0
	for k := 1; k < NumBins; k++ {
		if out[k] > out[best] {
			best = k
		}
	}
	return best
}

// refPredictLen is the row-major reference for PredictLen.
func refPredictLen(bins Bins, w [][]float64, calib float64, x []float64) int {
	l := int(bins.Mean[refPredictBin(w, x)] * calib)
	if l < 1 {
		l = 1
	}
	return l
}

// TestPredictMatchesRowMajorReference draws random weights, calibration
// and features — shorter than, equal to and longer than dim — and
// checks that PredictBin and PredictLen equal the row-major reference.
func TestPredictMatchesRowMajorReference(t *testing.T) {
	bins := Bins{Edges: [NumBins - 1]int{10, 40, 120, 600}, Mean: [NumBins]float64{5, 25, 80, 300, 900}}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(24)
		w := make([][]float64, NumBins)
		for k := range w {
			w[k] = make([]float64, dim+1)
			for d := range w[k] {
				w[k][d] = rng.NormFloat64() * 3
			}
		}
		calib := 0.5 + 1.5*rng.Float64()
		c := fromClassMajor(bins, w, calib)
		for trial := 0; trial < 16; trial++ {
			x := make([]float64, rng.Intn(2*dim+2))
			for d := range x {
				x[d] = rng.NormFloat64()
			}
			r := workload.Request{Features: x}
			if c.PredictBin(r) != refPredictBin(w, x) || c.PredictLen(r) != refPredictLen(bins, w, calib, x) {
				t.Logf("seed %d dim %d len(x) %d: PredictBin %d ref %d", seed, dim, len(x), c.PredictBin(r), refPredictBin(w, x))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
