// Package predictor implements the output-length prediction model the
// paper adopts from µ-Serve (§3.3, Fig. 8): a multi-class classifier
// over five percentile bins [P0,P25), [P25,P50), [P50,P75), [P75,P99),
// [P99,∞) of historical output lengths. The paper fine-tunes BERT and
// feeds the [CLS] hidden state to a 2-layer head; here the prompt
// embedding is the workload generator's noisy topic centroid plus
// normalized prompt length (workload.Request.Features), and the head
// is a multinomial logistic regression trained by SGD. The
// engine consumes only the predicted bin's mean length, exactly as in
// the paper.
package predictor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/workload"
)

// NumBins is the number of percentile classes.
const NumBins = 5

// binPercentiles are the right edges of the first four bins.
var binPercentiles = [NumBins - 1]float64{25, 50, 75, 99}

// Bins holds the percentile bin edges fitted on training data and the
// mean training output length per bin, which becomes the point estimate
// for a predicted class.
type Bins struct {
	// Edges are right-open boundaries: bin b covers
	// [Edges[b-1], Edges[b]) with Edges[-1]=0 and Edges[4]=+inf.
	Edges [NumBins - 1]int
	// Mean is the average training output length within each bin.
	Mean [NumBins]float64
}

// FitBins derives bin edges (P25/P50/P75/P99) and per-bin means from
// historical output lengths.
func FitBins(outputs []int) (Bins, error) {
	if len(outputs) < NumBins {
		return Bins{}, fmt.Errorf("predictor: %d samples are too few to fit bins", len(outputs))
	}
	sorted := append([]int(nil), outputs...)
	sort.Ints(sorted)
	var b Bins
	for i, p := range binPercentiles {
		b.Edges[i] = workload.PercentileInt(sorted, p)
	}
	// Guarantee strictly increasing edges even on degenerate data.
	for i := 1; i < len(b.Edges); i++ {
		if b.Edges[i] <= b.Edges[i-1] {
			b.Edges[i] = b.Edges[i-1] + 1
		}
	}
	var sum [NumBins]float64
	var cnt [NumBins]int
	for _, o := range outputs {
		k := b.BinOf(o)
		sum[k] += float64(o)
		cnt[k]++
	}
	for k := 0; k < NumBins; k++ {
		if cnt[k] > 0 {
			b.Mean[k] = sum[k] / float64(cnt[k])
		} else if k > 0 {
			b.Mean[k] = float64(b.Edges[k-1])
		}
	}
	return b, nil
}

// BinOf returns the bin index of an output length.
func (b Bins) BinOf(outputLen int) int {
	for i, e := range b.Edges {
		if outputLen < e {
			return i
		}
	}
	return NumBins - 1
}

// Classifier is a trained multinomial logistic regression over request
// features.
type Classifier struct {
	bins Bins
	dim  int
	// w is [dim+1][NumBins]: row d holds feature d's weight for every
	// class and row dim holds the biases, so one sequential pass over
	// w scores (or updates) all classes side by side.
	w [][NumBins]float64
	// calib scales point estimates so that predicted totals match
	// actual totals on the training set. Without it, systematic
	// misclassification bias would not cancel within a batch and the
	// accumulated error (Fig. 14) would plateau instead of shrinking.
	calib float64
}

// softmax and Train spell the classes out one by one; this fails to
// compile if NumBins changes.
var _ = [1]struct{}{}[NumBins-5]

// TrainConfig controls SGD.
type TrainConfig struct {
	Epochs int
	LR     float64
	L2     float64
	Seed   int64
}

// DefaultTrainConfig matches the paper's "low overhead" regime: a few
// quick epochs on historical data.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, LR: 0.15, L2: 1e-4, Seed: 1}
}

// Train fits bins and classifier on historical requests. Every request
// must carry as many features as the first; a ragged set is rejected
// before any SGD runs.
func Train(train []workload.Request, cfg TrainConfig) (*Classifier, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("predictor: empty training set")
	}
	// Copy the features row-major into one block, so the epochs read
	// memory sequentially instead of chasing each request's slice.
	dim := len(train[0].Features)
	x := make([]float64, len(train)*dim)
	outputs := make([]int, len(train))
	for i, r := range train {
		if len(r.Features) != dim {
			return nil, fmt.Errorf("predictor: request %d has feature dim %d, want %d", i, len(r.Features), dim)
		}
		copy(x[i*dim:], r.Features)
		outputs[i] = r.OutputLen
	}
	bins, err := FitBins(outputs)
	if err != nil {
		return nil, err
	}
	labels := make([]int, len(train))
	for i, o := range outputs {
		labels[i] = bins.BinOf(o)
	}
	c := &Classifier{bins: bins, dim: dim, w: make([][NumBins]float64, dim+1)}
	row := func(i int) []float64 { return x[i*dim : (i+1)*dim : (i+1)*dim] }

	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}
	w, bias := c.w[:dim], &c.w[dim]
	var g [NumBins]float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lr := cfg.LR / (1 + 0.1*float64(ep))
		for _, i := range idx {
			xi := row(i)
			c.softmax(xi, &g)
			g[labels[i]] -= 1
			// Each weight's update keeps the row-major loop's
			// expression, so the trained weights stay bit-identical
			// (testdata/train_golden.json).
			for d, xd := range xi {
				wd := &w[d]
				wd[0] -= lr * (g[0]*xd + cfg.L2*wd[0])
				wd[1] -= lr * (g[1]*xd + cfg.L2*wd[1])
				wd[2] -= lr * (g[2]*xd + cfg.L2*wd[2])
				wd[3] -= lr * (g[3]*xd + cfg.L2*wd[3])
				wd[4] -= lr * (g[4]*xd + cfg.L2*wd[4])
			}
			for k := range bias {
				bias[k] -= lr * g[k]
			}
		}
	}
	// Total-length bias correction on the training set.
	var predSum, actSum float64
	for i, o := range outputs {
		predSum += c.bins.Mean[c.predictBin(row(i))]
		actSum += float64(o)
	}
	c.calib = 1
	if predSum > 0 {
		c.calib = actSum / predSum
		if c.calib < 0.5 {
			c.calib = 0.5
		}
		if c.calib > 2 {
			c.calib = 2
		}
	}
	return c, nil
}

// softmax fills out with class probabilities for features x. Features
// past dim are ignored.
//
//det:hotpath
func (c *Classifier) softmax(x []float64, out *[NumBins]float64) {
	if len(x) > c.dim {
		x = x[:c.dim]
	}
	w := c.w[:len(x)]
	b := &c.w[c.dim]
	s0, s1, s2, s3, s4 := b[0], b[1], b[2], b[3], b[4]
	for d, xd := range x {
		wd := &w[d]
		s0 += wd[0] * xd
		s1 += wd[1] * xd
		s2 += wd[2] * xd
		s3 += wd[3] * xd
		s4 += wd[4] * xd
	}
	*out = [NumBins]float64{s0, s1, s2, s3, s4}
	max := math.Inf(-1)
	for _, s := range out {
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
}

// predictBin returns the most likely bin for features x.
//
//det:hotpath
func (c *Classifier) predictBin(x []float64) int {
	var probs [NumBins]float64
	c.softmax(x, &probs)
	best := 0
	for k := 1; k < NumBins; k++ {
		if probs[k] > probs[best] {
			best = k
		}
	}
	return best
}

// PredictBin returns the most likely bin for a request.
//
//det:hotpath
func (c *Classifier) PredictBin(r workload.Request) int { return c.predictBin(r.Features) }

// PredictLen returns the point estimate of the request's output length:
// the mean training length of the predicted bin (paper §3.3),
// bias-corrected so batch totals are unbiased.
//
//det:hotpath
func (c *Classifier) PredictLen(r workload.Request) int {
	l := int(c.bins.Mean[c.predictBin(r.Features)] * c.calib)
	if l < 1 {
		l = 1
	}
	return l
}

// Bins exposes the fitted bins.
func (c *Classifier) Bins() Bins { return c.bins }

// Accuracy returns the fraction of requests whose bin is predicted
// exactly (the paper's single-request metric, §4.4.1).
func (c *Classifier) Accuracy(test []workload.Request) float64 {
	if len(test) == 0 {
		return 0
	}
	hit := 0
	for _, r := range test {
		if c.PredictBin(r) == c.bins.BinOf(r.OutputLen) {
			hit++
		}
	}
	return float64(hit) / float64(len(test))
}

// AccumulatedError reproduces the paper's Fig.-14 metric: partition the
// test set into groups of size groupSize, and average over groups the
// relative error between predicted and actual *total* output length.
// Over- and under-predictions cancel within a group, so the error
// shrinks as groups grow.
func (c *Classifier) AccumulatedError(test []workload.Request, groupSize int) float64 {
	if groupSize <= 0 || len(test) < groupSize {
		return math.NaN()
	}
	var errSum float64
	groups := 0
	for start := 0; start+groupSize <= len(test); start += groupSize {
		var pred, actual float64
		for _, r := range test[start : start+groupSize] {
			pred += float64(c.PredictLen(r))
			actual += float64(r.OutputLen)
		}
		if actual > 0 {
			errSum += math.Abs(pred-actual) / actual
			groups++
		}
	}
	if groups == 0 {
		return math.NaN()
	}
	return errSum / float64(groups)
}

// MajorityBaseline returns the accuracy of always predicting the most
// common training bin — the "random guessing" reference the paper's
// accuracies are compared against.
func MajorityBaseline(bins Bins, train, test []workload.Request) float64 {
	var cnt [NumBins]int
	for _, r := range train {
		cnt[bins.BinOf(r.OutputLen)]++
	}
	best := 0
	for k := 1; k < NumBins; k++ {
		if cnt[k] > cnt[best] {
			best = k
		}
	}
	hit := 0
	for _, r := range test {
		if bins.BinOf(r.OutputLen) == best {
			hit++
		}
	}
	if len(test) == 0 {
		return 0
	}
	return float64(hit) / float64(len(test))
}
