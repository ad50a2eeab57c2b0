// Package workload generates synthetic LLM inference traces with
// ShareGPT-like statistics. The real evaluation uses ShareGPT V3
// filtered to inputs under 1024 tokens (paper §4.1); that dataset is not
// available offline, so we generate seeded traces whose marginals match:
// heavy-tailed prompt lengths below 1024 tokens, heavy-tailed output
// lengths, and output lengths that are *partially* predictable from the
// prompt — requests carry a latent topic whose noisy embedding stands in
// for the BERT [CLS] representation the paper's predictor consumes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Request is one inference request.
type Request struct {
	// ID is unique within a trace.
	ID int
	// InputLen is the prompt length in tokens.
	InputLen int
	// OutputLen is the true generation length in tokens. Schedulers
	// must not read it for decisions — only the predictor's estimate —
	// but the simulator uses it to know when a request finishes.
	OutputLen int
	// Topic is the latent class that drives output length.
	Topic int
	// Features is the observable embedding of the prompt (the
	// stand-in for a BERT [CLS] vector): a noisy topic centroid plus
	// normalized prompt length.
	Features []float64
	// ArrivalTime is when the request enters the system, in virtual
	// seconds. Zero (the generator default) means the request exists
	// from the start — the offline-batch regime. Stamp arrival times
	// with an ArrivalProcess for open-loop online serving.
	ArrivalTime float64
	// PrefixGroup identifies the shared prefix (system prompt or
	// conversation) this request opens with; meaningful only when
	// PrefixLen > 0. Stamp with StampPrefixes.
	PrefixGroup int
	// PrefixLen is how many leading tokens of InputLen are the group's
	// shared prefix. Zero (the generator default) means the prompt is
	// unique — no KV reuse is possible and engines behave exactly as
	// they do for unstructured traces.
	PrefixLen int
	// Priority is the serving tier: 0 is the most important, higher
	// values matter less. Zero (the generator default) means every
	// request is top tier and priority policies are inert. Stamp with
	// StampPriorities; only policy-aware fleet routers read it.
	Priority int
}

// TotalLen returns input + output tokens.
func (r Request) TotalLen() int { return r.InputLen + r.OutputLen }

// Config controls trace generation.
type Config struct {
	// N is the number of requests.
	N int
	// Seed makes the trace reproducible.
	Seed int64
	// Topics is the number of latent output-length classes.
	Topics int
	// MaxInputLen filters prompts like the paper (< 1024 tokens).
	MaxInputLen int
	// MaxOutputLen caps generations.
	MaxOutputLen int
	// InputLogMean/InputLogStd parameterize the lognormal prompt
	// length distribution.
	InputLogMean, InputLogStd float64
	// OutputLogStd is the within-topic output-length noise; it bounds
	// how predictable output lengths are (paper reports ~52-58%
	// five-bin accuracy).
	OutputLogStd float64
	// FeatureNoise is the std of the noise added to topic centroids.
	FeatureNoise float64
	// FeatureDim is the embedding dimensionality.
	FeatureDim int
}

// DefaultConfig returns ShareGPT-like settings for n requests.
func DefaultConfig(n int, seed int64) Config {
	return Config{
		N:            n,
		Seed:         seed,
		Topics:       8,
		MaxInputLen:  1023,
		MaxOutputLen: 1024,
		InputLogMean: 5.2, // median ~180 tokens
		InputLogStd:  0.9,
		OutputLogStd: 0.42,
		FeatureNoise: 0.55,
		FeatureDim:   16,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("workload: N = %d", c.N)
	case c.Topics <= 0:
		return fmt.Errorf("workload: Topics = %d", c.Topics)
	case c.MaxInputLen < 4 || c.MaxOutputLen < 1:
		return fmt.Errorf("workload: bad length caps %d/%d", c.MaxInputLen, c.MaxOutputLen)
	case c.FeatureDim < c.Topics:
		return fmt.Errorf("workload: FeatureDim %d < Topics %d", c.FeatureDim, c.Topics)
	}
	return nil
}

// Generate produces a deterministic trace for the config.
func Generate(cfg Config) ([]Request, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Topic centroids: orthogonal unit directions in feature space.
	centroids := make([][]float64, cfg.Topics)
	for t := range centroids {
		v := make([]float64, cfg.FeatureDim)
		v[t] = 1
		centroids[t] = v
	}
	// Topic base output scales spread log-uniformly so topics map to
	// distinct length regimes (short answers ... long generations).
	baseLog := make([]float64, cfg.Topics)
	for t := range baseLog {
		baseLog[t] = 3.2 + 2.6*float64(t)/float64(cfg.Topics-1)
	}

	// Every request's features are carved out of one block. Each slice
	// is capped at its own length, so an append on one request copies
	// instead of overwriting its neighbour's features.
	fd := cfg.FeatureDim + 1
	slab := make([]float64, cfg.N*fd)
	reqs := make([]Request, cfg.N)
	for i := range reqs {
		topic := rng.Intn(cfg.Topics)
		in := clampInt(int(math.Exp(rng.NormFloat64()*cfg.InputLogStd+cfg.InputLogMean)), 4, cfg.MaxInputLen)
		// Output length: topic base, mild coupling to prompt length,
		// and irreducible noise.
		mu := baseLog[topic] + 0.15*(math.Log(float64(in))-cfg.InputLogMean)
		out := clampInt(int(math.Exp(rng.NormFloat64()*cfg.OutputLogStd+mu)), 1, cfg.MaxOutputLen)

		feat := slab[i*fd : (i+1)*fd : (i+1)*fd]
		for d := 0; d < cfg.FeatureDim; d++ {
			feat[d] = centroids[topic][d] + rng.NormFloat64()*cfg.FeatureNoise
		}
		feat[cfg.FeatureDim] = float64(in) / float64(cfg.MaxInputLen)

		reqs[i] = Request{ID: i, InputLen: in, OutputLen: out, Topic: topic, Features: feat}
	}
	return reqs, nil
}

// MustGenerate is Generate for tests and examples with known-good
// configs; it panics on error.
func MustGenerate(cfg Config) []Request {
	reqs, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return reqs
}

// Split partitions a trace into train/validation/test subsets by the
// given fractions, preserving order (the paper uses 60/20/20). The
// fractions must be non-negative and sum to at most 1; the test split
// receives whatever remains. Counts are truncated, then clamped so the
// three subsets always concatenate back to the input exactly —
// float64(n)*frac can land a hair above n for frac sums near 1, which
// used to slice out of range.
func Split(reqs []Request, trainFrac, valFrac float64) (train, val, test []Request, err error) {
	if math.IsNaN(trainFrac) || math.IsNaN(valFrac) || trainFrac < 0 || valFrac < 0 || trainFrac+valFrac > 1 {
		return nil, nil, nil, fmt.Errorf("workload: split fractions %v/%v (need non-negative, sum <= 1)",
			trainFrac, valFrac)
	}
	n := len(reqs)
	nt := int(float64(n) * trainFrac)
	if nt > n {
		nt = n
	}
	nv := int(float64(n) * valFrac)
	if nv > n-nt {
		nv = n - nt
	}
	return reqs[:nt], reqs[nt : nt+nv], reqs[nt+nv:], nil
}

// Sample draws k requests without replacement (deterministic for a
// seed), re-numbering IDs 0..k-1 so schedulers can use dense indices.
func Sample(reqs []Request, k int, seed int64) []Request {
	if k >= len(reqs) {
		k = len(reqs)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(reqs))[:k]
	sort.Ints(idx)
	out := make([]Request, k)
	for i, j := range idx {
		out[i] = reqs[j]
		out[i].ID = i
	}
	return out
}

// Stats summarizes a trace.
type Stats struct {
	N                       int
	TotalInput, TotalOutput int
	MeanInput, MeanOutput   float64
	P50Input, P99Input      int
	P50Output, P99Output    int
	MaxInput, MaxOutput     int
}

// Summarize computes trace statistics.
func Summarize(reqs []Request) Stats {
	s := Stats{N: len(reqs)}
	if s.N == 0 {
		return s
	}
	ins := make([]int, len(reqs))
	outs := make([]int, len(reqs))
	for i, r := range reqs {
		ins[i], outs[i] = r.InputLen, r.OutputLen
		s.TotalInput += r.InputLen
		s.TotalOutput += r.OutputLen
		if r.InputLen > s.MaxInput {
			s.MaxInput = r.InputLen
		}
		if r.OutputLen > s.MaxOutput {
			s.MaxOutput = r.OutputLen
		}
	}
	s.MeanInput = float64(s.TotalInput) / float64(s.N)
	s.MeanOutput = float64(s.TotalOutput) / float64(s.N)
	sort.Ints(ins)
	sort.Ints(outs)
	s.P50Input, s.P99Input = PercentileInt(ins, 50), PercentileInt(ins, 99)
	s.P50Output, s.P99Output = PercentileInt(outs, 50), PercentileInt(outs, 99)
	return s
}

// PercentileInt returns the p-th percentile of values. Sorted input is
// used as-is; unsorted input is copied and sorted first, so callers
// never get a silently wrong quantile. p is clamped to [0, 100]; the
// empty slice yields 0.
func PercentileInt(values []int, p float64) int {
	if len(values) == 0 {
		return 0
	}
	if !sort.IntsAreSorted(values) {
		c := append([]int(nil), values...)
		sort.Ints(c)
		values = c
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	idx := int(p / 100 * float64(len(values)-1))
	return values[idx]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
