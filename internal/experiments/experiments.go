// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated substrate. Each Fig*/Table* function
// returns structured rows plus a formatted text rendering, so the same
// code backs the CLI, the benchmarks and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/predictor"
	"repro/internal/workload"
)

// Options scales an experiment run.
type Options struct {
	// PoolSize is the size of the generated ShareGPT-like corpus
	// (the paper builds 86,612 pairs).
	PoolSize int
	// Requests is the evaluation sample (the paper uses 5,000).
	Requests int
	// Seed drives trace generation and sampling.
	Seed int64
}

// Quick returns a scaled-down configuration for tests and benchmarks.
// 4,000 requests is the smallest sample that reaches the memory-bound,
// multi-cycle decode regime the paper evaluates in on every node-model
// combination; smaller samples leave the KV pool underfilled and
// flatten the scheduler differences.
func Quick() Options { return Options{PoolSize: 20000, Requests: 4000, Seed: 1} }

// Paper returns the paper-scale configuration (§4.1).
func Paper() Options { return Options{PoolSize: 86612, Requests: 5000, Seed: 1} }

// Validate reports an option error, if any, naming the bound that
// failed.
func (o Options) Validate() error {
	switch {
	case o.PoolSize < 100:
		return fmt.Errorf("experiments: PoolSize %d is below the minimum of 100", o.PoolSize)
	case o.Requests < 10:
		return fmt.Errorf("experiments: Requests %d is below the minimum of 10", o.Requests)
	case o.Requests > o.PoolSize:
		return fmt.Errorf("experiments: Requests %d exceeds PoolSize %d", o.Requests, o.PoolSize)
	}
	return nil
}

// Env is the shared experimental setup: the corpus, its 60/20/20 split,
// the trained output-length predictor, and the evaluation sample.
type Env struct {
	Opts       Options
	Pool       []workload.Request
	Train, Val []workload.Request
	Test       []workload.Request
	Classifier *predictor.Classifier
	Requests   []workload.Request
}

// NewEnv builds the corpus, trains the predictor on the 60% split
// (§4.1) and samples the evaluation requests.
func NewEnv(o Options) (*Env, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	pool, err := workload.Generate(workload.DefaultConfig(o.PoolSize, o.Seed))
	if err != nil {
		return nil, err
	}
	train, val, test, err := workload.Split(pool, 0.6, 0.2)
	if err != nil {
		return nil, err
	}
	clf, err := predictor.Train(train, predictor.DefaultTrainConfig())
	if err != nil {
		return nil, err
	}
	return &Env{
		Opts:       o,
		Pool:       pool,
		Train:      train,
		Val:        val,
		Test:       test,
		Classifier: clf,
		Requests:   workload.Sample(pool, o.Requests, o.Seed+1000),
	}, nil
}

// renderTable formats rows with aligned columns.
func renderTable(title string, header []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteString("\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}
