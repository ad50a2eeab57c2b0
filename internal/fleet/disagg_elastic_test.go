package fleet

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

func decodeScalerStack(t *testing.T, maxDecode int) *policy.Stack {
	t.Helper()
	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
		Min: 1, Max: maxDecode, Interval: 0.02,
		ScaleUpQueue: 2, ScaleDownQueue: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &policy.Stack{Autoscaler: as}
}

// A stack without an autoscaler must take the exact split code path:
// reports and records byte-identical, at one worker and at four. A
// stack component a split cannot honor is refused, not dropped.
func TestParallelDisaggElasticInactiveStackByteIdentical(t *testing.T) {
	cfg := fastConfig(2)
	reqs := workload.StampArrivals(smallTrace(250, 7), workload.Poisson{Rate: 500}, 13)
	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		want, err := Serve(cfg, reqs, ServeConfig{PrefillReplicas: 2, DecodeReplicas: 2})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, stack := range []*policy.Stack{nil, {}} {
			sc := ServeConfig{PrefillReplicas: 2, DecodeReplicas: 2, Stack: stack}
			got, err := Serve(cfg, reqs, sc)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !bytes.Equal(fullJSON(t, want.Report, want.Records), fullJSON(t, got.Report, got.Records)) {
				t.Fatalf("workers=%d: autoscaler-free stack diverges from the stackless split", workers)
			}
		}
		sc := ServeConfig{PrefillReplicas: 2, DecodeReplicas: 2, Stack: &policy.Stack{Admission: policy.NewTokenBucket(1, 1)}}
		if _, err := Serve(cfg, reqs, sc); !errors.Is(err, ErrSplitStack) {
			t.Fatalf("workers=%d: admission on a split: err = %v, want %v", workers, err, ErrSplitStack)
		}
	}
}

// Decode-pool autoscale interventions execute on the control timeline,
// so elastic disagg reports are byte-identical across worker counts.
func TestParallelDisaggElasticByteIdenticalToSequential(t *testing.T) {
	cfg := fastConfig(2)
	reqs := workload.StampArrivals(smallTrace(300, 9), workload.Poisson{Rate: 800}, 21)
	run := func(workers int) []byte {
		setProcs(t, workers)
		sc := ServeConfig{PrefillReplicas: 2, DecodeReplicas: 4, Stack: decodeScalerStack(t, 4)}
		res, err := Serve(cfg, reqs, sc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fullJSON(t, res.Report, res.Records)
	}
	seq := run(1)
	for _, w := range workerSweep {
		if got := run(w); !bytes.Equal(seq, got) {
			t.Errorf("workers=%d diverges from sequential:\n%s\n%s", w, seq, got)
		}
	}
}

// The decode pool must actually breathe under a bursty trace, and the
// provisioned decode GPU-seconds must come in under the static bill.
func TestDisaggDecodeAutoscalerBreathes(t *testing.T) {
	cfg := fastConfig(2)
	reqs := workload.StampArrivals(smallTrace(400, 11), workload.Poisson{Rate: 1500}, 19)
	sc := ServeConfig{PrefillReplicas: 2, DecodeReplicas: 4, Stack: decodeScalerStack(t, 4)}
	res, err := Serve(cfg, reqs, sc)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res, len(reqs), 0)
	a := res.Report.Autoscale
	if !a.Any() || a.ScaleUps == 0 || a.PeakReplicas < 2 {
		t.Fatalf("decode pool never scaled up: %+v", a)
	}
	staticDecode := 4.0 * float64(cfg.World) * res.Report.Elapsed
	if a.GPUSeconds <= 0 || a.GPUSeconds >= staticDecode {
		t.Fatalf("decode GPU-seconds %.2f not inside (0, static %.2f)", a.GPUSeconds, staticDecode)
	}
}

func TestDisaggElasticRejectsOverMax(t *testing.T) {
	cfg := fastConfig(1)
	reqs := workload.StampArrivals(smallTrace(10, 3), workload.Poisson{Rate: 100}, 5)
	sc := ServeConfig{PrefillReplicas: 1, DecodeReplicas: 2, Stack: decodeScalerStack(t, 4)}
	if _, err := Serve(cfg, reqs, sc); !errors.Is(err, ErrAutoscaleMax) {
		t.Fatalf("decode autoscaler Max above provisioned decode replicas: err = %v, want %v", err, ErrAutoscaleMax)
	}
}
