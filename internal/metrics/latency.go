package metrics

import (
	"fmt"
	"sort"
)

// RequestRecord captures one request's lifecycle in virtual time: when
// it arrived, when its first output token was produced, and when it
// finished. Records are the unit the fleet layer merges across
// replicas, so they carry the request's trace-level ID.
type RequestRecord struct {
	// ID is the request's index in the trace the record belongs to
	// (replica-local before a fleet merge, trace-global after).
	ID int
	// Arrival is when the request entered the system, in seconds.
	Arrival float64
	// FirstToken is when the first output token was produced.
	FirstToken float64
	// Finish is when the last output token was produced.
	Finish float64
	// OutputTokens is the number of tokens generated.
	OutputTokens int
}

// TTFT returns the time to first token: queueing plus prefill.
func (r RequestRecord) TTFT() float64 { return r.FirstToken - r.Arrival }

// TPOT returns the mean time per output token after the first (0 for
// single-token outputs).
func (r RequestRecord) TPOT() float64 {
	if r.OutputTokens <= 1 {
		return 0
	}
	return (r.Finish - r.FirstToken) / float64(r.OutputTokens-1)
}

// E2E returns the end-to-end latency from arrival to completion.
func (r RequestRecord) E2E() float64 { return r.Finish - r.Arrival }

// Finished reports whether the record describes a completed request:
// at least one output token and a monotone arrival -> first-token ->
// finish lifecycle. Records of admitted-but-unfinished requests (e.g.
// a zero-valued record merged for a request still in flight) fail
// this; digesting them as if complete would feed negative "latencies"
// into the percentiles.
func (r RequestRecord) Finished() bool {
	return r.OutputTokens > 0 && r.FirstToken >= r.Arrival && r.Finish >= r.FirstToken
}

// SLO is a service-level objective over per-request latencies. A zero
// component disables that check; the zero value disables the SLO
// entirely (every request is "good").
type SLO struct {
	// TTFT is the max acceptable time to first token, in seconds.
	TTFT float64
	// TPOT is the max acceptable mean time per output token, in seconds.
	TPOT float64
	// E2E is the max acceptable end-to-end latency, in seconds.
	E2E float64
}

// Enabled reports whether any component is set.
func (s SLO) Enabled() bool { return s.TTFT > 0 || s.TPOT > 0 || s.E2E > 0 }

// Met reports whether the record satisfies every enabled component.
func (s SLO) Met(r RequestRecord) bool {
	if s.TTFT > 0 && r.TTFT() > s.TTFT {
		return false
	}
	if s.TPOT > 0 && r.TPOT() > s.TPOT {
		return false
	}
	if s.E2E > 0 && r.E2E() > s.E2E {
		return false
	}
	return true
}

// String renders the enabled objective components.
func (s SLO) String() string {
	if !s.Enabled() {
		return "none"
	}
	out := ""
	app := func(label string, v float64) {
		if v <= 0 {
			return
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s<=%.3gs", label, v)
	}
	app("ttft", s.TTFT)
	app("tpot", s.TPOT)
	app("e2e", s.E2E)
	return out
}

// DefaultSLO is a serving objective calibrated for the simulated
// deployments: first token within 10 s, 2.5 s per output token, and
// seven minutes end to end. The TPOT bound is deliberately loose —
// in a temporally-disaggregated engine the effective per-token time
// includes the decode pauses spent in prefill phases.
func DefaultSLO() SLO { return SLO{TTFT: 10, TPOT: 2.5, E2E: 420} }

// LatencyDigest summarizes per-request latency records: TTFT/TPOT/E2E
// percentiles plus goodput under an SLO. It holds only scalars so
// Report stays comparable with ==.
type LatencyDigest struct {
	// Requests is the number of records digested.
	Requests int

	TTFTP50, TTFTP95, TTFTP99 float64
	TPOTP50, TPOTP95, TPOTP99 float64
	E2EP50, E2EP95, E2EP99    float64

	MeanTTFT, MeanE2E float64

	// SLO is the objective the digest was computed under.
	SLO SLO
	// SLOMet counts requests meeting every enabled SLO component
	// (all of them when the SLO is disabled).
	SLOMet int
}

// Goodput returns the fraction of requests meeting the SLO (1 when the
// digest is empty or the SLO is disabled).
func (d LatencyDigest) Goodput() float64 {
	if d.Requests == 0 {
		return 1
	}
	return float64(d.SLOMet) / float64(d.Requests)
}

// String renders the digest's percentile summary on one line.
func (d LatencyDigest) String() string {
	return fmt.Sprintf("ttft p50/p99 %.2f/%.2fs, tpot p50/p99 %.0f/%.0fms, e2e p50/p99 %.1f/%.1fs, goodput %.1f%% (slo %s)",
		d.TTFTP50, d.TTFTP99, 1e3*d.TPOTP50, 1e3*d.TPOTP99, d.E2EP50, d.E2EP99, 100*d.Goodput(), d.SLO)
}

// Digest folds records into a latency digest under the SLO. The input
// order does not matter; the result is deterministic for a set of
// records. Unfinished records (see RequestRecord.Finished) count
// toward Requests but never toward SLOMet, and are excluded from the
// percentiles and means: an empty or all-unfinished record set yields
// defined zeros in every latency field, never NaN or negative
// "latencies" from zero-valued timestamps.
func Digest(records []RequestRecord, slo SLO) LatencyDigest {
	d := LatencyDigest{Requests: len(records), SLO: slo}
	if len(records) == 0 {
		return d
	}
	ttft := make([]float64, 0, len(records))
	tpot := make([]float64, 0, len(records))
	e2e := make([]float64, 0, len(records))
	for _, r := range records {
		if !r.Finished() {
			continue
		}
		ttft = append(ttft, r.TTFT())
		tpot = append(tpot, r.TPOT())
		e2e = append(e2e, r.E2E())
		if slo.Met(r) {
			d.SLOMet++
		}
	}
	if len(ttft) == 0 {
		return d
	}
	sort.Float64s(ttft)
	sort.Float64s(tpot)
	sort.Float64s(e2e)
	// Sum means over the sorted values so the digest is bit-identical
	// regardless of input order (fleet merges rely on this).
	for i := range ttft {
		d.MeanTTFT += ttft[i]
		d.MeanE2E += e2e[i]
	}
	d.MeanTTFT /= float64(len(ttft))
	d.MeanE2E /= float64(len(ttft))
	d.TTFTP50, d.TTFTP95, d.TTFTP99 = rank(ttft, 50), rank(ttft, 95), rank(ttft, 99)
	d.TPOTP50, d.TPOTP95, d.TPOTP99 = rank(tpot, 50), rank(tpot, 95), rank(tpot, 99)
	d.E2EP50, d.E2EP95, d.E2EP99 = rank(e2e, 50), rank(e2e, 95), rank(e2e, 99)
	return d
}

// Percentile returns the p-th percentile of values. Sorted input is
// used as-is; unsorted input is copied and sorted first. p is clamped
// to [0, 100]; the empty slice yields 0.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(values) {
		c := append([]float64(nil), values...)
		sort.Float64s(c)
		values = c
	}
	return rank(values, p)
}

// rank returns the p-th percentile of sorted, a non-empty slice in
// ascending order, with p clamped to [0, 100].
func rank(sorted []float64, p float64) float64 {
	p = min(max(p, 0), 100)
	return sorted[int(p/100*float64(len(sorted)-1))]
}
