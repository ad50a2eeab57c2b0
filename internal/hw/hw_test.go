package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1Specs(t *testing.T) {
	// Paper Table 1.
	if L20.GPU.FP16TFLOPS != 119.5 || L20.GPU.HBMGBps != 864 || L20.GPU.MemGB != 48 {
		t.Errorf("L20 spec drifted from Table 1: %+v", L20.GPU)
	}
	if A100.GPU.FP16TFLOPS != 312 || A100.GPU.HBMGBps != 1935 || A100.GPU.MemGB != 80 {
		t.Errorf("A100 spec drifted from Table 1: %+v", A100.GPU)
	}
	if L20.AllReduceGBps != 14.65 || A100.AllReduceGBps != 14.82 {
		t.Errorf("all-reduce bandwidths drifted from Table 1: %v %v", L20.AllReduceGBps, A100.AllReduceGBps)
	}
}

func TestUnitConversions(t *testing.T) {
	g := GPU{FP16TFLOPS: 2, HBMGBps: 3, MemGB: 4}
	if g.FLOPS() != 2e12 {
		t.Errorf("FLOPS = %v", g.FLOPS())
	}
	if g.MemBandwidth() != 3e9 {
		t.Errorf("MemBandwidth = %v", g.MemBandwidth())
	}
	if g.MemBytes() != 4e9 {
		t.Errorf("MemBytes = %v", g.MemBytes())
	}
}

func TestValidate(t *testing.T) {
	if err := L20.Validate(); err != nil {
		t.Errorf("L20 invalid: %v", err)
	}
	if err := A100.Validate(); err != nil {
		t.Errorf("A100 invalid: %v", err)
	}
	bad := L20
	bad.NumGPUs = 0
	if bad.Validate() == nil {
		t.Error("zero-GPU node validated")
	}
	bad = L20
	bad.GPU.HBMGBps = 0
	if bad.Validate() == nil {
		t.Error("bandwidth-less GPU validated")
	}
	bad = L20
	bad.AllReduceGBps = 0
	if bad.Validate() == nil {
		t.Error("interconnect-less node validated")
	}
	bad = L20
	bad.P2PGBps = 0
	if bad.Validate() == nil {
		t.Error("node with zero P2P bandwidth validated")
	}
	bad = L20
	bad.KVLinkGBps = -1
	if bad.Validate() == nil {
		t.Error("node with negative KV link bandwidth validated")
	}
	bad = L20
	bad.P2PLatency = -1e-6
	if bad.Validate() == nil {
		t.Error("node with negative P2P latency validated")
	}
}

func TestP2PTime(t *testing.T) {
	n := Node{P2PGBps: 20, P2PLatency: 10e-6}
	if got := n.P2PTime(0); got != 0 {
		t.Errorf("empty transfer = %v, want 0", got)
	}
	want := 10e-6 + 2e9/(20e9)
	if got := n.P2PTime(2e9); math.Abs(got-want) > 1e-15 {
		t.Errorf("p2p time = %v, want %v", got, want)
	}
}

// An unvalidated node with no P2P bandwidth must still produce finite
// times (latency-only), never +Inf that would poison virtual-time
// schedules. The KV-link equivalent lives in costmodel, which owns the
// transfer formula.
func TestTransferTimesFiniteWithoutBandwidth(t *testing.T) {
	n := Node{P2PLatency: 10e-6}
	if got := n.P2PTime(1e9); math.IsInf(got, 1) || math.IsNaN(got) || got != 10e-6 {
		t.Errorf("bandwidth-less P2PTime = %v, want the bare latency", got)
	}
}

// Property: transfer times are monotone in payload size.
func TestMonotoneTimesProperty(t *testing.T) {
	prop := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || a > 1e15 || b > 1e15 {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return L20.P2PTime(lo) <= L20.P2PTime(hi)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNodesList(t *testing.T) {
	ns := Nodes()
	if len(ns) != 2 || ns[0].Name != "L20" || ns[1].Name != "A100" {
		t.Errorf("Nodes() = %v", ns)
	}
}
