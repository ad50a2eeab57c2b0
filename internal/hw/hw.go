// Package hw models the multi-GPU node hardware TD-Pipe targets: GPUs
// described by their FP16 tensor throughput, HBM bandwidth and memory
// capacity, connected through a PCIe switch without GPU-direct cables
// (paper Table 1 and Figure 4).
//
// The simulation does not execute kernels; it only needs the quantities
// that determine execution time under a roofline model plus the
// interconnect bandwidths that determine communication time.
package hw

import "fmt"

// GPU describes one accelerator.
type GPU struct {
	Name string
	// FP16TFLOPS is peak FP16 tensor-core throughput in TFLOP/s.
	FP16TFLOPS float64
	// HBMGBps is peak memory bandwidth in GB/s.
	HBMGBps float64
	// MemGB is device memory capacity in GB.
	MemGB float64
}

// FLOPS returns peak throughput in FLOP/s.
func (g GPU) FLOPS() float64 { return g.FP16TFLOPS * 1e12 }

// MemBandwidth returns memory bandwidth in bytes/s.
func (g GPU) MemBandwidth() float64 { return g.HBMGBps * 1e9 }

// MemBytes returns memory capacity in bytes. GPU marketing capacities
// are decimal (an "80 GB" A100 has 80e9 bytes of HBM).
func (g GPU) MemBytes() float64 { return g.MemGB * 1e9 }

// String names the GPU with its memory size.
func (g GPU) String() string {
	return fmt.Sprintf("%s (%.1f TFLOPS fp16, %.0f GB/s, %.0f GB)", g.Name, g.FP16TFLOPS, g.HBMGBps, g.MemGB)
}

// Node describes a multi-GPU server: identical GPUs behind one PCIe
// switch sharing the CPU root complex, as in paper Figure 4.
type Node struct {
	Name string
	GPU  GPU
	// NumGPUs is the number of installed devices (the paper uses 4).
	NumGPUs int
	// AllReduceGBps is the measured bus (algorithm) bandwidth of an
	// all-reduce across the node's GPUs, in GB/s. Table 1 reports
	// 14.65 GB/s (L20 node) and 14.82 GB/s (A100 node).
	AllReduceGBps float64
	// P2PGBps is effective point-to-point bandwidth between two GPUs
	// through the PCIe switch (GPUDirect), in GB/s.
	P2PGBps float64
	// P2PLatency is the fixed per-transfer latency in seconds
	// (driver + switch traversal).
	P2PLatency float64
	// CollectiveLatency is the fixed per-operation latency of a
	// collective (NCCL launch + synchronization), in seconds.
	CollectiveLatency float64
	// KVLinkGBps is the effective bandwidth of the interconnect that
	// migrates KV blocks between replicas in a disaggregated
	// prefill/decode deployment, in GB/s. Zero falls back to the P2P
	// parameters (hand-off over the same switch fabric).
	KVLinkGBps float64
	// KVLinkLatency is the fixed per-hand-off latency in seconds
	// (connection setup + first-byte). Used with KVLinkGBps; when
	// KVLinkGBps is zero, P2PLatency applies instead.
	KVLinkLatency float64
}

// Validate reports a configuration error, if any.
func (n Node) Validate() error {
	switch {
	case n.NumGPUs <= 0:
		return fmt.Errorf("hw: node %q has %d GPUs", n.Name, n.NumGPUs)
	case n.GPU.FP16TFLOPS <= 0 || n.GPU.HBMGBps <= 0 || n.GPU.MemGB <= 0:
		return fmt.Errorf("hw: node %q has incomplete GPU spec %+v", n.Name, n.GPU)
	case n.AllReduceGBps <= 0 || n.P2PGBps <= 0:
		return fmt.Errorf("hw: node %q has incomplete interconnect spec", n.Name)
	case n.P2PLatency < 0 || n.CollectiveLatency < 0:
		return fmt.Errorf("hw: node %q has negative interconnect latency", n.Name)
	case n.KVLinkGBps < 0 || n.KVLinkLatency < 0:
		return fmt.Errorf("hw: node %q has negative KV link spec (%.3g GB/s, %.3g s); zero means 'fall back to P2P'",
			n.Name, n.KVLinkGBps, n.KVLinkLatency)
	}
	return nil
}

// P2PTime returns the time to move bytes from one GPU to a neighbour
// through the switch. A node with no usable P2P bandwidth (rejected by
// Validate, but reachable through hand-built configs) yields the fixed
// latency alone rather than dividing by zero and propagating +Inf into
// schedules.
func (n Node) P2PTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	if n.P2PGBps <= 0 {
		return n.P2PLatency
	}
	return n.P2PLatency + bytes/(n.P2PGBps*1e9)
}

// The time to migrate KV-cache bytes over the KV link (checkpoints,
// disaggregated hand-offs) is priced by costmodel.KVTransfer, which
// owns the one canonical transfer formula; hw only declares the link.

// Table 1 of the paper, plus interconnect characteristics measured
// there. P2P bandwidth through a PCIe 4.0 switch with GPUDirect is set
// to a typical ~20 GB/s effective; the collectives use the measured
// all-reduce bus bandwidths. The KV hand-off link between replicas is
// a 200 Gb/s-class fabric (~25 GB/s effective, 50 µs setup), the kind
// of RDMA path disaggregated serving systems migrate prefix caches
// over.
var (
	// L20 is the 4x NVIDIA L20 (48 GB) PCIe node.
	L20 = Node{
		Name:              "L20",
		GPU:               GPU{Name: "NVIDIA L20", FP16TFLOPS: 119.5, HBMGBps: 864, MemGB: 48},
		NumGPUs:           4,
		AllReduceGBps:     14.65,
		P2PGBps:           20,
		P2PLatency:        10e-6,
		CollectiveLatency: 80e-6,
		KVLinkGBps:        25,
		KVLinkLatency:     50e-6,
	}
	// A100 is the 4x NVIDIA A100 (80 GB) PCIe node.
	A100 = Node{
		Name:              "A100",
		GPU:               GPU{Name: "NVIDIA A100", FP16TFLOPS: 312, HBMGBps: 1935, MemGB: 80},
		NumGPUs:           4,
		AllReduceGBps:     14.82,
		P2PGBps:           20,
		P2PLatency:        10e-6,
		CollectiveLatency: 80e-6,
		KVLinkGBps:        25,
		KVLinkLatency:     50e-6,
	}
	// TestNode is a small fast node for unit tests: timings stay easy
	// to reason about (1 TFLOPS, 1 GB/s everything).
	TestNode = Node{
		Name:              "test",
		GPU:               GPU{Name: "testgpu", FP16TFLOPS: 1e-3, HBMGBps: 1, MemGB: 1},
		NumGPUs:           4,
		AllReduceGBps:     1,
		P2PGBps:           1,
		P2PLatency:        0,
		CollectiveLatency: 0,
	}
)

// Nodes lists the evaluation nodes from the paper.
func Nodes() []Node { return []Node{L20, A100} }
