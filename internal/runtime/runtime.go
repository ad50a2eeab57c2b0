// Package runtime implements the paper's distributed runtime — the
// execution plane of the hierarchy-controller structure (§3.2). Each
// GPU is served by a worker endpoint; the centralized engine (the
// control plane, package core) sends typed control messages and
// receives typed replies, never touching worker state directly. Workers
// know only their own stage, their rank in the global communication
// context, and which neighbour they send activations to — the SPMD
// property of §3.2.2.
//
// Two transports implement the control plane's Caller view of a
// worker: DirectCaller dispatches messages as plain method calls (no
// goroutine, no channel — the zero-roundtrip default for simulation),
// and Worker runs a goroutine actor with a channel mailbox. Both are
// observationally identical; the mailbox transport models the actor
// deployment shape the paper describes.
//
// Virtual time lives in the simulation kernel: a worker computes how
// long a task runs (via the cost model, standing in for the GPU), and
// the cluster schedules that duration on the GPU's resource. Transfers
// occupy a separate link resource, so computation is released before
// the activation lands on the next stage — the "unblocked transmission"
// the hierarchy-controller exists to enable.
package runtime

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/model"
)

// Msg is a control-plane message.
type Msg interface{ isMsg() }

// Init configures a worker with its model slice and comm context.
type Init struct {
	Plan  model.PipelinePlan
	Rank  int
	World int
	Cost  *costmodel.Model
}

// InitAck reports the worker's resident weight bytes.
type InitAck struct {
	Rank        int
	WeightBytes float64
}

// ExecPrefill asks a worker to run its layers over a prefill batch.
type ExecPrefill struct {
	Batch costmodel.PrefillBatch
}

// ExecDecode asks a worker to run one decode step.
type ExecDecode struct {
	BatchSize int
	KVTokens  int
}

// ExecChunked asks a worker to run a chunked-prefill piece.
type ExecChunked struct {
	ChunkTokens int
	CtxTokens   int
}

// ExecHybrid asks a worker to run a hybrid (decode + prefill chunk)
// iteration.
type ExecHybrid struct {
	DecodeBatch int
	KVTokens    int
	ChunkTokens int
	ChunkCtx    int
}

// ExecResult reports a task duration and the activation payload the
// worker forwards to its pipeline neighbour (0 for the last stage).
type ExecResult struct {
	Rank       int
	Dur        float64
	SendTokens int
}

// Shutdown stops the worker goroutine.
type Shutdown struct{}

// Ack is the empty successful reply.
type Ack struct{}

// ErrorReply carries a worker-side failure.
type ErrorReply struct{ Err error }

func (Init) isMsg()        {}
func (InitAck) isMsg()     {}
func (ExecPrefill) isMsg() {}
func (ExecDecode) isMsg()  {}
func (ExecChunked) isMsg() {}
func (ExecHybrid) isMsg()  {}
func (ExecResult) isMsg()  {}
func (Shutdown) isMsg()    {}
func (Ack) isMsg()         {}
func (ErrorReply) isMsg()  {}

// Caller is the control plane's view of a worker endpoint: send one
// control message, get one reply. Implemented by *DirectCaller (plain
// method calls) and *Worker (in-process mailbox).
type Caller interface {
	Call(Msg) Msg
}

// workerState is the execution-plane logic, independent of transport.
// Every transport routes messages to exactly one workerState, which is
// mutated only by Init, so the one-message-at-a-time discipline of the
// control plane keeps it race-free on all transports.
type workerState struct {
	rank  int
	world int
	plan  model.PipelinePlan
	cost  *costmodel.Model
	ready bool
}

// handle processes one control message and produces its reply.
func (w *workerState) handle(msg Msg) Msg {
	switch m := msg.(type) {
	case Init:
		if m.Rank < 0 || m.Rank >= m.World || m.World != len(m.Plan.Stages) {
			return ErrorReply{fmt.Errorf("runtime: bad init rank=%d world=%d stages=%d", m.Rank, m.World, len(m.Plan.Stages))}
		}
		w.rank, w.world, w.plan, w.cost = m.Rank, m.World, m.Plan, m.Cost
		w.ready = true
		return InitAck{Rank: w.rank, WeightBytes: w.plan.StageWeightBytes(w.rank)}
	case ExecPrefill, ExecDecode, ExecChunked, ExecHybrid:
		er, err := w.exec(msg)
		if err != nil {
			return ErrorReply{err}
		}
		return er
	case Shutdown:
		return Ack{}
	default:
		return ErrorReply{fmt.Errorf("runtime: unknown message %T", msg)}
	}
}

// exec runs one execution message without boxing the result into a Msg
// — the hot path the direct transport calls per pipeline stage.
func (w *workerState) exec(msg Msg) (ExecResult, error) {
	if !w.ready {
		return ExecResult{}, fmt.Errorf("runtime: exec before init")
	}
	switch m := msg.(type) {
	case ExecPrefill:
		return ExecResult{
			Rank:       w.rank,
			Dur:        w.cost.PrefillStage(w.plan, w.rank, m.Batch),
			SendTokens: w.sendTokens(m.Batch.Tokens),
		}, nil
	case ExecDecode:
		return w.execDecode(m)
	case ExecChunked:
		return ExecResult{
			Rank:       w.rank,
			Dur:        w.cost.ChunkedPrefillStage(w.plan, w.rank, m.ChunkTokens, m.CtxTokens),
			SendTokens: w.sendTokens(m.ChunkTokens),
		}, nil
	case ExecHybrid:
		return ExecResult{
			Rank:       w.rank,
			Dur:        w.cost.HybridStage(w.plan, w.rank, m.DecodeBatch, m.KVTokens, m.ChunkTokens, m.ChunkCtx),
			SendTokens: w.sendTokens(m.DecodeBatch + m.ChunkTokens),
		}, nil
	default:
		return ExecResult{}, fmt.Errorf("runtime: not an exec message %T", msg)
	}
}

// execDecode runs one decode step without any interface traffic — the
// per-token hot path of the whole simulator.
func (w *workerState) execDecode(m ExecDecode) (ExecResult, error) {
	if !w.ready {
		return ExecResult{}, fmt.Errorf("runtime: exec before init")
	}
	return ExecResult{
		Rank:       w.rank,
		Dur:        w.cost.DecodeStage(w.plan, w.rank, m.BatchSize, m.KVTokens),
		SendTokens: w.sendTokens(m.BatchSize),
	}, nil
}

// sendTokens returns the activation tokens forwarded downstream, or 0 on
// the last stage (its output goes back to the engine as metadata, which
// the paper treats as negligible RPC traffic).
func (w *workerState) sendTokens(tokens int) int {
	if w.rank == w.world-1 {
		return 0
	}
	return tokens
}

// DirectCaller is the zero-roundtrip in-process transport: control
// messages dispatch as plain method calls on worker state owned by the
// calling goroutine — no goroutine, no channel, no scheduler crossing.
// It is the Cluster default. The simulation's single-threaded event
// loop already serializes control messages, so the mailbox's queueing
// buys nothing there; keep Worker for actor-style deployments.
type DirectCaller struct {
	state workerState
}

// NewDirectCaller returns an uninitialized direct worker endpoint; send
// Init before exec messages, as with every transport.
func NewDirectCaller() *DirectCaller { return &DirectCaller{} }

// Call dispatches msg synchronously on the caller's goroutine.
func (d *DirectCaller) Call(msg Msg) Msg { return d.state.handle(msg) }

// call pairs a message with its reply channel.
type call struct {
	msg   Msg
	reply chan Msg
}

// Worker is one execution-plane actor: the mailbox transport. Each
// worker owns a goroutine that drains a channel of control messages.
type Worker struct {
	inbox chan call
	state workerState
}

// NewWorker starts a worker goroutine and returns its handle.
func NewWorker() *Worker {
	w := &Worker{inbox: make(chan call)}
	//det:ignore goroutine mailbox transport is an explicit actor boundary; one worker drains one channel so message order is the caller's call order
	go w.loop()
	return w
}

// Call sends msg and blocks until the worker replies. Messages are
// processed strictly one at a time, so interaction remains
// deterministic under the simulation's single-threaded event loop.
func (w *Worker) Call(msg Msg) Msg {
	c := call{msg: msg, reply: make(chan Msg)}
	w.inbox <- c
	return <-c.reply
}

func (w *Worker) loop() {
	for c := range w.inbox {
		reply := w.state.handle(c.msg)
		c.reply <- reply
		if _, stop := c.msg.(Shutdown); stop {
			return
		}
	}
}
