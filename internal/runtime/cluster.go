package runtime

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// Transport selects how a Cluster reaches its workers.
type Transport int

const (
	// TransportDirect dispatches control messages as plain method
	// calls on the calling goroutine — the zero-roundtrip default.
	TransportDirect Transport = iota
	// TransportMailbox runs each worker as a goroutine actor with a
	// channel mailbox — the original execution plane, kept for
	// cross-transport equivalence tests and actor-style deployments.
	TransportMailbox
)

// Cluster binds a pipeline of workers to simulated GPU and link
// resources. Schedulers submit per-stage tasks; the cluster routes them
// through worker endpoints for timing and chains the stages with
// asynchronous point-to-point transfers.
type Cluster struct {
	Eng  *sim.Engine
	Node hw.Node
	Cost *costmodel.Model
	Plan model.PipelinePlan

	// Workers are the execution-plane endpoints. They are Callers so
	// the control plane can talk to them through either transport —
	// plain method calls (NewDirectCaller) or the in-process mailbox
	// (NewWorker).
	Workers []Caller
	// GPUs[i] serializes compute on device i.
	GPUs []*sim.Resource
	// Links[i] serializes the i -> i+1 activation channel.
	Links []*sim.Resource
	// Rec records busy intervals for utilization metrics.
	Rec *metrics.Recorder

	// BlockingP2P switches stage-to-stage transfers to the blocking
	// rendezvous style of stock vLLM pipeline parallelism (§3.2): a
	// send waits for the receiver to be free and stalls the sender
	// until delivery. TD-Pipe's hierarchy-controller leaves this
	// false — transfers are asynchronous and the sender GPU is
	// released at compute end.
	BlockingP2P bool

	// passFree heads the recycled pass-state free list; completed
	// passes return here instead of the garbage collector.
	passFree *pass

	// slowdown scales every stage's compute time (straggler modeling
	// for fault injection). Zero or one means nominal speed; the
	// nominal path never touches the multiplication, so fault-free
	// schedules stay bit-identical.
	slowdown float64
}

// NewCluster builds a world-size pipeline over the node's GPUs using the
// direct (zero-roundtrip) transport, and wires busy-interval recording.
func NewCluster(eng *sim.Engine, node hw.Node, spec model.Spec, world int) (*Cluster, error) {
	return NewClusterTransport(eng, node, spec, world, TransportDirect)
}

// NewClusterTransport is NewCluster with an explicit worker transport.
// All transports produce bit-identical schedules; the mailbox exists
// for equivalence testing and for deployments that want worker actors.
func NewClusterTransport(eng *sim.Engine, node hw.Node, spec model.Spec, world int, tr Transport) (*Cluster, error) {
	if world > node.NumGPUs {
		return nil, fmt.Errorf("runtime: world %d exceeds node GPUs %d", world, node.NumGPUs)
	}
	cost, err := costmodel.New(node, spec)
	if err != nil {
		return nil, err
	}
	plan, err := model.Partition(spec, world)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Eng:  eng,
		Node: node,
		Cost: cost,
		Plan: plan,
		Rec:  metrics.NewRecorder(world),
	}
	for i := 0; i < world; i++ {
		gpu := sim.NewResource(eng, fmt.Sprintf("gpu%d", i))
		gpu.Observe(c.Rec.ObserverFor(i))
		c.GPUs = append(c.GPUs, gpu)
		if i < world-1 {
			c.Links = append(c.Links, sim.NewResource(eng, fmt.Sprintf("link%d-%d", i, i+1)))
		}
		var w Caller
		if tr == TransportMailbox {
			w = NewWorker()
		} else {
			w = NewDirectCaller()
		}
		if rep := w.Call(Init{Plan: plan, Rank: i, World: world, Cost: cost}); isErr(rep) {
			return nil, rep.(ErrorReply).Err
		}
		c.Workers = append(c.Workers, w)
	}
	return c, nil
}

// World returns the pipeline depth.
func (c *Cluster) World() int { return len(c.Workers) }

// SetSlowdown scales all subsequent stage compute times by f — the
// straggler knob of fault injection (f > 1 slows the node down). f <= 0
// or f == 1 restores nominal speed. Call before the simulation runs for
// a static straggler, or mid-run to model degradation windows.
func (c *Cluster) SetSlowdown(f float64) {
	if f == 1 {
		f = 0
	}
	c.slowdown = f
}

// Stall makes every GPU unavailable for dur seconds starting no earlier
// than at (later if a pass holds the device), without counting the span
// as busy compute — downtime, not work. Crash/restart and checkpoint
// serialization use it to push subsequent passes out in time.
func (c *Cluster) Stall(at sim.Time, dur float64) {
	if dur <= 0 {
		return
	}
	for _, g := range c.GPUs {
		from := g.FreeAt()
		if at > from {
			from = at
		}
		g.Occupy(from + sim.Time(dur))
	}
}

// Shutdown stops all workers (a no-op for direct endpoints, a goroutine
// join for mailbox workers).
func (c *Cluster) Shutdown() {
	for _, w := range c.Workers {
		w.Call(Shutdown{})
	}
}

func isErr(m Msg) bool {
	_, bad := m.(ErrorReply)
	return bad
}

// StageTask produces the control message for one stage of a pipeline
// pass. Schedulers supply it so each stage can carry stage-specific
// work (e.g. hybrid batches differ per stage only in timing).
type StageTask func(stage int) Msg

// PassResult reports the completion of a full pipeline pass.
type PassResult struct {
	// Start is when stage 0 began computing.
	Start sim.Time
	// End is when the last stage finished computing.
	End sim.Time
	// StageEnds are per-stage compute completion times. The slice is
	// recycled once the pass's completion callback returns; callbacks
	// that retain it past their own scope must copy it.
	StageEnds []sim.Time
}

// pass tracks one pipeline pass through the stages. Pass states are
// pooled on the cluster: recycled when the completion callback returns,
// so steady-state passes allocate nothing. Decode passes (the hot path)
// carry their spec by value instead of a StageTask, avoiding the
// per-step closure and message boxing.
type pass struct {
	c      *Cluster
	task   StageTask  // nil for decode-spec passes
	decode ExecDecode // used when task is nil
	onDone func(PassResult)
	res    PassResult
	next   *pass
}

// getPass takes a pass from the free list (or allocates one) and
// prepares its result buffer for the cluster's world size.
func (c *Cluster) getPass(task StageTask, onDone func(PassResult)) *pass {
	p := c.passFree
	if p == nil {
		p = &pass{c: c}
	} else {
		c.passFree = p.next
		p.next = nil
	}
	p.task, p.onDone = task, onDone
	if cap(p.res.StageEnds) < len(c.Workers) {
		p.res.StageEnds = make([]sim.Time, len(c.Workers))
	} else {
		p.res.StageEnds = p.res.StageEnds[:len(c.Workers)]
	}
	p.res.Start, p.res.End = 0, 0
	return p
}

// putPass recycles a completed pass.
func (c *Cluster) putPass(p *pass) {
	p.task, p.onDone = nil, nil
	p.next = c.passFree
	c.passFree = p
}

// SubmitPass runs one task through every pipeline stage in order,
// beginning no earlier than readyAt. Stage s+1 starts after stage s's
// compute completes and the activation crosses link s (the link is a
// separate resource, so the sender GPU is free during the transfer —
// asynchronous P2P). onDone, if non-nil, fires at the final stage's
// completion; the PassResult it receives shares a recycled StageEnds
// slice, valid only during the callback. SubmitPass returns
// immediately; all effects happen in virtual time.
//
// Stages are reserved eagerly in submission order, which preserves FIFO
// execution per GPU across interleaved passes — exactly the in-order
// launch queue a real stream gives you.
func (c *Cluster) SubmitPass(task StageTask, readyAt sim.Time, onDone func(PassResult)) {
	c.runStage(c.getPass(task, onDone), 0, readyAt)
}

// SubmitDecode is SubmitPass for one decode step, the scheduler's hot
// path: the spec travels by value in the pooled pass state, so a
// steady-state decode step allocates nothing at all.
func (c *Cluster) SubmitDecode(batch, kvTokens int, readyAt sim.Time, onDone func(PassResult)) {
	p := c.getPass(nil, onDone)
	p.decode = ExecDecode{BatchSize: batch, KVTokens: kvTokens}
	c.runStage(p, 0, readyAt)
}

// passNext continues a pass on its next stage once the activation has
// landed (scheduled via AtFunc: ctx is the pass, a the stage).
func passNext(ctx any, st, _ int) {
	p := ctx.(*pass)
	p.c.runStage(p, st, p.c.Eng.Now())
}

// passDone fires the completion callback and recycles the pass.
func passDone(ctx any, _, _ int) {
	p := ctx.(*pass)
	if p.onDone != nil {
		p.onDone(p.res)
	}
	p.c.putPass(p)
}

func (c *Cluster) runStage(p *pass, st int, arrival sim.Time) {
	var er ExecResult
	if p.task == nil {
		er = c.execDecode(st, p.decode)
	} else {
		er = c.exec(st, p.task(st))
	}
	if c.slowdown > 0 {
		er.Dur *= c.slowdown
	}
	start, end := c.GPUs[st].Acquire(arrival, er.Dur, nil)
	if st == 0 {
		p.res.Start = start
	}
	p.res.StageEnds[st] = end
	if st == c.World()-1 {
		p.res.End = end
		c.Eng.AtFunc(end, passDone, p, 0, 0)
		return
	}
	// Transfer occupies the link; compute of the next stage begins
	// when the payload lands.
	xfer := c.Cost.P2PActivation(er.SendTokens)
	xferReady := end
	if c.BlockingP2P {
		// Rendezvous send: wait for the receiver to drain its queue,
		// and stall the sender (unavailable, not busy) until the
		// payload is delivered.
		if recvFree := c.GPUs[st+1].FreeAt(); recvFree > xferReady {
			xferReady = recvFree
		}
	}
	_, landed := c.Links[st].Acquire(xferReady, xfer, nil)
	if c.BlockingP2P {
		c.GPUs[st].Occupy(landed)
	}
	c.Eng.AtFunc(landed, passNext, p, st+1, 0)
}

// execDecode routes one decode stage to its worker. On the direct
// transport neither the message nor the reply is boxed.
func (c *Cluster) execDecode(st int, spec ExecDecode) ExecResult {
	if d, ok := c.Workers[st].(*DirectCaller); ok {
		er, err := d.state.execDecode(spec)
		if err != nil {
			panic(fmt.Sprintf("runtime: stage %d worker error: %v", st, err))
		}
		return er
	}
	return c.exec(st, spec)
}

// exec routes one stage task to its worker. Direct endpoints skip the
// Msg boxing of the reply; every other transport goes through Call.
func (c *Cluster) exec(st int, msg Msg) ExecResult {
	if d, ok := c.Workers[st].(*DirectCaller); ok {
		er, err := d.state.exec(msg)
		if err != nil {
			panic(fmt.Sprintf("runtime: stage %d worker error: %v", st, err))
		}
		return er
	}
	rep := c.Workers[st].Call(msg)
	er, ok := rep.(ExecResult)
	if !ok {
		panic(fmt.Sprintf("runtime: stage %d worker error: %v", st, rep))
	}
	return er
}

// PrefillTask returns a StageTask for a prefill batch. The message is
// boxed once and shared by every stage of the pass.
func PrefillTask(b costmodel.PrefillBatch) StageTask {
	msg := Msg(ExecPrefill{Batch: b})
	return func(int) Msg { return msg }
}

// DecodeTask returns a StageTask for one decode step.
func DecodeTask(batch, kvTokens int) StageTask {
	msg := Msg(ExecDecode{BatchSize: batch, KVTokens: kvTokens})
	return func(int) Msg { return msg }
}

// HybridTask returns a StageTask for a hybrid iteration.
func HybridTask(decodeBatch, kvTokens, chunkTokens, chunkCtx int) StageTask {
	msg := Msg(ExecHybrid{DecodeBatch: decodeBatch, KVTokens: kvTokens, ChunkTokens: chunkTokens, ChunkCtx: chunkCtx})
	return func(int) Msg { return msg }
}
