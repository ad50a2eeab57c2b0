// Package runtime times pipeline passes: the execution plane of the
// paper's hierarchy-controller structure (§3.2). A Cluster binds one
// GPU resource per pipeline stage and one link resource per stage
// boundary to the simulation kernel. A pass runs through the stages in
// order; each stage's compute time comes from the cost model (standing
// in for the GPU) for that stage's slice of the model, and the stage
// forwards its activations to the next one over the link.
//
// Transfers occupy the link, not the GPU, so a stage's compute is
// released before its activation lands on the next stage: the
// "unblocked transmission" the hierarchy-controller exists to enable.
// BlockingP2P restores the stock-vLLM rendezvous send the baselines
// model.
package runtime

import (
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// Cluster binds a pipeline of stages to simulated GPU and link
// resources. Schedulers submit prefill, decode and hybrid passes; the
// cluster times each stage with the cost model and chains the stages
// with asynchronous point-to-point transfers.
type Cluster struct {
	// The fields a stage hop reads come first, ahead of the large
	// Node and Plan values, so a hop on a cold cluster (one of many in
	// a fleet) loads fewer cache lines.
	Eng *sim.Engine
	// Cost and Plan's stage table are shared, read-only, by every
	// cluster built for the same node, model and world.
	Cost *costmodel.Model

	// GPUs[i] serializes compute on device i.
	GPUs []sim.Resource
	// Links[i] serializes the i -> i+1 activation channel. Both are
	// held by value, so a stage hop reads them without a pointer chase.
	Links []sim.Resource
	// Rec records every stage's compute interval for utilization
	// metrics. It is held by value, next to the stage-hop fields, since
	// every pass completion updates it. NewCluster installs a keeping
	// recorder; a caller that needs only Utilization may replace it
	// with a streaming one before the first pass and Fold it as
	// virtual time advances.
	Rec metrics.Recorder

	// passFree heads the recycled pass-state free list; completed
	// passes return here instead of the garbage collector.
	passFree *pass

	// slowdown scales every stage's compute time (straggler modeling
	// for fault injection). Zero or one means nominal speed; the
	// nominal path never touches the multiplication, so fault-free
	// schedules stay bit-identical.
	slowdown float64

	// BlockingP2P switches stage-to-stage transfers to the blocking
	// rendezvous style of stock vLLM pipeline parallelism (§3.2): a
	// send waits for the receiver to be free and stalls the sender
	// until delivery. TD-Pipe's hierarchy-controller leaves this
	// false — transfers are asynchronous and the sender GPU is
	// released at compute end.
	BlockingP2P bool

	// Plan partitions the model's layers over the stages.
	Plan model.PipelinePlan
}

// NewCluster builds a world-size pipeline over the node's GPUs with a
// recorder that keeps every busy interval.
func NewCluster(eng *sim.Engine, node hw.Node, spec model.Spec, world int) (*Cluster, error) {
	if world > node.NumGPUs {
		return nil, fmt.Errorf("runtime: world %d exceeds node GPUs %d", world, node.NumGPUs)
	}
	pl, err := sharedPipeline(node, spec, world)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Eng:  eng,
		Cost: pl.cost,
		Plan: pl.plan,
		Rec:  *metrics.NewRecorder(world),
	}
	for i := 0; i < world; i++ {
		c.GPUs = append(c.GPUs, *sim.NewResource(eng, fmt.Sprintf("gpu%d", i)))
		if i < world-1 {
			c.Links = append(c.Links, *sim.NewResource(eng, fmt.Sprintf("link%d-%d", i, i+1)))
		}
	}
	return c, nil
}

// pipelines interns the cost model and partition of each (node, model,
// world). Both are pure functions of it and are never modified once
// built, so all clusters of a fleet share one copy, which stays in
// cache across replicas instead of being loaded once per replica at
// every stage hop.
var pipelines struct {
	sync.Mutex
	m map[pipelineKey]pipeline
}

type pipelineKey struct {
	node  hw.Node
	spec  model.Spec
	world int
}

type pipeline struct {
	cost *costmodel.Model
	plan model.PipelinePlan
}

// sharedPipeline returns the interned cost model and partition of
// (node, spec, world), building them on first use.
func sharedPipeline(node hw.Node, spec model.Spec, world int) (pipeline, error) {
	pipelines.Lock()
	defer pipelines.Unlock()
	k := pipelineKey{node, spec, world}
	if pl, ok := pipelines.m[k]; ok {
		return pl, nil
	}
	cost, err := costmodel.New(node, spec)
	if err != nil {
		return pipeline{}, err
	}
	plan, err := model.Partition(spec, world)
	if err != nil {
		return pipeline{}, err
	}
	if pipelines.m == nil {
		pipelines.m = make(map[pipelineKey]pipeline)
	}
	pl := pipeline{cost, plan}
	pipelines.m[k] = pl
	return pl, nil
}

// World returns the pipeline depth.
func (c *Cluster) World() int { return len(c.GPUs) }

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
	for i := range c.GPUs {
		g := &c.GPUs[i]
		from := g.FreeAt()
		if at > from {
			from = at
		}
		g.Occupy(from + sim.Time(dur))
	}
}

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

// passKind selects the cost-model call that times a pass's stages.
type passKind uint8

const (
	prefillPass passKind = iota
	decodePass
	hybridPass
)

// pass tracks one pipeline pass through the stages. Its work travels
// by value: the prefill batch of a prefill pass, or the decode batch
// and its KV tokens plus, for a hybrid pass, the prefill chunk and its
// context. Pass states are pooled on the cluster and recycled when the
// completion callback returns, so steady-state passes allocate nothing.
type pass struct {
	c                     *Cluster
	kind                  passKind
	prefill               costmodel.PrefillBatch
	batch, kvTokens       int
	chunkTokens, chunkCtx int
	onDone                func(PassResult)
	res                   PassResult
	// starts[st] is when stage st began computing: with
	// res.StageEnds[st], the busy interval passDone records for GPU st.
	starts []sim.Time
	next   *pass
}

// getPass takes a pass from the free list (or allocates one) and
// prepares its per-stage buffers for the cluster's world size.
//
//det:hotpath
func (c *Cluster) getPass(kind passKind, onDone func(PassResult)) *pass {
	p := c.passFree
	if p == nil {
		p = &pass{c: c} //det:ignore hotalloc the free list grows only until it holds the peak number of in-flight passes
	} else {
		c.passFree = p.next
		p.next = nil
	}
	p.kind, p.onDone = kind, onDone
	if cap(p.res.StageEnds) < c.World() {
		p.res.StageEnds = make([]sim.Time, c.World()) //det:ignore hotalloc sized once per pooled pass, on its first use
		p.starts = make([]sim.Time, c.World())        //det:ignore hotalloc sized once per pooled pass, on its first use
	} else {
		p.res.StageEnds = p.res.StageEnds[:c.World()]
		p.starts = p.starts[:c.World()]
	}
	p.res.Start, p.res.End = 0, 0
	return p
}

// putPass recycles a completed pass.
//
//det:hotpath
func (c *Cluster) putPass(p *pass) {
	p.onDone = nil
	p.next = c.passFree
	c.passFree = p
}

// SubmitPrefill runs one prefill batch through every pipeline stage in
// order, beginning no earlier than readyAt. Stage s+1 starts after
// stage s's compute completes and the activation crosses link s (the
// link is a separate resource, so the sender GPU is free during the
// transfer — asynchronous P2P). onDone, if non-nil, fires at the final
// stage's completion; the PassResult it receives shares a recycled
// StageEnds slice, valid only during the callback. Submission returns
// immediately; all effects happen in virtual time.
//
// Stages are reserved eagerly in submission order, which preserves FIFO
// execution per GPU across interleaved passes — exactly the in-order
// launch queue a real stream gives you.
func (c *Cluster) SubmitPrefill(b costmodel.PrefillBatch, readyAt sim.Time, onDone func(PassResult)) {
	p := c.getPass(prefillPass, onDone)
	p.prefill = b
	c.runStage(p, 0, readyAt)
}

// SubmitDecode is SubmitPrefill for one decode step over batch
// sequences holding kvTokens cached tokens: the scheduler's hot path,
// allocation-free in steady state.
//
//det:hotpath
func (c *Cluster) SubmitDecode(batch, kvTokens int, readyAt sim.Time, onDone func(PassResult)) {
	p := c.getPass(decodePass, onDone)
	p.batch, p.kvTokens = batch, kvTokens
	c.runStage(p, 0, readyAt)
}

// SubmitHybrid is SubmitPrefill for one hybrid iteration: a decode step
// over decodeBatch sequences (kvTokens cached) fused with a prefill
// chunk of chunkTokens tokens over chunkCtx tokens of context.
func (c *Cluster) SubmitHybrid(decodeBatch, kvTokens, chunkTokens, chunkCtx int, readyAt sim.Time, onDone func(PassResult)) {
	p := c.getPass(hybridPass, onDone)
	p.batch, p.kvTokens, p.chunkTokens, p.chunkCtx = decodeBatch, kvTokens, chunkTokens, chunkCtx
	c.runStage(p, 0, readyAt)
}

// passNext continues a pass on its next stage once the activation has
// landed (scheduled via AtFunc: ctx is the pass, a the stage).
//
//det:hotpath
func passNext(ctx any, st, _ int) {
	p := ctx.(*pass)
	p.c.runStage(p, st, p.c.Eng.Now())
}

// passDone fires the completion callback, records the pass's busy
// intervals and recycles the pass. The intervals are recorded after
// the callback, which may raise the recorder's fold watermark to this
// instant. Passes complete in submission order and run FIFO on every
// GPU, so each GPU still receives its intervals in start order.
//
//det:hotpath
func passDone(ctx any, _, _ int) {
	p := ctx.(*pass)
	if p.onDone != nil {
		p.onDone(p.res)
	}
	for st, start := range p.starts {
		p.c.Rec.Add(st, float64(start), float64(p.res.StageEnds[st]))
	}
	p.c.putPass(p)
}

// runStage reserves stage st's GPU for the pass's compute and, except
// on the last stage, the link that forwards its activations: the
// prefill tokens, the decode batch's one token per sequence, or both
// for a hybrid pass. The last stage forwards nothing; its output goes
// back to the scheduler as metadata, which the paper treats as
// negligible RPC traffic.
//
//det:hotpath
func (c *Cluster) runStage(p *pass, st int, arrival sim.Time) {
	var dur float64
	var send int
	switch p.kind {
	case prefillPass:
		dur, send = c.Cost.PrefillStage(c.Plan, st, p.prefill), p.prefill.Tokens
	case decodePass:
		dur, send = c.Cost.DecodeStage(c.Plan, st, p.batch, p.kvTokens), p.batch
	default:
		dur = c.Cost.HybridStage(c.Plan, st, p.batch, p.kvTokens, p.chunkTokens, p.chunkCtx)
		send = p.batch + p.chunkTokens
	}
	if c.slowdown > 0 {
		dur *= c.slowdown
	}
	start, end := c.GPUs[st].Acquire(arrival, dur, nil)
	p.starts[st] = start
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
	xfer := c.Cost.P2PActivation(send)
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
