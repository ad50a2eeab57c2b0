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
// Since GPUs and links are FIFO, a pass's whole schedule is known when
// it is submitted, so the cluster reserves every stage then and the
// pass costs one kernel event, its completion. BlockingP2P restores
// the stock-vLLM rendezvous send the baselines model, which books each
// stage when its input lands, one event per stage hop.
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
	// Cost times every stage of Plan from constants built once per
	// plan. It and Plan's stage table are shared, read-only, by every
	// cluster built for the same node, model and world.
	Cost *costmodel.StageTable

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
	// head and tail hold the passes in flight in submission order,
	// linked through pass.next, for Stall to re-time.
	head, tail *pass

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
		c.GPUs = append(c.GPUs, *sim.NewResource(eng))
		if i < world-1 {
			c.Links = append(c.Links, *sim.NewResource(eng))
		}
	}
	return c, nil
}

// pipelines interns the partition of each (node, model, world) and the
// stage-time table of the partition under the node's cost model. Both
// are pure functions of the key and are never modified once built, so
// all clusters of a fleet share one copy, which stays in cache across
// replicas instead of being loaded once per replica at every stage
// hop.
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
	cost *costmodel.StageTable
	plan model.PipelinePlan
}

// sharedPipeline returns the interned stage-time table and partition
// of (node, spec, world), building them on first use.
func sharedPipeline(node hw.Node, spec model.Spec, world int) (pipeline, error) {
	pipelines.Lock()
	defer pipelines.Unlock()
	k := pipelineKey{node, spec, world}
	if pl, ok := pipelines.m[k]; ok {
		return pl, nil
	}
	cm, err := costmodel.New(node, spec)
	if err != nil {
		return pipeline{}, err
	}
	plan, err := model.Partition(spec, world)
	if err != nil {
		return pipeline{}, err
	}
	cost, err := costmodel.NewStageTable(cm, plan)
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

// SetSlowdown scales the stage compute times of passes submitted after
// the call by f — the straggler knob of fault injection (f > 1 slows
// the node down). f <= 0 or f == 1 restores nominal speed. Passes
// already submitted keep the speed they were reserved at.
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
//
// A pass in flight keeps the stages it has reached: stage 0, and every
// stage whose input landed before at. Its later stages were reserved
// at submission; Stall takes those reservations back, applies the
// downtime, and reserves them again in submission order, so they run
// after the stall exactly as if each had been booked when its input
// landed. The pass then completes at its new End.
func (c *Cluster) Stall(at sim.Time, dur float64) {
	if dur <= 0 {
		return
	}
	retime := c.unbook(at)
	for i := range c.GPUs {
		g := &c.GPUs[i]
		from := g.FreeAt()
		if at > from {
			from = at
		}
		g.Occupy(from + sim.Time(dur))
	}
	for p := retime; p != nil; p = p.next {
		st := p.unreached(at)
		c.reserve(p, st, p.stages[st].landed)
	}
}

// unbook rewinds every reservation of a stage the instant at has not
// reached and returns the first pass that has such a stage. Passes
// reach each stage in submission order, so the stages a pass has not
// reached are a suffix of its stages, no longer than the next pass's;
// and the reservations they hold on each GPU and link are the latest
// ones there. Walking the passes in order, each resource is rewound to
// its mark from before its first unreached reservation. Blocking-P2P
// passes reserve a stage only once its input has landed, so they hold
// nothing to rewind.
func (c *Cluster) unbook(at sim.Time) (first *pass) {
	if c.BlockingP2P {
		return nil
	}
	done := c.World() // stages from done on are rewound already
	for p := c.head; p != nil; p = p.next {
		st := p.unreached(at)
		if st == c.World() {
			continue
		}
		if first == nil {
			first = p
		}
		for s := st; s < done; s++ {
			c.GPUs[s].Rewind(p.stages[s].gpu)
			if s < len(c.Links) {
				c.Links[s].Rewind(p.stages[s].link)
			}
		}
		done = min(done, st)
	}
	return first
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
	stages                []stageBooking
	// next links the in-flight list, or the free list once completed.
	next *pass
}

// stageBooking is one stage's reservation: when the stage's input
// landed and its compute began (with res.StageEnds, the busy interval
// passDone records), its GPU's and outgoing link's state before the
// reservation, for Stall to rewind to, and its nominal compute time,
// which a later stage of the same class reuses.
type stageBooking struct {
	landed, start sim.Time
	gpu, link     sim.Mark
	dur           float64
}

// send returns the tokens whose activations a stage forwards: the
// prefill tokens, the decode batch's one token per sequence, or both
// for a hybrid pass.
//
//det:hotpath
func (p *pass) send() int {
	switch p.kind {
	case prefillPass:
		return p.prefill.Tokens
	case decodePass:
		return p.batch
	}
	return p.batch + p.chunkTokens
}

// unreached returns the first stage whose input lands at or after at,
// or the world size when the pass has reached every stage. Stage 0 is
// reached at submission.
func (p *pass) unreached(at sim.Time) int {
	st := 1
	for st < len(p.stages) && p.stages[st].landed < at {
		st++
	}
	return st
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
		p.stages = make([]stageBooking, c.World())    //det:ignore hotalloc sized once per pooled pass, on its first use
	} else {
		p.res.StageEnds = p.res.StageEnds[:c.World()]
		p.stages = p.stages[:c.World()]
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

// launch appends p to the in-flight list and starts it at stage 0.
//
//det:hotpath
func (c *Cluster) launch(p *pass, readyAt sim.Time) {
	if c.tail == nil {
		c.head = p
	} else {
		c.tail.next = p
	}
	c.tail = p
	c.run(p, 0, readyAt)
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
// Every stage is reserved here, eagerly, in submission order, which
// preserves FIFO execution per GPU across interleaved passes — exactly
// the in-order launch queue a real stream gives you. Each stage starts
// at the later of its input's landing and its GPU's FreeAt, both known
// now, since passes reach every stage in submission order. A Stall
// that lands before a stage's input re-times that stage and the ones
// after it, and the completion moves with them.
func (c *Cluster) SubmitPrefill(b costmodel.PrefillBatch, readyAt sim.Time, onDone func(PassResult)) {
	p := c.getPass(prefillPass, onDone)
	p.prefill = b
	c.launch(p, readyAt)
}

// SubmitDecode is SubmitPrefill for one decode step over batch
// sequences holding kvTokens cached tokens: the scheduler's hot path,
// allocation-free in steady state.
//
//det:hotpath
func (c *Cluster) SubmitDecode(batch, kvTokens int, readyAt sim.Time, onDone func(PassResult)) {
	p := c.getPass(decodePass, onDone)
	p.batch, p.kvTokens = batch, kvTokens
	c.launch(p, readyAt)
}

// SubmitHybrid is SubmitPrefill for one hybrid iteration: a decode step
// over decodeBatch sequences (kvTokens cached) fused with a prefill
// chunk of chunkTokens tokens over chunkCtx tokens of context.
func (c *Cluster) SubmitHybrid(decodeBatch, kvTokens, chunkTokens, chunkCtx int, readyAt sim.Time, onDone func(PassResult)) {
	p := c.getPass(hybridPass, onDone)
	p.batch, p.kvTokens, p.chunkTokens, p.chunkCtx = decodeBatch, kvTokens, chunkTokens, chunkCtx
	c.launch(p, readyAt)
}

// passNext continues a blocking-P2P pass on its next stage once the
// activation has landed (scheduled via AtFunc: ctx is the pass, a the
// stage).
//
//det:hotpath
func passNext(ctx any, st, _ int) {
	p := ctx.(*pass)
	p.c.run(p, st, p.c.Eng.Now())
}

// passDone completes the pass at the head of the in-flight list: it
// fires the completion callback, records the pass's busy intervals and
// recycles the pass. If a Stall moved the pass's End after this event
// was scheduled, it re-arms at the new End instead. The intervals are
// recorded after the callback, which may raise the recorder's fold
// watermark to this instant. Passes complete in submission order and
// run FIFO on every GPU, so each GPU still receives its intervals in
// start order.
//
//det:hotpath
func passDone(ctx any, _, _ int) {
	p := ctx.(*pass)
	c := p.c
	if c.Eng.Now() < p.res.End {
		c.Eng.AtFunc(p.res.End, passDone, p, 0, 0)
		return
	}
	c.head = p.next
	if c.head == nil {
		c.tail = nil
	}
	if p.onDone != nil {
		p.onDone(p.res)
	}
	for st := range p.stages {
		c.Rec.Add(st, float64(p.stages[st].start), float64(p.res.StageEnds[st]))
	}
	c.putPass(p)
}

// run reserves the pass's stages from st on, stage st's input landing
// at landed, and schedules the completion once the last is reserved.
//
//det:hotpath
func (c *Cluster) run(p *pass, st int, landed sim.Time) {
	if c.reserve(p, st, landed) {
		c.Eng.AtFunc(p.res.End, passDone, p, 0, 0)
	}
}

// reserve books stage st's GPU for the pass's compute and, except on
// the last stage, the link that forwards its activations: the prefill
// tokens, the decode batch's one token per sequence, or both for a
// hybrid pass. The last stage forwards nothing; its output goes back
// to the scheduler as metadata, which the paper treats as negligible
// RPC traffic. With asynchronous P2P it goes on to book every later
// stage and reports true. A blocking send depends on the receiver's
// queue at send time, so in BlockingP2P mode it books one stage,
// schedules the next hop at the landing and reports whether that
// stage was the last.
//
//det:hotpath
func (c *Cluster) reserve(p *pass, st int, landed sim.Time) bool {
	for {
		b := &p.stages[st]
		// A pass reserves its stages in order, so an earlier stage of
		// st's class already holds this pass's time for it.
		if same := c.Cost.SameAs(st); same < st {
			b.dur = p.stages[same].dur
		} else {
			switch p.kind {
			case prefillPass:
				b.dur = c.Cost.PrefillStage(st, p.prefill)
			case decodePass:
				b.dur = c.Cost.DecodeStage(st, p.batch, p.kvTokens)
			default:
				b.dur = c.Cost.HybridStage(st, p.batch, p.kvTokens, p.chunkTokens, p.chunkCtx)
			}
		}
		dur := b.dur
		if c.slowdown > 0 {
			dur *= c.slowdown
		}
		b.landed, b.gpu = landed, c.GPUs[st].Mark()
		start, end := c.GPUs[st].Acquire(landed, dur)
		b.start = start
		if st == 0 {
			p.res.Start = start
		}
		p.res.StageEnds[st] = end
		if st == c.World()-1 {
			p.res.End = end
			return true
		}
		// Transfer occupies the link; compute of the next stage begins
		// when the payload lands.
		xferReady := end
		if c.BlockingP2P {
			// Rendezvous send: wait for the receiver to drain its
			// queue, and stall the sender (unavailable, not busy)
			// until the payload is delivered.
			if recvFree := c.GPUs[st+1].FreeAt(); recvFree > xferReady {
				xferReady = recvFree
			}
		}
		b.link = c.Links[st].Mark()
		_, landed = c.Links[st].Acquire(xferReady, c.Cost.P2PActivation(p.send()))
		if c.BlockingP2P {
			c.GPUs[st].Occupy(landed)
			c.Eng.AtFunc(landed, passNext, p, st+1, 0)
			return false
		}
		st++
	}
}
