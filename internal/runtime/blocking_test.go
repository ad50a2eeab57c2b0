package runtime

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sim"
)

// Blocking-P2P mode (the stock-vLLM behaviour the baselines use) must
// stall the sender until delivery and delay delivery until the receiver
// is free — and asynchronous mode must not.
func TestBlockingP2PStallsSender(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCluster(eng, hw.L20, model.Tiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.BlockingP2P = true

	var res PassResult
	c.SubmitPrefill(costmodel.NewPrefillBatch([]int{512}), 0, func(r PassResult) { res = r })
	eng.Run()

	// Sender GPU must be occupied through the transfer.
	xfer := c.Cost.P2PActivation(512)
	wantFree := res.StageEnds[0] + sim.Time(xfer)
	if got := c.GPUs[0].FreeAt(); got < wantFree {
		t.Errorf("blocking sender free at %v, want >= %v (stalled through transfer)", got, wantFree)
	}
}

func TestBlockingP2PWaitsForReceiver(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCluster(eng, hw.L20, model.Tiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.BlockingP2P = true

	// Occupy the receiver so the first pass's transfer must wait.
	busyUntil := sim.Time(10.0)
	c.GPUs[1].Acquire(0, float64(busyUntil))

	var res PassResult
	c.SubmitPrefill(costmodel.NewPrefillBatch([]int{64}), 0, func(r PassResult) { res = r })
	eng.Run()
	if res.StageEnds[1] <= busyUntil {
		t.Errorf("stage 1 finished at %v despite receiver busy until %v", res.StageEnds[1], busyUntil)
	}
	// The sender must have been held until at least the rendezvous.
	if got := c.GPUs[0].FreeAt(); got < busyUntil {
		t.Errorf("sender released at %v before receiver freed at %v", got, busyUntil)
	}
}
