package costmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/costmodel/testdata golden digests")

const stageCostGoldenPath = "testdata/stage_cost_golden.json"

// The fixed grid the golden digests cover. Every axis includes zero,
// so the empty-pass short cuts are pinned as well.
var (
	goldenBatches  = []int{0, 1, 7, 64, 256}
	goldenKV       = []int{0, 1, 1000, 64 * 600, 200000}
	goldenChunks   = []int{0, 1, 128, 512}
	goldenChunkCtx = []int{0, 300, 4096}
	goldenPrefills = [][]int{nil, {1}, {512}, {512, 256, 1024, 300}, {2048, 2048, 17, 4000, 900}}
	goldenP2P      = []int{0, 1, 64, 4096}
)

// goldenPlans lists every node × model plan of the paper's Tables 1–2,
// plus the Tiny test model, at worlds 1–4, keyed by node/model/world.
func goldenPlans(t *testing.T) (keys []string, models []*Model, plans []model.PipelinePlan) {
	t.Helper()
	for _, n := range hw.Nodes() {
		for _, s := range append(model.Models(), model.Tiny) {
			for world := 1; world <= 4; world++ {
				keys = append(keys, fmt.Sprintf("%s/%s/w%d", n.Name, s.Name, world))
				models = append(models, mustNew(t, n, s))
				plans = append(plans, mustPlan(t, s, world))
			}
		}
	}
	return keys, models, plans
}

// putBits writes the IEEE-754 bits of v into h.
func putBits(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// stageCostDigest is the SHA-256 of the Float64bits of every stage
// time of the plan (prefill, decode and hybrid, per stage), both
// bottlenecks and the stage-to-stage transfer over the golden grid.
func stageCostDigest(t *testing.T, c *Model, plan model.PipelinePlan) string {
	tab := mustTable(t, c, plan)
	h := sha256.New()
	for _, lens := range goldenPrefills {
		b := NewPrefillBatch(lens)
		for st := range plan.Stages {
			putBits(h, tab.PrefillStage(st, b))
		}
		putBits(h, tab.PrefillBottleneck(b))
	}
	for _, batch := range goldenBatches {
		for _, kv := range goldenKV {
			for st := range plan.Stages {
				putBits(h, tab.DecodeStage(st, batch, kv))
			}
			putBits(h, tab.DecodeBottleneck(batch, kv))
			for _, chunk := range goldenChunks {
				for _, ctx := range goldenChunkCtx {
					for st := range plan.Stages {
						putBits(h, tab.HybridStage(st, batch, kv, chunk, ctx))
					}
				}
			}
		}
	}
	for _, tok := range goldenP2P {
		putBits(h, tab.P2PActivation(tok))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStageCostGolden compares the digest of every pipeline stage time
// over a fixed grid with the committed goldens. Any change to an
// operand or to the order of a stage-time expression moves them.
// Regenerate with `go test ./internal/costmodel -run TestStageCostGolden
// -update` only when a change is meant to alter the cost model.
func TestStageCostGolden(t *testing.T) {
	got := map[string]string{}
	keys, models, plans := goldenPlans(t)
	for i, k := range keys {
		got[k] = stageCostDigest(t, models[i], plans[i])
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(stageCostGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stageCostGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(stageCostGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, run has %d", len(want), len(got))
	}
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: stage times diverged from golden:\n got  %s\n want %s", k, got[k], want[k])
		}
	}
}
