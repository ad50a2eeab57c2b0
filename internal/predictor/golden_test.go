package predictor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/predictor/testdata golden digests")

const trainGoldenPath = "testdata/train_golden.json"

// trainDigest is the SHA-256 of the Float64bits of the class-major
// weights, calib, and the fitted bins' Edges and Mean.
func trainDigest(c *Classifier) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, row := range classMajor(c) {
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	put(math.Float64bits(c.calib))
	for _, e := range c.bins.Edges {
		put(uint64(int64(e)))
	}
	for _, m := range c.bins.Mean {
		put(math.Float64bits(m))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainGolden trains the classifier on the training split of the
// pools tdpipe-bench draws (20,000, 30,000 and 60,000 requests at seeds
// 1 and 2) and on a 20-request trace, and compares the digests of the
// trained parameters with the committed goldens. Any reordering of the
// SGD loop's float operations moves them. The digests hold only on
// amd64 CPUs with FMA: math.Exp's amd64 assembly takes a fused
// multiply-add path at run time when the CPU has AVX and FMA (useFMA
// in $GOROOT/src/math/exp_amd64.go), and its other path rounds
// differently (on about 9% of inputs in [-30, 0]). Regenerate with
// `go test ./internal/predictor -run TestTrainGolden -update` only when
// a change is meant to alter the trained weights.
func TestTrainGolden(t *testing.T) {
	got := map[string]string{}
	for _, n := range []int{20000, 30000, 60000} {
		for _, seed := range []int64{1, 2} {
			pool := workload.MustGenerate(workload.DefaultConfig(n, seed))
			train, _, _, err := workload.Split(pool, 0.6, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Train(train, DefaultTrainConfig())
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("pool%d/seed%d", n, seed)] = trainDigest(c)
		}
	}
	c, err := Train(workload.MustGenerate(workload.DefaultConfig(20, 3)), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	got["trace20/seed3"] = trainDigest(c)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(trainGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(trainGoldenPath)
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
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s: trained parameters diverged from golden:\n got  %s\n want %s", name, g, want[name])
		}
	}
}
