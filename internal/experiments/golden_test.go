package experiments

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/experiments/testdata golden output")

const experimentsGoldenPath = "testdata/experiments_golden.txt"

// goldenOptions is the tiny scale the golden output is captured at.
var goldenOptions = Options{PoolSize: 2000, Requests: 250, Seed: 1}

// renderAll runs every catalog entry on one Env and concatenates what
// the CLI prints for each, under a "== name ==" header. GOMAXPROCS is
// set to workers meanwhile, which caps every fleet's worker pool.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	env, err := NewEnv(goldenOptions)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, x := range Catalog() {
		out, err := x.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", x.Name, err)
		}
		fmt.Fprintf(&sb, "== %s ==\n%s\n", x.Name, out)
	}
	return sb.String()
}

// TestExperimentsGolden pins the rendered output of every experiment at
// a tiny scale, sequentially and on four workers, against a checked-in
// capture: refactors of the experiments and the layers under them must
// reproduce it byte for byte. Regenerate with
// go test ./internal/experiments -run TestExperimentsGolden -update.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment")
	}
	got := renderAll(t, 1)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(experimentsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if workers != 1 {
			got = renderAll(t, workers)
		}
		if got != string(want) {
			t.Errorf("workers=%d: output differs from %s (rerun with -update only if the change is intended)\n%s",
				workers, experimentsGoldenPath, firstDiff(got, string(want)))
		}
	}
}

// firstDiff describes the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return ""
}
