package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path"
	"strings"
	"time"
)

// layers are the repository modules the traced run attributes CPU time
// to, plus goBg for stacks with no simulator frame at all (GC workers,
// the scheduler, the profiler itself). A frame in a repro package that
// is not listed is skipped, so its time goes to the listed layer that
// called it: hw holds only hardware constants, and workload does its
// work in set-up (workload.gen_s), not in the run call.
var layers = []string{
	"sim", "core", "runtime", "costmodel", "model", "kvcache", "deque",
	"predictor", "metrics", "fleet.router", "fleet.fabric", "policy",
	"faults", goBg,
}

const goBg = "go.bg"

const reproPrefix = "repro/internal/"

// layerOf maps one stack frame to its layer. fn is the fully qualified
// function name and file its source file. internal/fleet splits in two:
// parallel.go (the fabric and fabShard types) is the fabric, the rest
// is the router.
func layerOf(fn, file string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, reproPrefix)
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if pkg == "fleet" {
		if path.Base(file) == "parallel.go" {
			return "fleet.fabric", true
		}
		return "fleet.router", true
	}
	for _, l := range layers {
		if l == pkg {
			return l, true
		}
	}
	return "", false
}

// foldTraces reads the text of `go tool pprof -traces -lines` and
// charges each sample's value to the layer of its innermost simulator
// frame. Runtime helpers (mallocgc, map access) are therefore charged
// to the layer that called them. It returns seconds per layer.
func foldTraces(r io.Reader) (map[string]float64, error) {
	self := make(map[string]time.Duration, len(layers))
	var value time.Duration // the current sample's value
	layer := ""             // its innermost layer so far
	flush := func() {
		if value == 0 {
			return
		}
		if layer == "" {
			layer = goBg
		}
		self[layer] += value
		value, layer = 0, ""
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inBody := false // past the header
	first := false  // the next line opens a sample: value, then leaf frame
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody, first = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inBody || len(fields) == 0 {
			continue
		}
		if first {
			first = false
			var err error
			if value, err = time.ParseDuration(fields[0]); err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			fields = fields[1:]
		}
		if layer != "" || len(fields) == 0 {
			continue // the innermost simulator frame is already known
		}
		// A frame is "function file.go:line", maybe with " (inline)";
		// generic shapes can put spaces into the function name.
		file := ""
		for _, f := range fields[1:] {
			if i := strings.LastIndex(f, ".go:"); i >= 0 {
				file = f[:i+len(".go")]
			}
		}
		if l, ok := layerOf(fields[0], file); ok {
			layer = l
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	secs := make(map[string]float64, len(layers))
	for _, l := range layers {
		secs[l] = self[l].Seconds()
	}
	return secs, nil
}

// profileLayers runs `go tool pprof -traces` on a CPU profile and folds
// the output by layer.
func profileLayers(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-lines", "-symbolize=none", profile).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("go tool pprof: %w: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}
