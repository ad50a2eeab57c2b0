// Command detlint enforces the simulator's determinism and hot-path
// invariants at compile time: no wall clock or process-global
// randomness in simulation packages, no concurrency outside the
// parallel fabric, no order-sensitive map iteration, and no
// allocations inside //det:hotpath functions. It also holds the doc
// contract: every exported identifier carries a godoc comment. It
// loads, type-checks (stdlib source importer — no external
// dependencies) and walks every package under the given roots with the
// internal/analysis framework.
//
// Usage:
//
//	detlint [-json] [dir ...]
//
// Roots default to ".". Directories are walked recursively, skipping
// testdata, vendor and dot-directories; *_test.go files are exempt by
// construction. Findings print as "file:line: [analyzer] message"
// (or a JSON array with -json) and any finding exits 1; load or
// type-check failures exit 2. Suppressions use
// `//det:ignore <analyzer> <reason>` on or directly above the line —
// the reason is mandatory and the directive is itself linted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	// File is the path as printed (relative to the working directory
	// when possible).
	File string `json:"file"`
	// Line is the 1-based source line.
	Line int `json:"line"`
	// Col is the 1-based source column.
	Col int `json:"col"`
	// Analyzer names the analyzer that fired.
	Analyzer string `json:"analyzer"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array for tooling")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.Load(true, roots...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	findings := analysis.Run(pkgs, analysis.Detlint())
	wd, _ := os.Getwd()
	display := func(path string) string {
		if wd != "" {
			if rel, err := filepath.Rel(wd, path); err == nil && !filepath.IsAbs(rel) {
				return rel
			}
		}
		return path
	}
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     display(f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: [%s] %s\n", display(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
