package main

import (
	"bytes"
	"errors"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestUnknownExperimentFailsUpFront checks that a bad -exp name is
// rejected before any experiment runs (not even the corpus is built),
// with an error that lists every valid name.
func TestUnknownExperimentFailsUpFront(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "table1,fig2,nope", experiments.Options{PoolSize: 2000, Requests: 250, Seed: 1})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if out.Len() > 0 {
		t.Errorf("printed before rejecting the list:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error does not name the bad experiment: %v", err)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

// TestScaleFlagErrors checks that a negative -requests or -pool is
// refused instead of falling back to the quick defaults, and that
// options out of Validate's bounds fail before the corpus banner
// prints.
func TestScaleFlagErrors(t *testing.T) {
	for _, tc := range []struct{ requests, pool int }{{-5, -3}, {-5, 0}, {0, -3}} {
		if _, err := options(false, tc.requests, tc.pool, 1); !errors.Is(err, errNegativeScale) {
			t.Errorf("-requests %d -pool %d: err = %v, want %v", tc.requests, tc.pool, err, errNegativeScale)
		}
	}
	opts, err := options(true, 0, 0, 7)
	if err != nil || opts != (experiments.Options{PoolSize: 86612, Requests: 5000, Seed: 7}) {
		t.Errorf("-paper: %+v, %v", opts, err)
	}
	var out bytes.Buffer
	err = run(&out, "table1,fig11", experiments.Options{PoolSize: 2000, Requests: 3000, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "Requests 3000 exceeds PoolSize 2000") {
		t.Errorf("oversized sample: err = %v", err)
	}
	if out.Len() > 0 {
		t.Errorf("printed before rejecting the options:\n%s", out.String())
	}
}

// TestDocNamesEveryExperiment keeps the package doc's experiment list
// in step with the catalog.
func TestDocNamesEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	for _, name := range experiments.Names() {
		if !regexp.MustCompile(`\b` + name + `\b`).MatchString(doc) {
			t.Errorf("package doc does not name experiment %q", name)
		}
	}
}
