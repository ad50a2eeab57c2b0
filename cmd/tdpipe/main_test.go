package main

import (
	"bytes"
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
