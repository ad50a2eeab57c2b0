// Package analysis is the repo's in-tree static-analysis framework:
// a set of type-aware analyzers over go/ast + go/types (stdlib only,
// no external linter) that enforce the simulator's determinism
// contract at compile time instead of at test time. The invariants —
// no wall clock or process-global randomness in simulation packages,
// no concurrency outside the parallel fabric, no order-sensitive map
// iteration, no allocations in //det:hotpath functions — are exactly
// the properties the determinism and chaos suites assert after the
// fact; the analyzers catch the violating line before it ships a
// symptom. cmd/detlint drives them, together with the Docs analyzer's
// godoc gate, in one walk of the tree.
//
// Suppressions are scoped and audited: `//det:ignore <analyzer>
// <reason>` on (or immediately above) the offending line silences
// that analyzer there — the reason is mandatory, unknown analyzer
// names are findings, and a suppression that suppresses nothing is
// itself a finding, so escape hatches cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic anchored to a source position.
type Finding struct {
	// Pos locates the finding (filename, line, column).
	Pos token.Position
	// Analyzer names the analyzer that produced the finding (or
	// "ignore" for suppression-syntax findings).
	Analyzer string
	// Message states the violated invariant and the fix direction.
	Message string
}

// String renders the finding in the canonical
// "file:line: [analyzer] message" form that make detlint prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Pass is one analyzer's view of one package: the loaded package, the
// //det:hotpath-marked functions, and a report sink.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// Hot lists the function declarations marked //det:hotpath in
	// this package, in file order.
	Hot []*ast.FuncDecl

	analyzer string
	sink     *[]Finding
}

// Reportf records a finding at pos under the running analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one machine-checked invariant: a name (the //det:ignore
// key), a scope predicate selecting the packages it governs, and a
// Run function that walks one package and reports findings.
type Analyzer struct {
	// Name identifies the analyzer in findings and //det:ignore
	// directives.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Scope restricts the analyzer to some packages; nil means every
	// loaded package.
	Scope func(*Package) bool
	// Run walks one package and reports findings on the pass.
	Run func(*Pass)
}

// Registry lists every analyzer the framework knows. //det:ignore
// directives are validated against this set, so a suppression for a
// misspelled analyzer is a finding whichever analyzer set runs.
func Registry() []*Analyzer {
	return []*Analyzer{Wallclock, UnseededRand, MapOrder, Goroutine, HotAlloc, Docs}
}

// Detlint returns the analyzer set that cmd/detlint (and `make
// detlint`) runs: the determinism and hot-path analyzers plus the
// godoc gate.
func Detlint() []*Analyzer {
	return []*Analyzer{Wallclock, UnseededRand, MapOrder, Goroutine, HotAlloc, Docs}
}

// Run executes analyzers over pkgs, applies //det:ignore
// suppressions, audits the suppressions themselves (mandatory reason,
// known analyzer, actually suppressing something), and returns the
// surviving findings sorted by file, line and analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, pkg := range pkgs {
		hot := hotFuncs(pkg)
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg) {
				continue
			}
			a.Run(&Pass{Pkg: pkg, Hot: hot, analyzer: a.Name, sink: &raw})
		}
	}
	findings := applyIgnores(pkgs, analyzers, raw)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}

// hotpathDirective is the comment marking a function whose body the
// HotAlloc analyzer holds allocation-free.
const hotpathDirective = "//det:hotpath"

// hotFuncs collects the //det:hotpath-marked function declarations of
// pkg (the directive appears on its own line in the doc comment).
func hotFuncs(pkg *Package) []*ast.FuncDecl {
	var hot []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
					hot = append(hot, fd)
					break
				}
			}
		}
	}
	return hot
}

// funcDisplayName renders a method as Recv.Name and a function as
// Name, for findings that cite the enclosing hot function.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
