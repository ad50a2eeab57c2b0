package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// fabricFile is the one file allowed to spawn goroutines and select
// on channels: the conservative parallel fabric, whose epoch barrier
// is what keeps multi-worker runs byte-identical to sequential.
const fabricFile = "internal/fleet/parallel.go"

// Goroutine forbids `go` statements and channel `select` outside the
// parallel fabric (internal/fleet/parallel.go): all other concurrency
// must ride the control timeline, or replica interleavings leak into
// reports. The analyzer covers every package; the two historical
// exceptions in internal/runtime and internal/fleet carry audited
// //det:ignore directives instead of a scope carve-out.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "forbid go statements and select outside the parallel fabric",
	Run:  runGoroutine,
}

func runGoroutine(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		name := filepath.ToSlash(pass.Pkg.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, fabricFile) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside the parallel fabric; concurrency must stay behind the control timeline (internal/fleet/parallel.go)")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select outside the parallel fabric; channel nondeterminism must stay behind the control timeline (internal/fleet/parallel.go)")
			}
			return true
		})
	}
}
