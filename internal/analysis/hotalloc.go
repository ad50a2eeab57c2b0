package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc holds //det:hotpath-annotated functions allocation-free:
// make/new, map and slice literals, heap-escaping &T{} literals,
// closures, fmt calls, and append onto anything not named like a
// scratch buffer are findings; panic arguments are exempt because
// crash paths never run in steady state. The PR-4 kernel, deque and
// router loops carry the annotation; their amortized-growth appends carry
// audited //det:ignore directives, so a new allocation in a hot loop
// fails `make detlint` instead of surfacing as a benchmark
// regression three PRs later.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocations inside //det:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, fd := range pass.Hot {
		if fd.Body == nil {
			continue
		}
		name := funcDisplayName(fd)
		info := pass.Pkg.Info
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				pass.Reportf(n.Pos(), "closure literal allocates in //det:hotpath %s; bind the callback once outside the loop", name)
			case *ast.CompositeLit:
				switch pass.compositeKind(n) {
				case "map":
					pass.Reportf(n.Pos(), "map literal allocates in //det:hotpath %s", name)
				case "slice":
					pass.Reportf(n.Pos(), "slice literal allocates in //det:hotpath %s", name)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						pass.Reportf(n.Pos(), "&composite literal escapes to the heap in //det:hotpath %s", name)
					}
				}
			case *ast.CallExpr:
				switch builtinName(info, n.Fun) {
				case "panic":
					// Crash-path arguments (panic(fmt.Sprintf(...)))
					// never run in steady state; don't descend.
					return false
				case "make":
					pass.Reportf(n.Pos(), "make allocates in //det:hotpath %s; preallocate outside the loop", name)
				case "new":
					pass.Reportf(n.Pos(), "new allocates in //det:hotpath %s; preallocate outside the loop", name)
				case "append":
					if len(n.Args) > 0 {
						dst := exprName(n.Args[0])
						if !strings.Contains(strings.ToLower(dst), "scratch") {
							pass.Reportf(n.Pos(),
								"append may grow %s in //det:hotpath %s; reuse a scratch buffer or //det:ignore the amortized growth",
								dst, name)
						}
					}
				default:
					if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
						pass.Reportf(n.Pos(), "fmt.%s allocates in //det:hotpath %s", fn.Name(), name)
					}
				}
			}
			return true
		})
	}
}

// compositeKind classifies a composite literal as "map", "slice" or
// "" (value struct/array literals live on the stack and pass).
func (p *Pass) compositeKind(lit *ast.CompositeLit) string {
	t := p.Pkg.TypeOf(lit)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	}
	return ""
}
