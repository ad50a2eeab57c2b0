package analysis

import (
	"go/ast"
	"go/types"
)

// randConstructors are the math/rand entry points that build an
// explicitly-seeded source; everything else at package level draws
// from (or reseeds) the process-global source and is forbidden.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// UnseededRand forbids the process-global math/rand source
// everywhere: top-level draws (rand.Intn, rand.Float64, rand.Seed,
// ...) are nondeterministic across runs since Go 1.20 auto-seeding,
// and constructors seeded from the wall clock
// (rand.NewSource(time.Now().UnixNano())) smuggle the same
// nondeterminism in through the side door. Only explicitly-seeded
// sources pass; methods on a *rand.Rand are always fine because
// constructing one deterministically is the checked step.
var UnseededRand = &Analyzer{
	Name: "unseededrand",
	Doc:  "forbid global math/rand functions and wall-clock-seeded sources",
	Run:  runUnseededRand,
}

// isRandPath matches both math/rand generations.
func isRandPath(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func runUnseededRand(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || !isRandPath(fn.Pkg().Path()) {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // method on an explicitly-constructed source
				}
				if !randConstructors[fn.Name()] {
					pass.Reportf(n.Pos(),
						"math/rand.%s draws from the process-global source; construct rand.New(rand.NewSource(seed)) from a config seed",
						fn.Name())
				}
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				if fn == nil || !isPkgFunc(fn, "math/rand") && !isPkgFunc(fn, "math/rand/v2") {
					return true
				}
				if !randConstructors[fn.Name()] {
					return true
				}
				for _, arg := range n.Args {
					if timeCall := findTimeUse(info, arg); timeCall != nil {
						pass.Reportf(n.Pos(),
							"rand.%s seeded from the wall clock is nondeterministic; seed from a config value",
							fn.Name())
						break
					}
				}
			}
			return true
		})
	}
}

// findTimeUse returns the first reference to a package time function
// inside e, or nil.
func findTimeUse(info *types.Info, e ast.Expr) ast.Node {
	var hit ast.Node
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && isPkgFunc(fn, "time") {
			hit = sel
		}
		return hit == nil
	})
	return hit
}
