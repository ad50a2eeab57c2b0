package analysis

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package time entry points that read or wait
// on the host's wall clock. Pure time arithmetic (Duration math,
// Time.Sub on sim-derived stamps) stays legal.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

// Wallclock forbids reading the host wall clock inside simulation
// packages: every timestamp must come from the sim.Engine clock so
// runs are byte-identical run-to-run and at every -workers count.
// Commands (cmd/, examples/) are exempt — they legitimately time the
// simulator itself — as are test files, which the loader never loads.
var Wallclock = &Analyzer{
	Name:  "wallclock",
	Doc:   "forbid time.Now/Since/After/NewTimer/... in simulation packages",
	Scope: func(p *Package) bool { return !p.IsCommand() },
	Run:   runWallclock,
}

func runWallclock(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if ok && isPkgFunc(fn, "time") && wallclockFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the host wall clock; simulation time must come from the sim.Engine clock",
					fn.Name())
			}
			return true
		})
	}
}
