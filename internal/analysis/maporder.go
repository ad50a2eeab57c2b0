package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map whose body does something
// order-sensitive — appending to a slice that outlives the loop with
// no later sort, writing output, concatenating onto an outer string,
// or feeding an internal/metrics merge — the classic silent
// byte-identity killer. Order-independent bodies (commutative sums,
// map writes, deletes) pass, and the sanctioned collect-keys-then-
// sort idiom passes because the later sort is detected.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive work done in map iteration order",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The enclosing function body is the scan range for
			// "sorted later": a sort anywhere after the loop, still
			// inside the function, legitimizes the collect.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.Pkg.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						checkMapRangeBody(pass, fd.Body, rs)
					}
				}
				return true
			})
		}
	}
}

// printFuncs are the fmt entry points that emit output directly.
var printFuncs = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

// checkMapRangeBody reports order-sensitive statements inside one
// map-range body. encl is the enclosing function body, scanned for a
// later sort that would legitimize collected slices.
func checkMapRangeBody(pass *Pass, encl *ast.BlockStmt, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil {
				if isPkgFunc(fn, "fmt") && printFuncs[fn.Name()] {
					pass.Reportf(n.Pos(),
						"fmt.%s writes output inside a map range: iteration order is nondeterministic; collect and sort keys first",
						fn.Name())
				}
				if strings.HasSuffix(fn.Pkg().Path(), "internal/metrics") {
					pass.Reportf(n.Pos(),
						"feeds metrics.%s inside a map range: merge order follows nondeterministic map iteration; iterate sorted keys",
						fn.Name())
				}
			}
			if builtinName(info, n.Fun) == "append" && len(n.Args) > 0 {
				obj := baseObject(info, n.Args[0])
				if obj != nil && !declaredWithin(obj, rs) && !sortedAfter(info, encl, rs, obj) {
					pass.Reportf(n.Pos(),
						"appends to %s in map iteration order with no later sort; collect and sort keys, or sort %s before use",
						obj.Name(), obj.Name())
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				obj := baseObject(info, n.Lhs[0])
				if obj == nil || declaredWithin(obj, rs) {
					return true
				}
				if t := info.TypeOf(n.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(),
							"concatenates onto %s in map iteration order; iterate sorted keys", obj.Name())
					}
				}
			}
		}
		return true
	})
}

// declaredWithin reports whether obj is declared inside the range
// statement (loop variables and loop-local temporaries are
// order-scoped and fine to touch).
func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}

// sortedAfter reports whether, after the range statement and still
// inside the enclosing body, obj is passed to a sort/slices call —
// the collect-then-sort idiom.
func sortedAfter(info *types.Info, encl *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return !found
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return !found
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return !found
		}
		for _, arg := range call.Args {
			if mentionsObject(info, arg, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}
