package analysis

import "go/ast"

// Docs enforces the repo's doc contract — every exported identifier
// carries a godoc comment. cmd/detlint runs it in the same walk as the
// determinism analyzers, so it shares the loader's exemption rules
// (testdata, dot directories, test files). Grouped const/var/type
// declarations pass when the block itself is documented; methods on unexported types
// are held to the same standard because those types routinely leak
// through exported APIs.
var Docs = &Analyzer{
	Name: "docs",
	Doc:  "require a godoc comment on every exported identifier",
	Run:  runDocs,
}

func runDocs(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				pass.Reportf(d.Pos(), "exported %s has no doc comment", funcDisplayName(d))
			case *ast.GenDecl:
				if d.Doc != nil {
					continue // a block doc covers every spec inside
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
							pass.Reportf(s.Pos(), "exported %s has no doc comment", s.Name.Name)
						}
					case *ast.ValueSpec:
						if s.Doc != nil || s.Comment != nil {
							continue
						}
						for _, n := range s.Names {
							if n.IsExported() {
								pass.Reportf(n.Pos(), "exported %s has no doc comment", n.Name)
							}
						}
					}
				}
			}
		}
	}
}
