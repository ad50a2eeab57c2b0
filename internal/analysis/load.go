package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and fully type-checked Go package as the
// analyzers see it. Test files
// (*_test.go) are never loaded: the determinism contract governs
// shipped simulation code, and the test suites are exactly where
// wall-clock timing and ad-hoc goroutines are legitimate.
type Package struct {
	// Name is the package name from the package clauses.
	Name string
	// ImportPath is the module-qualified import path derived from the
	// enclosing go.mod (e.g. repro/internal/sim). Directories outside
	// any module fall back to the directory basename.
	ImportPath string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset is the loader's shared file set; all positions resolve
	// through it.
	Fset *token.FileSet
	// Files holds the parsed files in deterministic (sorted filename)
	// order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries identifier resolution and expression types.
	Info *types.Info
}

// IsCommand reports whether the package lives under a main-program
// tree (a cmd/ or examples/ path segment). Commands may read the wall
// clock — they time the simulator itself — while simulation packages
// may not.
func (p *Package) IsCommand() bool {
	for _, seg := range strings.Split(filepath.ToSlash(p.ImportPath), "/") {
		if seg == "cmd" || seg == "examples" {
			return true
		}
	}
	return false
}

// TypeOf returns the type of e, or nil when the checker recorded
// nothing for e.
func (p *Package) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Loader parses and type-checks package directories into Packages.
// Types resolve through the stdlib source importer
// (importer.ForCompiler "source"), so the linter needs no external
// dependencies. One Loader shares a file set and one importer, so the
// standard library and intra-module dependencies are parsed once per
// process however many packages are loaded. cmd/detlint loads through
// it, and every analyzer it runs sees the same walk and exemptions.
type Loader struct {
	// Fset is the shared file set for every package this loader
	// produces.
	Fset *token.FileSet

	imp types.Importer
}

// NewLoader returns a loader with a fresh file set.
func NewLoader() *Loader { return &Loader{Fset: token.NewFileSet()} }

// SkipDir reports whether a directory basename is exempt from
// recursive package walks: dot-directories, testdata fixtures and
// vendor trees. The rule is shared by every linter built on this
// package so exemptions cannot drift between them.
func SkipDir(name string) bool {
	return strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor"
}

// Load parses the packages rooted at dirs, in deterministic order.
// With recurse, each root is walked depth-first (skipping SkipDir
// entries below the root itself); otherwise each dir is loaded alone.
// Directories without Go files contribute nothing.
func (l *Loader) Load(recurse bool, dirs ...string) ([]*Package, error) {
	var all []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			all = append(all, dir)
		}
	}
	for _, root := range dirs {
		if !recurse {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != root && SkipDir(d.Name()) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, dir := range all {
		ps, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	return pkgs, nil
}

// loadDir parses one directory into zero or more Packages (multiple
// package clauses in one directory each load separately).
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	astPkgs, err := parser.ParseDir(l.Fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	if len(astPkgs) == 0 {
		return nil, nil
	}
	importPath, err := importPathFor(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(astPkgs))
	for name := range astPkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*Package
	for _, name := range names {
		ap := astPkgs[name]
		fnames := make([]string, 0, len(ap.Files))
		for fname := range ap.Files {
			fnames = append(fnames, fname)
		}
		sort.Strings(fnames)
		p := &Package{Name: name, ImportPath: importPath, Dir: dir, Fset: l.Fset}
		for _, fname := range fnames {
			p.Files = append(p.Files, ap.Files[fname])
		}
		if err := l.check(p); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// check resolves p with go/types. Dependencies — standard library and
// module-local alike — are type-checked from source by the shared
// importer, so the linter needs no pre-built export data and no
// third-party loader.
func (l *Loader) check(p *Package) error {
	if l.imp == nil {
		l.imp = importer.ForCompiler(l.Fset, "source", nil)
	}
	conf := types.Config{Importer: l.imp}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tp, err := conf.Check(p.ImportPath, l.Fset, p.Files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %w", p.ImportPath, err)
	}
	p.Types, p.Info = tp, info
	return nil
}

// importPathFor derives a module-qualified import path for dir by
// locating the nearest enclosing go.mod. Outside any module the
// directory basename stands in (good enough for fixtures).
func importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for mod := abs; ; {
		data, err := os.ReadFile(filepath.Join(mod, "go.mod"))
		if err == nil {
			modPath := modulePath(data)
			if modPath == "" {
				return "", fmt.Errorf("no module line in %s/go.mod", mod)
			}
			rel, err := filepath.Rel(mod, abs)
			if err != nil {
				return "", err
			}
			if rel == "." {
				return modPath, nil
			}
			return modPath + "/" + filepath.ToSlash(rel), nil
		}
		parent := filepath.Dir(mod)
		if parent == mod {
			return filepath.Base(abs), nil
		}
		mod = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}
