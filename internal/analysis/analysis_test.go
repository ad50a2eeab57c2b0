package analysis

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenLoader is shared across the golden tests so the stdlib is
// type-checked once per `go test` process, not once per analyzer.
// The golden tests therefore must not run in parallel.
var goldenLoader = NewLoader()

// wantSpec is one expectation parsed from a `// want` comment:
// every finding on its line must match some want, and every want must
// match at least one finding. `// want:+N` shifts the expectation N
// lines down (for findings on lines that cannot carry a trailing
// comment, like the //det:ignore directives themselves).
type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var (
	wantLineRe = regexp.MustCompile("want(:([+-]?[0-9]+))?((?:\\s+(?:`[^`]*`|\"[^\"]*\"))+)")
	wantArgRe  = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")
)

// collectWants extracts every want expectation from the comments of
// pkgs.
func collectWants(t *testing.T, pkgs []*Package) []*wantSpec {
	t.Helper()
	var wants []*wantSpec
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantLineRe.FindAllStringSubmatch(c.Text, -1) {
						offset := 0
						if m[2] != "" {
							n, err := strconv.Atoi(m[2])
							if err != nil {
								t.Fatalf("%s:%d: bad want offset %q", pos.Filename, pos.Line, m[2])
							}
							offset = n
						}
						for _, arg := range wantArgRe.FindAllString(m[3], -1) {
							pat := arg[1 : len(arg)-1]
							if strings.HasPrefix(arg, `"`) {
								unq, err := strconv.Unquote(arg)
								if err != nil {
									t.Fatalf("%s:%d: bad want pattern %s", pos.Filename, pos.Line, arg)
								}
								pat = unq
							}
							re, err := regexp.Compile(pat)
							if err != nil {
								t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
							}
							wants = append(wants, &wantSpec{
								file: pos.Filename,
								line: pos.Line + offset,
								re:   re,
								raw:  arg,
							})
						}
					}
				}
			}
		}
	}
	return wants
}

// runGolden loads the testdata package at dir with loader, runs
// analyzers over it, and checks findings against want expectations
// both ways.
func runGolden(t *testing.T, loader *Loader, dir string, analyzers []*Analyzer) {
	t.Helper()
	pkgs, err := loader.Load(true, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s", dir)
	}
	findings := Run(pkgs, analyzers)
	wants := collectWants(t, pkgs)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %s", w.file, w.line, w.raw)
		}
	}
}

func TestWallclockGolden(t *testing.T) {
	runGolden(t, goldenLoader, filepath.Join("testdata", "src", "wallclock"), []*Analyzer{Wallclock})
}

func TestUnseededRandGolden(t *testing.T) {
	runGolden(t, goldenLoader, filepath.Join("testdata", "src", "unseededrand"), []*Analyzer{UnseededRand})
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, goldenLoader, filepath.Join("testdata", "src", "maporder"), []*Analyzer{MapOrder})
}

func TestGoroutineGolden(t *testing.T) {
	runGolden(t, goldenLoader, filepath.Join("testdata", "src", "goroutine"), []*Analyzer{Goroutine})
}

func TestHotAllocGolden(t *testing.T) {
	runGolden(t, goldenLoader, filepath.Join("testdata", "src", "hotalloc"), []*Analyzer{HotAlloc})
}

// TestIgnoreGolden proves the suppression contract: a reasoned
// directive silences the next line, a reason-less directive is itself
// an error and suppresses nothing, unknown analyzer names are errors,
// and stale directives are errors.
func TestIgnoreGolden(t *testing.T) {
	runGolden(t, goldenLoader, filepath.Join("testdata", "src", "ignores"), []*Analyzer{UnseededRand})
}

// TestDocsGolden runs the godoc gate over its fixture.
func TestDocsGolden(t *testing.T) {
	runGolden(t, goldenLoader, filepath.Join("testdata", "src", "docs"), []*Analyzer{Docs})
}

// TestWallclockScope pins the command exemption: cmd/ and examples/
// time the simulator itself and may read the wall clock; simulation
// packages may not.
func TestWallclockScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/cmd/tdpipe-sim":    false,
		"repro/examples/fleet":    false,
		"repro/internal/fleet":    true,
		"repro/internal/sim":      true,
		"repro":                   true,
		"repro/internal/analysis": true,
	} {
		if got := Wallclock.Scope(&Package{ImportPath: path}); got != want {
			t.Errorf("Wallclock.Scope(%s) = %v, want %v", path, got, want)
		}
	}
}

// TestGoroutineScope pins that the goroutine analyzer has no package
// carve-out: every package is in scope, and parallel.go is a per-file
// exemption inside the analyzer.
func TestGoroutineScope(t *testing.T) {
	if Goroutine.Scope != nil {
		t.Error("the goroutine analyzer must cover every package")
	}
}

// TestLoaderTypeChecksRealPackage loads a real simulation package
// with full type resolution, the configuration cmd/detlint runs.
func TestLoaderTypeChecksRealPackage(t *testing.T) {
	pkgs, err := goldenLoader.Load(true, filepath.Join("..", "sim"))
	if err != nil {
		t.Fatalf("load internal/sim: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Types == nil || p.Info == nil {
		t.Fatal("package not type-checked")
	}
	if p.ImportPath != "repro/internal/sim" {
		t.Errorf("import path = %q, want repro/internal/sim", p.ImportPath)
	}
	if len(hotFuncs(p)) == 0 {
		t.Error("internal/sim should carry //det:hotpath annotations")
	}
}

// TestRegistryCoversDetlint pins that every detlint analyzer is
// registered (so //det:ignore validation knows its name) and names
// are unique.
func TestRegistryCoversDetlint(t *testing.T) {
	known := make(map[string]bool)
	for _, a := range Registry() {
		if known[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		known[a.Name] = true
	}
	for _, a := range Detlint() {
		if !known[a.Name] {
			t.Errorf("detlint analyzer %q missing from Registry", a.Name)
		}
	}
}
