package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// runCorpus loads the corpus package in testdata/<name>, runs the given
// analyzers, and checks every diagnostic against `// want "regexp"`
// expectation comments: each want must be matched by a diagnostic on
// its line, and every diagnostic must be wanted. Multiple quoted
// regexps on one want comment expect that many diagnostics on the line.
func runCorpus(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("load corpus %s: %v", name, err)
	}
	checkCorpus(t, []*Package{pkg}, analyzers)
}

// runModuleCorpus is runCorpus for a corpus that is a module of its own
// (testdata/<name>/go.mod): it loads every package of that module.
func runModuleCorpus(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load corpus %s: %v", name, err)
	}
	checkCorpus(t, pkgs, analyzers)
}

func checkCorpus(t *testing.T, pkgs []*Package, analyzers []*Analyzer) {
	t.Helper()
	var wants []want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	diags := Run(pkgs, analyzers)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		rendered := "[" + d.Analyzer + "] " + d.Message
		found := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.rx.MatchString(rendered) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// A want is one expectation parsed from a corpus comment.
type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

// wantRx extracts the quoted regexps of a want comment; both "..." and
// `...` quoting are accepted (backticks avoid escaping in regexps).
var wantRx = regexp.MustCompile("\"([^\"]+)\"|`([^`]+)`")

// collectWants parses `// want "..."` comments out of a loaded package.
func collectWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// A /* want */ block can share a line with a directive.
				text := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRx.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, m := range ms {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					rx, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// TestCorpusDirsMatchAll keeps testdata/ in step with All(): every
// analyzer has a corpus directory, and every directory belongs to an
// analyzer or to the "directive" pseudo-analyzer, so deleting an
// analyzer cannot leave its corpus behind.
func TestCorpusDirsMatchAll(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = true
		}
	}
	owners := map[string]bool{"directive": true}
	for _, a := range All() {
		owners[a.Name] = true
		if !dirs[a.Name] {
			t.Errorf("analyzer %s has no corpus directory testdata/%s", a.Name, a.Name)
		}
	}
	for _, e := range entries {
		if e.IsDir() && !owners[e.Name()] {
			t.Errorf("testdata/%s belongs to no analyzer in All()", e.Name())
		}
	}
}

func TestNoDetermCorpus(t *testing.T) { runCorpus(t, "nodeterm", NoDeterm) }
func TestMapOrderCorpus(t *testing.T) { runCorpus(t, "maporder", MapOrder) }
func TestErrDropCorpus(t *testing.T)  { runCorpus(t, "errdrop", ErrDrop) }
func TestHotAllocCorpus(t *testing.T) { runCorpus(t, "hotalloc", HotAlloc) }
func TestCtxFlowCorpus(t *testing.T)  { runCorpus(t, "ctxflow", CtxFlow) }
func TestGoLeakCorpus(t *testing.T)   { runCorpus(t, "goleak", GoLeak) }
func TestLockSafeCorpus(t *testing.T) { runCorpus(t, "locksafe", LockSafe) }

// TestUnreachableCorpus pins the reachability roots and edges: dead and
// transitively dead functions fire; function values, table entries,
// init, the root package's API (aliased re-exports, result types,
// exported fields), the methods of interfaces a live type implements
// (module ones, fmt.Stringer, a stdlib parameter's sort.Interface,
// promoted methods included) keep code live, but a method that only
// shares its name and signature with an interface nothing mentions, or
// with one its type does not implement, does not; a kept function keeps
// its callees; and a directive on a live function is reported as stale.
func TestUnreachableCorpus(t *testing.T) { runModuleCorpus(t, "unreachable", Unreachable) }

// TestDirectiveCorpus pins the suppression-placement index: a package
// dense with trailing and own-line directives must suppress exactly
// the covered lines (all directives used, so the stale check stays
// silent) while uncovered sites still fire.
func TestDirectiveCorpus(t *testing.T) { runCorpus(t, "directive", NoDeterm) }

// TestModuleIsLintClean is the meta-test behind the build gate: the
// real module, in full, must produce zero diagnostics from every
// analyzer. cmd/chipvqa-lint enforces the same property from the
// command line; this keeps it enforced by `go test ./...` alone.
func TestModuleIsLintClean(t *testing.T) {
	pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(pkgs))
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestLoadAllIncludesNestedBenchmarkModule pins that LoadAll walks into
// benchmark/, a nested module, and loads it as repro/benchmark. The go
// tool's ./... stops at nested modules; a loader that did the same would
// leave the benchmark's callees with no caller, and the unreachable
// check would ask for deletions that break `go -C benchmark build`.
func TestLoadAllIncludesNestedBenchmarkModule(t *testing.T) {
	for _, p := range loadModule(t) {
		if p.Path == "repro/benchmark" {
			if p.Types.Name() != "main" {
				t.Errorf("repro/benchmark is package %s, want main (a reachability root)", p.Types.Name())
			}
			return
		}
	}
	t.Fatal("LoadAll did not return repro/benchmark")
}

// moduleLoad loads the whole module once for the tests that need it.
var moduleLoad = sync.OnceValues(func() ([]*Package, error) {
	loader, err := NewLoader(".")
	if err != nil {
		return nil, err
	}
	return loader.LoadAll()
})

func loadModule(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := moduleLoad()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	return pkgs
}
