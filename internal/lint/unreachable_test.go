package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testNameRx matches the test, benchmark and fuzz targets a directive
// reason names.
var testNameRx = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)

// TestUnreachableDirectivesNameLiveCallers keeps the module's
// //lint:ignore unreachable directives from going stale silently. The
// reason of each must name at least one test, benchmark or fuzz target,
// and every target it names must be declared in a _test.go file of the
// module and reach the kept function, directly or through other
// functions of those files (matched by name). Deleting the last test
// that calls a kept function, or the call, then fails here.
func TestUnreachableDirectivesNameLiveCallers(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFileFuncs(t, root)
	kept := 0
	for _, pkg := range loadModule(t) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !keptByDirective(fd) {
					continue
				}
				kept++
				d, err := ParseDirective(fd.Doc.List[len(fd.Doc.List)-1].Text)
				if err != nil {
					t.Fatal(err)
				}
				pos := pkg.Fset.Position(fd.Pos())
				names := testNameRx.FindAllString(d.Reason, -1)
				if len(names) == 0 {
					t.Errorf("%s: the unreachable directive on %s names no test, benchmark or fuzz target", pos, fd.Name.Name)
				}
				for _, name := range names {
					if !reachesByName(funcs, name, fd.Name.Name) {
						t.Errorf("%s: the unreachable directive on %s names %s, which no _test.go file declares or which does not reach it", pos, fd.Name.Name, name)
					}
				}
			}
		}
	}
	if kept == 0 {
		t.Fatal("found no unreachable directive; directive discovery is broken")
	}
}

// testFileFuncs parses every _test.go file under root, skipping the
// directories LoadAll skips, and indexes their functions and methods by
// name.
func testFileFuncs(t *testing.T, root string) map[string][]*ast.FuncDecl {
	t.Helper()
	fset := token.NewFileSet()
	funcs := make(map[string][]*ast.FuncDecl)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs[fd.Name.Name] = append(funcs[fd.Name.Name], fd)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// reachesByName reports whether a function named from, declared in a
// test file, mentions target in its body or in the body of a test-file
// function it mentions, transitively.
func reachesByName(funcs map[string][]*ast.FuncDecl, from, target string) bool {
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, fd := range funcs[name] {
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || found {
					return !found
				}
				if id.Name == target {
					found = true
				} else if _, declared := funcs[id.Name]; declared && !seen[id.Name] {
					seen[id.Name] = true
					queue = append(queue, id.Name)
				}
				return true
			})
			if found {
				return true
			}
		}
	}
	return false
}
