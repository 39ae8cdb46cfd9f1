// Package lint is a small stdlib-only static-analysis framework plus the
// repo-specific analyzers that machine-check the reproduction's
// determinism and concurrency invariants.
//
// The evaluation engine's core guarantee — parallel runs byte-identical
// to serial ones (DESIGN.md §6/§7, TestTableIIDeterministicAcrossWorkers)
// — rests on conventions: all randomness flows through internal/rng, no
// wall clock or map-iteration order reaches report output, and locks
// and goroutines are released on every path. The analyzers here turn
// those conventions into compile-time checks run by cmd/chipvqa-lint on
// every build (tier-1 verify), alongside a reachability check that
// keeps code nothing calls from piling up.
//
// The framework is deliberately minimal: a type-checked package loader
// (load.go) built on go/parser + go/types with a source-mode stdlib
// importer (no golang.org/x/tools dependency), an Analyzer interface, a
// `//lint:ignore <name> <reason>` suppression mechanism, and a
// `// want "regexp"` expectation harness for corpus tests (linttest.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments. Lowercase identifier, e.g. "nodeterm".
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// A Diagnostic is one finding, attributed to an analyzer and a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the classic file:line:col form the
// driver prints and the corpus harness matches against.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// Facts holds the module-wide cross-function facts (takes-ctx,
	// may-block, spawns-goroutine) computed once per Run over all
	// loaded packages. See facts.go.
	Facts *Facts

	diags    *[]Diagnostic
	suppress map[suppressKey]*suppressRecord
}

// suppressKey identifies one (file, line, analyzer) suppression target.
type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// suppressRecord tracks one suppression target so that directives that
// never match a finding can themselves be reported as stale.
type suppressRecord struct {
	pos  token.Position // position of the //lint:ignore comment
	used bool
}

// Reportf records a finding at pos unless a //lint:ignore directive for
// this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if rec, ok := p.suppress[suppressKey{position.Filename, position.Line, p.Analyzer.Name}]; ok {
		rec.used = true
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every shipped analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{NoDeterm, MapOrder, ErrDrop, HotAlloc, CtxFlow, GoLeak, LockSafe, Unreachable}
}

// Run executes the analyzers over the packages and returns all findings
// sorted by position. Malformed //lint: control comments are reported as
// findings of the pseudo-analyzer "directive", so a typo in a
// suppression can never silently disable a check; a well-formed
// suppression that no longer matches any finding of an analyzer that
// ran is reported as stale for the same reason.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	facts := ComputeFacts(pkgs)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		suppress, bad := collectSuppressions(pkg)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Facts: facts, diags: &diags, suppress: suppress}
			a.Run(pass)
		}
		diags = append(diags, staleSuppressions(suppress, ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// collectSuppressions scans a package's comments for //lint:ignore
// directives and returns the suppression set plus diagnostics for any
// malformed //lint: comment. A trailing comment suppresses its own
// line; a comment on its own line suppresses the next line. Each
// file's line→code-end index is computed once (one AST walk per file),
// so a file with many directives stays linear.
func collectSuppressions(pkg *Package) (map[suppressKey]*suppressRecord, []Diagnostic) {
	suppress := make(map[suppressKey]*suppressRecord)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		var lineEnds map[int]token.Pos
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !IsDirective(c.Text) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d, err := ParseDirective(c.Text)
				if err != nil {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  err.Error(),
					})
					continue
				}
				if lineEnds == nil {
					lineEnds = codeLineEnds(pkg.Fset, f)
				}
				line := pos.Line
				if end, ok := lineEnds[line]; !ok || end > c.Pos() {
					line++ // own-line comment: suppress the next line
				}
				for _, name := range d.Analyzers {
					suppress[suppressKey{pos.Filename, line, name}] = &suppressRecord{pos: pos}
				}
			}
		}
	}
	return suppress, bad
}

// codeLineEnds indexes, for each source line that holds non-comment
// code, the smallest End position of a code node ending on that line.
// A directive comment trails code exactly when its line has such an
// end at or before the comment's start.
func codeLineEnds(fset *token.FileSet, f *ast.File) map[int]token.Pos {
	ends := make(map[int]token.Pos)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		line := fset.Position(n.End()).Line
		if cur, ok := ends[line]; !ok || n.End() < cur {
			ends[line] = n.End()
		}
		return true
	})
	return ends
}

// staleSuppressions reports //lint:ignore directives that matched no
// finding of any analyzer that ran. Directives naming analyzers outside
// the ran set are left alone (a -only run must not flag suppressions
// belonging to the analyzers it skipped). Output is sorted by directive
// position for determinism.
func staleSuppressions(suppress map[suppressKey]*suppressRecord, ran map[string]bool) []Diagnostic {
	var stale []Diagnostic
	for key, rec := range suppress {
		if rec.used || !ran[key.analyzer] {
			continue
		}
		stale = append(stale, Diagnostic{
			Pos:      rec.pos,
			Analyzer: "directive",
			Message:  fmt.Sprintf("stale //lint:ignore: no %s finding on the suppressed line", key.analyzer),
		})
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return stale
}

// isTestFile reports whether the file position belongs to a _test.go
// file. The loader excludes test files, but analyzers guard anyway so
// they stay correct if handed a test-inclusive package.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
