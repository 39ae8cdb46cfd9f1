package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the hot-path allocation discipline of DESIGN.md
// §12: a function whose doc comment carries a `//hot:` marker declares
// itself part of a zero-alloc steady-state path (the judge dispatch,
// answer normalisation, bootstrap chunk loops), and the AllocsPerRun
// tests pin those paths at 0 allocs/op. The two allocation patterns
// that historically crept back in are caught statically here:
//
//   - fmt.Sprint/Sprintf/Sprintln calls — every call allocates its
//     result string (the bootstrap resampler once burned ~15% of its
//     budget formatting rng stream keys with fmt.Sprint);
//   - runtime string concatenation (s1 + s2, s += x) — allocates a
//     fresh string per evaluation; constant-folded concatenations are
//     exempt because they cost nothing at run time.
//
// The marker form is `//hot:tag explanation`. The colon immediately
// after "hot" makes it a comment directive, which gofmt preserves
// verbatim at the end of a doc comment.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbids fmt.Sprint* calls and runtime string concatenation inside functions " +
		"whose doc comment carries a //hot: marker; hot paths must stay zero-alloc " +
		"(use scratch buffers, strconv.Append*, or preformatted keys)",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotMarked(fd.Doc) {
				continue
			}
			checkHotBody(pass, info, fd)
		}
	}
}

// isHotMarked reports whether a doc comment contains a //hot: marker
// line.
func isHotMarked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//hot:") {
			return true
		}
	}
	return false
}

// checkHotBody walks one hot function's body (function literals
// included — a closure a hot function calls runs on the same hot path)
// and reports the allocation patterns.
func checkHotBody(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := fmtSprintName(info, n); fn != "" {
				pass.Reportf(n.Pos(),
					"fmt.%s allocates its result inside hot function %s; preformat outside the loop or use strconv.Append*",
					fn, name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isRuntimeStringExpr(info, n) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates inside hot function %s; use a scratch buffer or append",
					name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info, n.Lhs[0]) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates inside hot function %s; use a scratch buffer or append",
					name)
			}
		}
		return true
	})
}

// fmtSprintName returns the Sprint-family function name when the call
// is fmt.Sprint/Sprintf/Sprintln, else "".
func fmtSprintName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "fmt" {
		return ""
	}
	if strings.HasPrefix(sel.Sel.Name, "Sprint") {
		return sel.Sel.Name
	}
	return ""
}

// isRuntimeStringExpr reports whether the expression has string type
// and is not a compile-time constant (constant concatenations are
// folded by the compiler and never allocate).
func isRuntimeStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	return isStringUnderlying(tv.Type)
}

// isStringType reports whether the expression's type is string.
func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isStringUnderlying(tv.Type)
}

func isStringUnderlying(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
