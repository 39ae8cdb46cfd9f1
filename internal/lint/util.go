package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// errorType is the universe error interface, for result-type checks.
var errorType = types.Universe.Lookup("error").Type()

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves the function or method object a call invokes, or
// nil for indirect calls, builtins and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// pkgOf returns the package an object belongs to, or "" for builtins
// and universe objects.
func pkgOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvNamed returns the named type of a method's receiver (through one
// pointer), or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethodOn reports whether fn is a method named name on the type
// pkgSuffix.typeName, with pkgSuffix matched as a path suffix so the
// check is independent of the module path.
func isMethodOn(fn *types.Func, pkgSuffix, typeName, name string) bool {
	named := recvNamed(fn)
	if named == nil || fn.Name() != name {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// pathHasSuffix reports whether path is suffix or ends in "/"+suffix.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// hasPrefixAny reports whether s starts with any of the prefixes.
func hasPrefixAny(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// declaredOutside reports whether the identifier's object is declared
// outside the given node's source range (e.g. a slice that outlives a
// loop body).
func declaredOutside(info *types.Info, id *ast.Ident, n ast.Node) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < n.Pos() || obj.Pos() >= n.End()
}

// exprString renders a call target for diagnostics: "pkg.F", "x.M" or
// "f". Falls back to "?" for exotic expressions.
func exprString(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "?"
	}
}
