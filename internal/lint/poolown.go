package lint

import (
	"go/ast"
	"go/types"
)

// PoolOwn machine-checks the pixel-pool ownership contract documented
// in internal/visual/pool.go. Every image the visual layer returns
// (Render, Downsample, chipvqa.RenderQuestion) is caller-owned and may
// be released at most once, so after ReleaseImage(v), v must not be
// released again, returned, or stored into a field: its Pix is gone.
//
// The check is an intraprocedural must-analysis: the set of released
// variables flows through straight-line code, both branches of an
// if/else are analyzed and re-joined (a variable stays released only if
// it is released on every path), and loop and switch bodies are
// analyzed conservatively without iterating.
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc:  "enforces the pixel-pool ownership contract: never double-release, never use a released image",
	Run:  runPoolOwn,
}

// poolEnv is the set of image variables already released on the
// current path.
type poolEnv map[*types.Var]bool

func (e poolEnv) clone() poolEnv {
	c := make(poolEnv, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// join merges two branch environments into the must-intersection:
// a variable stays released only if both paths released it.
func (e poolEnv) join(a, b poolEnv) {
	clear(e)
	for k := range a {
		if b[k] {
			e[k] = true
		}
	}
}

func runPoolOwn(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w := &poolWalker{pass: pass}
					w.block(make(poolEnv), n.Body.List)
				}
				return false
			case *ast.FuncLit:
				w := &poolWalker{pass: pass}
				w.block(make(poolEnv), n.Body.List)
				return false
			}
			return true
		})
	}
}

// poolWalker carries the analysis through one function body.
type poolWalker struct {
	pass *Pass
}

func (w *poolWalker) info() *types.Info { return w.pass.Pkg.Info }

// block analyzes a statement sequence, threading env through it.
func (w *poolWalker) block(env poolEnv, stmts []ast.Stmt) {
	for _, s := range stmts {
		w.stmt(env, s)
	}
}

func (w *poolWalker) stmt(env poolEnv, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(env, s)
	case *ast.ExprStmt:
		w.expr(env, s.X)
	case *ast.DeferStmt:
		w.expr(env, s.Call)
	case *ast.GoStmt:
		w.expr(env, s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if w.released(env, r) {
				w.pass.Reportf(r.Pos(),
					"%s escapes via return after ReleaseImage; its pixel buffer is back in the pool", exprString(r))
			}
		}
	case *ast.BlockStmt:
		w.block(env, s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(env, s.Init)
		}
		w.expr(env, s.Cond)
		thenEnv := env.clone()
		w.block(thenEnv, s.Body.List)
		elseEnv := env.clone()
		if s.Else != nil {
			w.stmt(elseEnv, s.Else)
		}
		env.join(thenEnv, elseEnv)
	case *ast.ForStmt:
		// One-shot conservative pass over the body: releases inside the
		// loop are checked against the entry state but do not leak out
		// (the loop may run zero times).
		if s.Init != nil {
			w.stmt(env, s.Init)
		}
		w.block(env.clone(), s.Body.List)
	case *ast.RangeStmt:
		w.block(env.clone(), s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(env, s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(env.clone(), cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(env.clone(), cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(env, s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.bind(env, name, vs.Values[i])
						}
					}
				}
			}
		}
	}
}

// assign tracks released images through assignments and checks field
// stores of released images.
func (w *poolWalker) assign(env poolEnv, s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		w.expr(env, r)
	}
	for i, lhs := range s.Lhs {
		if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
			// x.f = v where v was released: escaping dead buffer.
			if i < len(s.Rhs) && w.released(env, s.Rhs[i]) {
				w.pass.Reportf(s.Rhs[i].Pos(),
					"%s escapes via field store %s after ReleaseImage", exprString(s.Rhs[i]), exprString(sel))
			}
			continue
		}
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if v := w.varOf(id); v != nil {
			// Reassignment clears the released state; aliasing a
			// released image carries it over. A multi-value
			// assignment is unknown.
			w.set(env, v, len(s.Lhs) == len(s.Rhs) && w.released(env, s.Rhs[i]))
		}
	}
}

// bind handles `var v = expr` declarations.
func (w *poolWalker) bind(env poolEnv, name *ast.Ident, val ast.Expr) {
	w.expr(env, val)
	if v := w.varOf(name); v != nil {
		w.set(env, v, w.released(env, val))
	}
}

// set records whether v holds a released image.
func (w *poolWalker) set(env poolEnv, v *types.Var, released bool) {
	if released {
		env[v] = true
	} else {
		delete(env, v)
	}
}

// released reports whether e names a variable holding a released image.
func (w *poolWalker) released(env poolEnv, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	v := w.varOf(id)
	return v != nil && env[v]
}

// expr scans an expression tree for ReleaseImage calls and applies
// their effects; nested function literals are skipped.
func (w *poolWalker) expr(env poolEnv, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeOf(w.info(), call); isFuncIn(fn, "internal/visual", "ReleaseImage") && len(call.Args) == 1 {
			w.release(env, call.Args[0])
		}
		return true
	})
}

// release applies ReleaseImage(arg) to the environment and reports a
// double release.
func (w *poolWalker) release(env poolEnv, arg ast.Expr) {
	id, ok := unparen(arg).(*ast.Ident)
	if !ok {
		return
	}
	v := w.varOf(id)
	if v == nil {
		return
	}
	if env[v] {
		w.pass.Reportf(arg.Pos(), "double release of %s on this path", id.Name)
	}
	env[v] = true
}

// varOf resolves an identifier to its variable object.
func (w *poolWalker) varOf(id *ast.Ident) *types.Var {
	obj := w.info().Uses[id]
	if obj == nil {
		obj = w.info().Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}
