package lint

import (
	"go/ast"
	"go/types"
)

// GoLeak flags goroutine spawn sites with no visible completion join.
// Every `go` statement in the engine must leave a way for the spawner
// (or a context) to learn the goroutine finished: a sync.WaitGroup
// Done, a send on or close of a channel, or a ctx.Done()-bounded wait.
// A goroutine with none of those outlives its caller silently — under
// the serving daemon (DESIGN.md §14) that is a per-request leak.
//
// The check is syntactic over the spawned body (plus, for `go f(...)`,
// the argument list): passing a WaitGroup, channel, or context into
// the spawned function counts as a join, because the completion
// signal's shape then lives in the callee.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "a go statement must join back: WaitGroup.Done, a channel send/close, or a ctx.Done()-bounded body; " +
		"otherwise the goroutine's completion is unobservable",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) {
	info := pass.Pkg.Info
	if info == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, info, g)
			return true
		})
	}
}

func checkGoStmt(pass *Pass, info *types.Info, g *ast.GoStmt) {
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if !bodyJoins(info, lit.Body) {
			pass.Reportf(g.Pos(),
				"goroutine has no completion join: no WaitGroup Done, no channel send or close, no ctx.Done()-bounded wait; its exit is unobservable")
		}
		return
	}
	// go f(args...): the join, if any, must travel through the
	// arguments (or the receiver's own state, which we cannot see —
	// passing a WaitGroup/channel/context is the visible contract).
	for _, arg := range g.Call.Args {
		if t := info.TypeOf(arg); t != nil && joinCarrier(t) {
			return
		}
	}
	if recvCarriesJoin(info, g.Call) {
		return
	}
	pass.Reportf(g.Pos(),
		"go %s(...) passes no WaitGroup, channel, or context; the spawned goroutine cannot signal completion",
		exprString(g.Call.Fun))
}

// bodyJoins reports whether a spawned function literal body contains at
// least one join signal: a WaitGroup.Done call, a channel send, a
// close(), or a receive/select touching ctx.Done().
func bodyJoins(info *types.Info, body ast.Node) bool {
	joins := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joins {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			joins = true
		case *ast.CallExpr:
			if isBuiltin(info, n, "close") {
				joins = true
				break
			}
			fn := calleeOf(info, n)
			switch {
			case isMethodOn(fn, "sync", "WaitGroup", "Done"):
				joins = true
			case isMethodOn(fn, "context", "Context", "Done"):
				joins = true
			}
		}
		return !joins
	})
	return joins
}

// joinCarrier reports whether a value of type t can carry a completion
// signal into a spawned function: channels, *sync.WaitGroup, and
// context.Context qualify.
func joinCarrier(t types.Type) bool {
	if isContextType(t) {
		return true
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		if named, ok := p.Elem().(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				return true
			}
		}
	}
	return false
}

// recvCarriesJoin reports whether `go x.M(...)` invokes a method whose
// receiver type contains a join carrier field (a WaitGroup, channel, or
// context stored in the struct) — the pipeline-object idiom, where the
// struct itself is the completion contract.
func recvCarriesJoin(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if joinCarrier(ft) {
			return true
		}
		// A WaitGroup held by value is as good as a pointer to one.
		if named, ok := ft.(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				return true
			}
		}
	}
	return false
}
