package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Unreachable reports module functions and methods that no root of the
// program reaches, so code that only its own tests call cannot pile up
// again after a refactor orphans it.
//
// Roots are func main and func init, every package-level variable
// initializer, and the exported API of the module's root package (see
// apiObjects), aliased re-exports included. From a live declaration
// every types.Info.Uses reference is an edge: calls, function and
// method values, and functions stored in fields or tables. A live type
// also keeps the methods of every interface it implements that the
// program mentions (see interfaces). The loader skips _test.go files,
// so a function only a test calls is reported; keep it with
// `//lint:ignore unreachable <the test or benchmark that calls it>` as
// the last line of its doc comment, which also keeps what it calls.
var Unreachable = &Analyzer{
	Name: "unreachable",
	Doc: "reports functions and methods that no main, init, package-level initializer, " +
		"exported facade API or interface implemented by a live type reaches",
	Run: runUnreachable,
}

func runUnreachable(pass *Pass) {
	if pass.Pkg.Info == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || pass.Facts.reachable(fn) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s is unreachable: no root of the program calls or references it", qualifiedName(fn))
		}
	}
}

// A declSite is the syntax of one package-level declaration and the
// package whose Info resolves it.
type declSite struct {
	node ast.Node
	info *types.Info
}

// liveFuncs returns the module functions and methods that must not be
// reported: those reachable from the roots described on Unreachable,
// plus the callees of functions a directive keeps. The kept functions
// themselves stay out of the set, so their directives are consumed and
// a directive on a function that becomes reachable goes stale.
func liveFuncs(pkgs []*Package) map[*types.Func]bool {
	decls := make(map[types.Object]declSite)
	var roots, kept []types.Object
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		main := pkg.Types.Name() == "main"
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					decls[fn] = declSite{d, pkg.Info}
					if keptByDirective(d) {
						kept = append(kept, fn)
					}
					if d.Recv == nil && (d.Name.Name == "init" || main && d.Name.Name == "main") {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						for _, id := range specNames(spec) {
							obj := pkg.Info.Defs[id]
							if obj == nil {
								continue
							}
							decls[obj] = declSite{spec, pkg.Info}
							if _, isVar := obj.(*types.Var); isVar {
								roots = append(roots, obj)
							}
						}
					}
				}
			}
		}
	}
	for _, obj := range apiObjects(pkgs) {
		if _, declared := decls[obj]; declared {
			roots = append(roots, obj)
		}
	}

	ifaces := interfaces(pkgs)
	live := make(map[types.Object]bool)
	queue := roots
	mark := func(obj types.Object) {
		if _, declared := decls[obj]; declared && !live[obj] {
			live[obj] = true
			queue = append(queue, obj)
		}
	}
	walk := func() {
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			site := decls[obj]
			ast.Inspect(site.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if used := site.info.Uses[id]; used != nil {
						mark(origin(used))
					}
				}
				return true
			})
			// A live type keeps the methods, promoted ones included, of
			// every mentioned interface it or its pointer implements.
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				ptr := types.NewPointer(tn.Type())
				for _, it := range ifaces {
					if !types.Implements(ptr, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if fn, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); fn != nil {
							mark(origin(fn))
						}
					}
				}
			}
		}
	}
	for _, obj := range roots {
		live[obj] = true
	}
	walk()
	var keptOnly []types.Object
	for _, obj := range kept {
		if !live[obj] {
			keptOnly = append(keptOnly, obj)
			mark(obj)
		}
	}
	walk()
	for _, obj := range keptOnly {
		delete(live, obj)
	}

	funcs := make(map[*types.Func]bool)
	for obj := range live {
		if fn, ok := obj.(*types.Func); ok {
			funcs[fn] = true
		}
	}
	return funcs
}

// apiObjects returns the exported API of the module's root package: its
// exported package-level objects, and every exported method a caller
// outside the module can reach from them. Those are the method sets,
// promoted methods included, of every type the objects name or
// re-export as an alias, and of every type reachable from those through
// signatures, exported fields and element types.
func apiObjects(pkgs []*Package) []types.Object {
	var out []types.Object
	seen := make(map[types.Type]bool)
	var visit func(t types.Type)
	visitTuple := func(t *types.Tuple) {
		for i := 0; i < t.Len(); i++ {
			visit(t.At(i).Type())
		}
	}
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Alias:
			visit(types.Unalias(u))
		case *types.Named:
			mset := types.NewMethodSet(types.NewPointer(u))
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i).Obj().(*types.Func); m.Exported() {
					out = append(out, m.Origin())
					visit(m.Type())
				}
			}
			visit(u.Underlying())
		case *types.Map:
			visit(u.Key())
			visit(u.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			visit(u.Elem())
		case *types.Signature:
			visitTuple(u.Params())
			visitTuple(u.Results())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Exported() {
					visit(u.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				visit(u.Method(i).Type())
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Path != pkg.Module {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			if obj := pkg.Types.Scope().Lookup(name); obj.Exported() {
				out = append(out, obj)
				visit(obj.Type())
			}
		}
	}
	return out
}

// keptByDirective reports whether the last line of a function's doc
// comment is a //lint:ignore directive naming unreachable.
func keptByDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	d, err := ParseDirective(fd.Doc.List[len(fd.Doc.List)-1].Text)
	return err == nil && slices.Contains(d.Analyzers, "unreachable")
}

// specNames lists the identifiers a value or type spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.ValueSpec:
		return s.Names
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	}
	return nil
}

// origin maps a use of an instantiated generic function, method or
// field back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaces lists the non-empty interfaces the program mentions:
// error and fmt.Stringer, which the runtime and package fmt look for
// dynamically; every interface type written in module code, named or
// literal; and the interface type of every module expression, variable
// or field it uses, and parameter of a function it calls (io.Writer,
// http.Handler, sort.Interface...).
func interfaces(pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	added := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if t == nil {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || added[it] {
			return
		}
		added[it] = true
		out = append(out, it)
	}
	add(types.Universe.Lookup("error").Type())
	str := types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.String]))
	stringer := types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil, str, false))
	add(types.NewInterfaceType([]*types.Func{stringer}, nil).Complete())
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				expr, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				add(pkg.Info.TypeOf(expr))
				if call, ok := expr.(*ast.CallExpr); ok {
					if sig, ok := pkg.Info.TypeOf(call.Fun).(*types.Signature); ok {
						for i := 0; i < sig.Params().Len(); i++ {
							t := sig.Params().At(i).Type()
							if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
								t = s.Elem()
							}
							add(t)
						}
					}
				}
				return true
			})
		}
	}
	return out
}
