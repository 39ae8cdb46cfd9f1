package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockSafe checks mutex discipline with a branch-joining must-analysis:
// within one function (or function literal) body, every
// sync.Mutex/RWMutex Lock or RLock must be released on every path — by
// a matching unlock or a deferred one — and nothing
// that can block (channel ops, selects, may-block calls per the facts
// layer) may run while a lock is held. The latter is the deadlock
// shape the reorder buffer and SceneCache must never regress into:
// a blocked holder starves every other goroutine contending for the
// lock, and under the serving roadmap that is a whole-process stall.
//
// Analysis is per-body: lock state does not flow into closures or
// callees. Unlocking a lock this body never acquired is ignored, which
// keeps *Locked-style helper functions (callee unlocks a caller-held
// lock) out of scope rather than misreported.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "every Lock/RLock must be paired with an unlock on all paths (deferred counts), kinds must match, " +
		"and no channel op, select, or may-block call may run while a lock is held",
	Run: runLockSafe,
}

// lockKey identifies one lock by the variable at the root of its
// expression plus the rendered path, so `c.mu` and `d.mu` are distinct
// even when both roots have the same name.
type lockKey struct {
	root *types.Var
	path string
}

// lockState is the must-hold state of one lock on the current path.
type lockState struct {
	kind     string // "Lock" or "RLock"
	pos      token.Pos
	deferred bool // a matching deferred unlock is scheduled
}

// lockEnv maps held locks to their state. Branch analysis clones it.
type lockEnv map[lockKey]lockState

func (e lockEnv) clone() lockEnv {
	c := make(lockEnv, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

type lockWalker struct {
	pass *Pass
	info *types.Info
}

func runLockSafe(pass *Pass) {
	info := pass.Pkg.Info
	if info == nil {
		return
	}
	w := &lockWalker{pass: pass, info: info}
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg.Fset, f) {
			continue
		}
		// Every function declaration and every function literal is its
		// own analysis unit (nested literals are not skipped: the
		// sync.Once compute closure and worker bodies have lock
		// discipline of their own).
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w.checkUnit(n.Body)
				}
			case *ast.FuncLit:
				w.checkUnit(n.Body)
			}
			return true
		})
	}
}

// checkUnit runs the must-analysis over one function body.
func (w *lockWalker) checkUnit(body *ast.BlockStmt) {
	env := lockEnv{}
	if w.block(body.List, env) {
		return
	}
	for _, k := range sortedKeys(env) {
		if st := env[k]; !st.deferred {
			w.pass.Reportf(st.pos, "%s is locked here but not released on every path", k.path)
		}
	}
}

// block walks a statement list, reporting whether the path terminates
// (return, panic, branch) before falling off the end.
func (w *lockWalker) block(list []ast.Stmt, env lockEnv) bool {
	for _, s := range list {
		if w.stmt(s, env) {
			return true
		}
	}
	return false
}

// stmt transfers env across one statement; the result reports path
// termination.
func (w *lockWalker) stmt(s ast.Stmt, env lockEnv) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scan(s.X, env)
		if call, ok := unparen(s.X).(*ast.CallExpr); ok && isBuiltin(w.info, call, "panic") {
			return true // deferred unlocks run during panic unwinding
		}
	case *ast.SendStmt:
		w.scan(s.Chan, env)
		w.scan(s.Value, env)
		w.heldCheck(env, s.Pos(), "channel send")
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, env)
		}
		for _, k := range sortedKeys(env) {
			if st := env[k]; !st.deferred {
				w.pass.Reportf(s.Pos(), "return without unlocking %s (locked at line %d)", k.path, w.line(st.pos))
			}
		}
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto end straight-line flow
	case *ast.DeferStmt:
		w.deferStmt(s, env)
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.scan(a, env)
		}
		// The spawned body is its own analysis unit, and spawning
		// itself does not block.
	case *ast.BlockStmt:
		return w.block(s.List, env)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, env)
	case *ast.IfStmt:
		return w.ifStmt(s, env)
	case *ast.SwitchStmt:
		return w.switchStmt(s.Init, s.Tag, s.Body, env)
	case *ast.TypeSwitchStmt:
		return w.switchStmt(s.Init, nil, s.Body, env)
	case *ast.SelectStmt:
		return w.selectStmt(s, env)
	case *ast.ForStmt:
		if s.Init != nil && w.stmt(s.Init, env) {
			return true
		}
		if s.Cond != nil {
			w.scan(s.Cond, env)
		}
		body := env.clone()
		terminated := w.block(s.Body.List, body)
		if !terminated && s.Post != nil {
			w.stmt(s.Post, body)
		}
		if !terminated {
			w.loopLeak(env, body)
		}
	case *ast.RangeStmt:
		w.scan(s.X, env)
		if t := w.info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.heldCheck(env, s.Pos(), "range over a channel")
			}
		}
		body := env.clone()
		if !w.block(s.Body.List, body) {
			w.loopLeak(env, body)
		}
	default:
		w.scan(s, env) // assignments, declarations, inc/dec
	}
	return false
}

// scan walks an expression (or expression-bearing statement) applying
// lock operations and blocking checks, without descending into
// function literals (separate units).
func (w *lockWalker) scan(n ast.Node, env lockEnv) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if kind, key, ok := w.lockOp(x); ok {
				w.applyLockOp(kind, key, x.Pos(), env)
				return true
			}
			if fn := calleeOf(w.info, x); fn != nil {
				if _, blocks := w.pass.Facts.MayBlock(fn); blocks {
					w.heldCheck(env, x.Pos(), "call to "+qualifiedName(fn))
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.heldCheck(env, x.Pos(), "channel receive")
			}
		}
		return true
	})
}

// lockOp recognises Lock/Unlock/RLock/RUnlock calls on sync.Mutex and
// sync.RWMutex (including promoted methods of embedded mutexes) and
// resolves the lock's identity. ok is false for untrackable receivers
// (package-qualified or computed expressions).
func (w *lockWalker) lockOp(call *ast.CallExpr) (kind string, key lockKey, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", lockKey{}, false
	}
	fn := calleeOf(w.info, call)
	if fn == nil {
		return "", lockKey{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", lockKey{}, false
	}
	named := recvNamed(fn)
	if named == nil {
		return "", lockKey{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", lockKey{}, false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex":
	default:
		return "", lockKey{}, false
	}
	root := w.rootVar(sel.X)
	if root == nil {
		return "", lockKey{}, false
	}
	return fn.Name(), lockKey{root: root, path: exprString(sel.X)}, true
}

// rootVar resolves the variable at the root of a lock expression
// (`c.mu` → c, `shards[i].mu` → shards), or nil when the root is not a
// plain variable.
func (w *lockWalker) rootVar(e ast.Expr) *types.Var {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			obj := w.info.Uses[x]
			if obj == nil {
				obj = w.info.Defs[x]
			}
			v, _ := obj.(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// applyLockOp transfers env across one lock operation, reporting
// self-deadlocks, kind mismatches, and double unlocks.
func (w *lockWalker) applyLockOp(kind string, key lockKey, pos token.Pos, env lockEnv) {
	switch kind {
	case "Lock", "RLock":
		if st, held := env[key]; held {
			if kind == "Lock" || st.kind == "Lock" {
				w.pass.Reportf(pos, "acquiring %s while it is already held (locked at line %d): self-deadlock", key.path, w.line(st.pos))
			}
			return
		}
		w.heldCheck(env, pos, "acquiring "+key.path)
		env[key] = lockState{kind: kind, pos: pos}
	case "Unlock", "RUnlock":
		st, held := env[key]
		if !held {
			return // caller-held lock released by a *Locked helper
		}
		if want := unlockFor(st.kind); kind != want {
			w.pass.Reportf(pos, "unlocking %s with %s but it was %s at line %d; use %s",
				key.path, kind, heldVerb(st.kind), w.line(st.pos), want)
		} else if st.deferred {
			w.pass.Reportf(pos, "unlocking %s which already has a deferred unlock scheduled: the deferred unlock will panic", key.path)
		}
		delete(env, key)
	}
}

// unlockFor maps a lock kind to its matching unlock method.
func unlockFor(kind string) string {
	if kind == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// heldVerb renders a held kind for diagnostics.
func heldVerb(kind string) string {
	if kind == "RLock" {
		return "read-locked"
	}
	return "locked"
}

// deferStmt processes a defer: a deferred matching unlock discharges
// the pairing obligation; a deferred closure's direct unlocks do the
// same.
func (w *lockWalker) deferStmt(s *ast.DeferStmt, env lockEnv) {
	call := s.Call
	if kind, key, ok := w.lockOp(call); ok {
		if kind != "Unlock" && kind != "RUnlock" {
			return // defer mu.Lock() is nonsense; leave it to review
		}
		st, held := env[key]
		if !held {
			return
		}
		if want := unlockFor(st.kind); kind != want {
			w.pass.Reportf(call.Pos(), "unlocking %s with %s but it was %s at line %d; use %s",
				key.path, kind, heldVerb(st.kind), w.line(st.pos), want)
			return
		}
		if st.deferred {
			w.pass.Reportf(call.Pos(), "unlocking %s which already has a deferred unlock scheduled: the deferred unlock will panic", key.path)
			return
		}
		st.deferred = true
		env[key] = st
		return
	}
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, nested := n.(*ast.FuncLit); nested {
				return false
			}
			if c, ok := n.(*ast.CallExpr); ok {
				if kind, key, opOK := w.lockOp(c); opOK && (kind == "Unlock" || kind == "RUnlock") {
					if st, held := env[key]; held && !st.deferred && kind == unlockFor(st.kind) {
						st.deferred = true
						env[key] = st
					}
				}
			}
			return true
		})
		return
	}
	for _, a := range call.Args {
		w.scan(a, env)
	}
}

// heldCheck reports a blocking operation performed while a lock is
// held. The lexicographically smallest held path is reported so the
// diagnostic is deterministic regardless of map order.
func (w *lockWalker) heldCheck(env lockEnv, pos token.Pos, what string) {
	if len(env) == 0 {
		return
	}
	keys := sortedKeys(env)
	st := env[keys[0]]
	w.pass.Reportf(pos, "%s may block while holding %s (locked at line %d)", what, keys[0].path, w.line(st.pos))
}

// loopLeak reports locks acquired inside a loop body that are still
// held when the iteration ends: the next iteration would self-deadlock
// (Mutex) or starve writers (RWMutex).
func (w *lockWalker) loopLeak(entry, body lockEnv) {
	for _, k := range sortedKeys(body) {
		if _, before := entry[k]; before {
			continue
		}
		if st := body[k]; !st.deferred {
			w.pass.Reportf(st.pos, "%s is locked in the loop body but not released by the end of the iteration", k.path)
		}
	}
}

func (w *lockWalker) ifStmt(s *ast.IfStmt, env lockEnv) bool {
	if s.Init != nil && w.stmt(s.Init, env) {
		return true
	}
	w.scan(s.Cond, env)
	branches := make([]lockBranch, 0, 2)
	thenEnv := env.clone()
	branches = append(branches, lockBranch{thenEnv, w.block(s.Body.List, thenEnv)})
	elseEnv := env.clone()
	elseTerm := false
	if s.Else != nil {
		elseTerm = w.stmt(s.Else, elseEnv)
	}
	branches = append(branches, lockBranch{elseEnv, elseTerm})
	return w.join(env, branches)
}

func (w *lockWalker) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, env lockEnv) bool {
	if init != nil && w.stmt(init, env) {
		return true
	}
	if tag != nil {
		w.scan(tag, env)
	}
	var branches []lockBranch
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.scan(e, env)
		}
		cenv := env.clone()
		branches = append(branches, lockBranch{cenv, w.block(cc.Body, cenv)})
	}
	if !hasDefault {
		branches = append(branches, lockBranch{env.clone(), false})
	}
	return w.join(env, branches)
}

func (w *lockWalker) selectStmt(s *ast.SelectStmt, env lockEnv) bool {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.heldCheck(env, s.Pos(), "select with no default")
	}
	var branches []lockBranch
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		cenv := env.clone()
		w.commStmt(cc.Comm, cenv)
		branches = append(branches, lockBranch{cenv, w.block(cc.Body, cenv)})
	}
	// A select always runs exactly one of its cases, so there is no
	// implicit skip branch even without a default.
	return w.join(env, branches)
}

// commStmt walks a select communication op's sub-expressions without
// re-flagging the channel op itself (the select-level heldCheck covers
// it; with a default present the op is non-blocking).
func (w *lockWalker) commStmt(comm ast.Stmt, env lockEnv) {
	switch c := comm.(type) {
	case nil:
	case *ast.SendStmt:
		w.scan(c.Chan, env)
		w.scan(c.Value, env)
	case *ast.ExprStmt:
		if u, ok := unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.scan(u.X, env)
		} else {
			w.scan(c.X, env)
		}
	case *ast.AssignStmt:
		for _, r := range c.Rhs {
			if u, ok := unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.scan(u.X, env)
			} else {
				w.scan(r, env)
			}
		}
	}
}

type lockBranch struct {
	env        lockEnv
	terminated bool
}

// join merges branch environments back into env with must-semantics: a
// lock survives the join only when every live branch holds it in the
// same mode; a lock held on some but not all live paths is a
// not-released-on-every-path finding. All-terminated branch sets make
// the following code unreachable.
func (w *lockWalker) join(env lockEnv, branches []lockBranch) bool {
	var live []lockEnv
	for _, b := range branches {
		if !b.terminated {
			live = append(live, b.env)
		}
	}
	if len(live) == 0 {
		for k := range env {
			delete(env, k)
		}
		return true
	}
	seen := make(map[lockKey]bool)
	var order []lockKey
	for _, e := range live {
		for _, k := range sortedKeys(e) {
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].path != order[j].path {
			return order[i].path < order[j].path
		}
		return order[i].root.Pos() < order[j].root.Pos()
	})
	for k := range env {
		delete(env, k)
	}
	for _, k := range order {
		var states []lockState
		for _, e := range live {
			if st, ok := e[k]; ok {
				states = append(states, st)
			}
		}
		st := states[0]
		for _, s := range states[1:] {
			if s.pos < st.pos {
				st.pos = s.pos
			}
		}
		if len(states) == len(live) {
			agree := true
			for _, s := range states[1:] {
				if s.kind != states[0].kind || s.deferred != states[0].deferred {
					agree = false
					break
				}
			}
			if agree {
				env[k] = st
				continue
			}
		}
		w.pass.Reportf(st.pos, "%s is locked here but not released on every path", k.path)
	}
	return false
}

// sortedKeys returns env's keys ordered by path (then root position)
// so every iteration-derived diagnostic is deterministic.
func sortedKeys(env lockEnv) []lockKey {
	keys := make([]lockKey, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].root.Pos() < keys[j].root.Pos()
	})
	return keys
}

func (w *lockWalker) line(pos token.Pos) int {
	return w.pass.Pkg.Fset.Position(pos).Line
}
