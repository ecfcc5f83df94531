package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sendUnderLock flags blocking operations performed while a
// sync.Mutex/RWMutex is held: blocking channel sends and receives,
// selects without a default, time.Sleep, WaitGroup.Wait, and the
// control-plane calls that do network I/O (NETCONF RPCs, OpenFlow
// flow-mods/barriers, net.Conn reads/writes, dials). This is the PR 4
// bug class: a subscriber send under the broadcaster's lock deadlocked
// against a slow consumer, and a NETCONF call under an element lock
// wedged on a net.Pipe peer that was itself waiting for the lock.
//
// Deliberately NOT flagged, because they are the sanctioned fixes for
// that bug class: non-blocking sends (select with a default), close()
// under the lock, and cheap accessors on control-plane types.
var sendUnderLock = &Analyzer{
	Name: "sendunderlock",
	Doc: "no blocking channel operations or blocking control-plane I/O " +
		"while holding a sync mutex",
	Run: runSendUnderLock,
}

func runSendUnderLock(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			w := &lockWalker{pass: pass}
			w.stmts(body.List, lockState{})
		})
	}
	return nil
}

// lockState maps a mutex receiver key (exprKey of the expression the
// Lock method was called on) to the position of the Lock call.
type lockState map[string]token.Pos

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockState) union(o lockState) {
	for k, v := range o {
		if _, ok := s[k]; !ok {
			s[k] = v
		}
	}
}

type lockWalker struct {
	pass *Pass
}

// stmts walks a statement list, threading the held-lock state through.
// Returns the state at the end and whether the list terminates
// (return/branch/panic) instead of falling through.
func (w *lockWalker) stmts(list []ast.Stmt, held lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, held)

	case *ast.ExprStmt:
		if key, op, ok := lockOp(w.pass.Info, s.X); ok {
			switch op {
			case "Lock", "RLock":
				held[key] = s.Pos()
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return held, false
		}
		w.scan(s, held, false)
		return held, isTerminalCall(s.X)

	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function — exactly the state we want to carry. Other deferred
		// calls run at return, outside any scope we can reason about
		// cheaply, so they are not scanned.
		return held, false

	case *ast.GoStmt:
		// The spawned body runs without our locks (funcBodies analyzes
		// it as its own function).
		return held, false

	case *ast.SendStmt:
		if len(held) > 0 {
			key, pos := anyLock(held)
			w.pass.reportf(s.Pos(), "blocking channel send while holding %s (locked at %s); send after unlocking or use a non-blocking select", key, w.pass.Fset.Position(pos))
		}
		w.scanExpr(s.Value, held)
		return held, false

	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		thenState, thenTerm := w.stmts(s.Body.List, held.clone())
		elseState, elseTerm := held.clone(), false
		if s.Else != nil {
			elseState, elseTerm = w.stmt(s.Else, held.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return lockState{}, true
		case thenTerm:
			return elseState, false
		case elseTerm:
			return thenState, false
		default:
			thenState.union(elseState)
			return thenState, false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		w.stmts(s.Body.List, held.clone())
		return held, false

	case *ast.RangeStmt:
		if len(held) > 0 {
			if t := w.pass.Info.Types[s.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					key, pos := anyLock(held)
					w.pass.reportf(s.Pos(), "blocking channel receive (range) while holding %s (locked at %s)", key, w.pass.Fset.Position(pos))
				}
			}
		}
		w.scanExpr(s.X, held)
		w.stmts(s.Body.List, held.clone())
		return held, false

	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		return w.branches(caseBodies(s.Body), held)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		return w.branches(caseBodies(s.Body), held)

	case *ast.SelectStmt:
		hasDefault := false
		var bodies [][]ast.Stmt
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			if clause.Comm == nil {
				hasDefault = true
			}
			bodies = append(bodies, clause.Body)
		}
		if !hasDefault && len(held) > 0 {
			key, pos := anyLock(held)
			w.pass.reportf(s.Pos(), "blocking select (no default case) while holding %s (locked at %s)", key, w.pass.Fset.Position(pos))
		}
		// Comm statements themselves are governed by the select's
		// blocking-ness just reported; the case bodies run normally.
		return w.branches(bodies, held)

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, held)
		}
		return held, true

	case *ast.BranchStmt:
		return held, true

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)

	default:
		w.scan(s, held, false)
		return held, false
	}
}

// branches walks each alternative with a copy of the state and merges
// the outcomes of the non-terminating ones.
func (w *lockWalker) branches(bodies [][]ast.Stmt, held lockState) (lockState, bool) {
	if len(bodies) == 0 {
		return held, false
	}
	var merged lockState
	allTerm := true
	for _, body := range bodies {
		st, term := w.stmts(body, held.clone())
		if term {
			continue
		}
		allTerm = false
		if merged == nil {
			merged = st
		} else {
			merged.union(st)
		}
	}
	if allTerm {
		return lockState{}, false
	}
	return merged, false
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, cc := range body.List {
		out = append(out, cc.(*ast.CaseClause).Body)
	}
	return out
}

// scan inspects a statement's expressions (not descending into function
// literals) for blocking receives and blocking calls.
func (w *lockWalker) scan(s ast.Stmt, held lockState, _ bool) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				key, pos := anyLock(held)
				w.pass.reportf(n.Pos(), "blocking channel receive while holding %s (locked at %s)", key, w.pass.Fset.Position(pos))
			}
		case *ast.CallExpr:
			if desc := blockingCall(w.pass.Info, n); desc != "" {
				key, pos := anyLock(held)
				w.pass.reportf(n.Pos(), "%s while holding %s (locked at %s); release the lock before blocking I/O", desc, key, w.pass.Fset.Position(pos))
			}
		}
		return true
	})
}

func (w *lockWalker) scanExpr(e ast.Expr, held lockState) {
	if e == nil {
		return
	}
	w.scan(&ast.ExprStmt{X: e}, held, false)
}

// anyLock picks a deterministic representative from the held set for
// the report message.
func anyLock(held lockState) (string, token.Pos) {
	bestKey := ""
	var bestPos token.Pos
	for k, p := range held {
		if bestKey == "" || k < bestKey {
			bestKey, bestPos = k, p
		}
	}
	return bestKey, bestPos
}

// lockOp recognizes mu.Lock()/Unlock()/RLock()/RUnlock() calls on
// sync.Mutex or sync.RWMutex values (including embedded ones) and
// returns the receiver key and operation.
func lockOp(info *types.Info, e ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj := info.Uses[sel.Sel]
	switch sel.Sel.Name {
	case "Lock", "Unlock":
		if isMethod(obj, "sync", "Mutex", sel.Sel.Name) || isMethod(obj, "sync", "RWMutex", sel.Sel.Name) {
			return exprKey(sel.X), sel.Sel.Name, true
		}
	case "RLock", "RUnlock":
		if isMethod(obj, "sync", "RWMutex", sel.Sel.Name) {
			return exprKey(sel.X), sel.Sel.Name, true
		}
	}
	return "", "", false
}

// blockingCall returns a description when the call is known to block on
// time, another goroutine, or the network; "" otherwise. Matching is by
// package name + type + method so both the real packages and the
// testdata stand-ins are covered.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	obj := calleeOf(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() == nil {
		if isPkgFunc(obj, "time", "Sleep") {
			return "time.Sleep"
		}
		if fn.Pkg().Name() == "net" {
			switch fn.Name() {
			case "Dial", "DialTimeout", "Listen":
				return "net." + fn.Name()
			}
		}
		return ""
	}
	recv := namedType(sig.Recv().Type())
	if recv == nil || recv.Obj().Pkg() == nil {
		return ""
	}
	pkg, typ, m := recv.Obj().Pkg().Name(), recv.Obj().Name(), fn.Name()
	switch pkg {
	case "sync":
		if typ == "WaitGroup" && m == "Wait" {
			return "sync.WaitGroup.Wait"
		}
	case "vnfagent":
		// Every Client method is a NETCONF RPC; Pool.Do blocks on a
		// session token and then performs one.
		if typ == "Client" || (typ == "Pool" && m == "Do") {
			return "vnfagent RPC " + typ + "." + m
		}
	case "netconf":
		if typ == "Client" || typ == "Session" {
			return "NETCONF I/O " + typ + "." + m
		}
	case "pox":
		if typ == "Connection" {
			switch m {
			case "SendFlowMod", "Barrier", "FlowStats":
				return "OpenFlow I/O Connection." + m
			}
		}
	case "net":
		switch m {
		case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
			return "net I/O " + typ + "." + m
		}
	}
	return ""
}
