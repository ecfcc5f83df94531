package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// epochPin enforces the copy-on-write discipline around
// core.ResourceView (the PR 5 aliasing class):
//
//  1. A pin obtained from ResourceView.Snapshot is a read of one epoch.
//     After a Commit/Release (or an Admit* that commits internally) on
//     the same view, the pin describes a stale epoch and must not be
//     used — re-Snapshot instead. Using stale capacities is how a
//     double-spend admission slips through.
//  2. Published epoch state (anything reached through a viewState) is
//     immutable. Writes belong on fresh record chunks before publication;
//     writing through a viewState mutates an epoch other goroutines are
//     reading lock-free. The rule matches every assignment, increment and
//     delete whose target is reached through a viewState: an index, a
//     field of an array element, or a field of the state itself.
//  3. Methods documented to return shared storage (eeNamesShared,
//     hopDistancesShared) hand out aliases into memoized structures;
//     mutating, deleting from, appending to or sorting them corrupts
//     every other reader. Copy first.
var epochPin = &Analyzer{
	Name: "epochpin",
	Doc: "ResourceView snapshot pins must not outlive a commit on their " +
		"view; published epoch records and shared returns are read-only",
	Run: runEpochPin,
}

// invalidators are the ResourceView methods that advance the epoch.
var invalidators = map[string]bool{
	"Commit":            true,
	"Release":           true,
	"tryPublish":        true,
	"TryCommitMapping":  true,
	"TryCommitHealPlan": true,
	"AdmitAndCommit":    true,
	"AdmitHeal":         true,
}

// sharedReturns are methods returning aliases into shared storage.
var sharedReturns = map[string]bool{
	"eeNamesShared":      true,
	"hopDistancesShared": true,
}

func runEpochPin(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			w := &pinWalker{pass: pass, reported: map[token.Pos]bool{}}
			w.stmts(body.List, pinState{})
			checkSharedMutation(pass, body)
		})
		checkEpochWrites(pass, f)
	}
	return nil
}

// --- rule 1: stale pins ---

type pin struct {
	view    string // exprKey of the view the pin was taken from
	valid   bool
	killPos token.Pos // where the view committed past the pin
}

type pinState map[*types.Var]pin

func (s pinState) clone() pinState {
	c := make(pinState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

type pinWalker struct {
	pass     *Pass
	reported map[token.Pos]bool
}

func (w *pinWalker) stmts(list []ast.Stmt, pins pinState) pinState {
	for _, s := range list {
		pins = w.stmt(s, pins)
	}
	return pins
}

func (w *pinWalker) stmt(s ast.Stmt, pins pinState) pinState {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, pins)
	case *ast.IfStmt:
		if s.Init != nil {
			pins = w.stmt(s.Init, pins)
		}
		w.visitLinear(&ast.ExprStmt{X: s.Cond}, pins)
		thenPins := w.stmts(s.Body.List, pins.clone())
		elsePins := pins.clone()
		if s.Else != nil {
			elsePins = w.stmt(s.Else, elsePins)
		}
		return mergePins(thenPins, elsePins)
	case *ast.ForStmt:
		if s.Init != nil {
			pins = w.stmt(s.Init, pins)
		}
		if s.Cond != nil {
			w.visitLinear(&ast.ExprStmt{X: s.Cond}, pins)
		}
		// Twice: a commit at the bottom of the body invalidates a use
		// at the top of the next iteration.
		after := w.stmts(s.Body.List, pins.clone())
		w.stmts(s.Body.List, after)
		return mergePins(pins, after)
	case *ast.RangeStmt:
		w.visitLinear(&ast.ExprStmt{X: s.X}, pins)
		after := w.stmts(s.Body.List, pins.clone())
		w.stmts(s.Body.List, after)
		return mergePins(pins, after)
	case *ast.SwitchStmt:
		if s.Init != nil {
			pins = w.stmt(s.Init, pins)
		}
		return w.branchPins(caseBodies(s.Body), pins)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			pins = w.stmt(s.Init, pins)
		}
		return w.branchPins(caseBodies(s.Body), pins)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, cc := range s.Body.List {
			bodies = append(bodies, cc.(*ast.CommClause).Body)
		}
		return w.branchPins(bodies, pins)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, pins)
	default:
		return w.visitLinear(s, pins)
	}
}

func (w *pinWalker) branchPins(bodies [][]ast.Stmt, pins pinState) pinState {
	merged := pins.clone()
	for _, body := range bodies {
		merged = mergePins(merged, w.stmts(body, pins.clone()))
	}
	return merged
}

// mergePins joins branch outcomes: a pin invalidated on any branch is
// invalid afterwards.
func mergePins(a, b pinState) pinState {
	out := a.clone()
	for v, p := range b {
		if cur, ok := out[v]; !ok || (cur.valid && !p.valid) {
			out[v] = p
		}
	}
	return out
}

// visitLinear processes one straight-line statement: report uses of
// stale pins, then apply invalidations, then record new pins.
func (w *pinWalker) visitLinear(s ast.Stmt, pins pinState) pinState {
	info := w.pass.Info

	// A pin that is the direct target of an assignment is being
	// replaced, not read — `caps = rv.Snapshot()` is the fix, not a
	// stale use. (Writes through it, like caps.CPU[k] = v, still count.)
	assigned := map[*ast.Ident]bool{}
	if as, ok := s.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				assigned[id] = true
			}
		}
	}

	// 1. Uses of stale pins.
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || assigned[id] {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if p, pinned := pins[v]; pinned && !p.valid && !w.reported[id.Pos()] {
			w.reported[id.Pos()] = true
			w.pass.reportf(id.Pos(), "snapshot pin %s is stale: view %s committed at %s; take a fresh Snapshot", id.Name, p.view, w.pass.Fset.Position(p.killPos))
		}
		return true
	})

	// 2. Invalidating calls on a view.
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !invalidators[sel.Sel.Name] {
			return true
		}
		if !isNamed(info.Types[sel.X].Type, "core", "ResourceView") {
			return true
		}
		viewKey := exprKey(sel.X)
		for v, p := range pins {
			if p.valid && p.view == viewKey {
				pins[v] = pin{view: p.view, valid: false, killPos: call.Pos()}
			}
		}
		return true
	})

	// 3. New pins: x := view.Snapshot(), or y := pinnedVar.Clone().
	if as, ok := s.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				delete(pins, v) // overwritten with something else
				continue
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				delete(pins, v)
				continue
			}
			switch {
			case sel.Sel.Name == "Snapshot" && isNamed(info.Types[sel.X].Type, "core", "ResourceView"):
				pins[v] = pin{view: exprKey(sel.X), valid: true}
			case sel.Sel.Name == "clone":
				// Cloning a pin yields a pin of the same epoch.
				if src, ok := info.Uses[baseIdent(sel.X)].(*types.Var); ok {
					if p, pinned := pins[src]; pinned {
						pins[v] = p
						continue
					}
				}
				delete(pins, v)
			default:
				delete(pins, v)
			}
		}
	}
	return pins
}

func baseIdent(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// --- rule 2: writes through published epoch state ---

// checkEpochWrites flags writes and deletes whose target is reached
// through a core.viewState: that is published, immutable epoch data.
func checkEpochWrites(pass *Pass, f *ast.File) {
	info := pass.Info
	report := func(pos token.Pos) {
		pass.reportf(pos, "write through a published viewState epoch; epochs are immutable once published — build fresh records and publish them")
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if holder := writeHolder(lhs); holder != nil && chainHasViewState(info, holder) {
					report(lhs.Pos())
				}
			}
		case *ast.IncDecStmt:
			if holder := writeHolder(n.X); holder != nil && chainHasViewState(info, holder) {
				report(n.Pos())
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				if chainHasViewState(info, n.Args[0]) {
					report(n.Pos())
				}
			}
		}
		return true
	})
}

// writeHolder is the value an assignment to target writes into: the
// indexed map, slice or array, the struct of a field, the pointee. A bare
// identifier rebinds a variable and writes into nothing.
func writeHolder(target ast.Expr) ast.Expr {
	switch t := ast.Unparen(target).(type) {
	case *ast.IndexExpr:
		return t.X
	case *ast.SelectorExpr:
		return t.X
	case *ast.StarExpr:
		return t.X
	}
	return nil
}

// chainHasViewState reports whether e or any prefix of its selector
// chain has type core.viewState.
func chainHasViewState(info *types.Info, e ast.Expr) bool {
	for {
		e = ast.Unparen(e)
		if isNamed(info.Types[e].Type, "core", "viewState") {
			return true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			if id, ok := e.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					return isNamed(v.Type(), "core", "viewState")
				}
			}
			return false
		}
	}
}

// --- rule 3: mutation of shared read-only returns ---

func checkSharedMutation(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info

	// Collect variables bound to shared-return calls.
	shared := map[*types.Var]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !sharedReturns[sel.Sel.Name] {
				continue
			}
			obj := calleeOf(info, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "core" {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if v, ok := objVar(info, id); ok {
					shared[v] = sel.Sel.Name
				}
			}
		}
		return true
	})
	if len(shared) == 0 {
		return
	}

	isShared := func(e ast.Expr) (string, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return "", false
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return "", false
		}
		m, ok := shared[v]
		return m, ok
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if m, ok := isShared(ix.X); ok {
						pass.reportf(lhs.Pos(), "mutating result of %s, which returns shared read-only storage; copy it first", m)
					}
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if (fun.Name == "delete" || fun.Name == "append") && len(n.Args) > 0 {
					if m, ok := isShared(n.Args[0]); ok {
						pass.reportf(n.Pos(), "%s on result of %s, which returns shared read-only storage; copy it first", fun.Name, m)
					}
				}
			case *ast.SelectorExpr:
				if obj := info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "sort" && len(n.Args) > 0 {
					if m, ok := isShared(n.Args[0]); ok {
						pass.reportf(n.Pos(), "sorting result of %s in place, which returns shared read-only storage; copy it first", m)
					}
				}
			}
		}
		return true
	})
}

func objVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}
