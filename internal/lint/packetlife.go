package lint

import (
	"go/ast"
	"go/types"
)

// PacketLife enforces the pooled-packet ownership discipline from
// internal/click: every packet obtained from click.NewPacket must, on
// every control-flow path, either be released back to the pool (Kill),
// have its buffer taken over (Detach), or be handed off downstream (passed
// to a call, sent on a channel, returned, stored, or captured). A path on which the packet is simply abandoned
// strands a pool buffer — the leak class the PR 1 drop paths hit, where
// an early return on a filter miss skipped the Kill.
var PacketLife = &Analyzer{
	Name: "packetlife",
	Doc: "click packets must reach Kill/Detach or a downstream handoff " +
		"on all control-flow paths",
	Run: runPacketLife,
}

func runPacketLife(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkPacketBody(pass, body)
		})
	}
	return nil
}

func checkPacketBody(pass *Pass, body *ast.BlockStmt) {
	g := buildCFG(body)
	if !g.ok {
		return
	}
	for _, blk := range g.blocks {
		for i, stmt := range blk.stmts {
			v, call := packetCreation(pass.Info, stmt)
			if call == nil {
				continue
			}
			if v == nil {
				// The packet is created and immediately dropped on the
				// floor (bare expression or assigned to _).
				pass.Reportf(call.Pos(), "packet created and discarded without Kill or Detach")
				continue
			}
			if packetMayLeak(pass.Info, g, blk, i, v) {
				pass.Reportf(call.Pos(), "packet %s may leak: no Kill, Detach or handoff on some path to return", v.Name())
			}
		}
	}
}

// packetCreation recognizes statements that bind a fresh packet.
// Returns (variable, call) for `p := click.NewPacket(...)` forms,
// (nil, call) when the fresh packet is discarded outright, and
// (nil, nil) otherwise. Creations nested inside larger expressions
// (`out.Push(click.NewPacket(d))`) are consumed by construction.
func packetCreation(info *types.Info, stmt ast.Stmt) (*types.Var, *ast.CallExpr) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return nil, nil
		}
		call := packetCreationCall(info, s.Rhs[0])
		if call == nil {
			return nil, nil
		}
		id, ok := s.Lhs[0].(*ast.Ident)
		if !ok {
			// Stored into a field or element: a handoff.
			return nil, nil
		}
		if id.Name == "_" {
			return nil, call
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, _ := obj.(*types.Var)
		if v == nil {
			return nil, nil
		}
		return v, call
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return nil, nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
				continue
			}
			call := packetCreationCall(info, vs.Values[0])
			if call == nil {
				continue
			}
			if v, ok := info.Defs[vs.Names[0]].(*types.Var); ok {
				return v, call
			}
		}
		return nil, nil
	case *ast.ExprStmt:
		return nil, packetCreationCall(info, s.X)
	}
	return nil, nil
}

// packetCreationCall reports whether e is exactly a click.NewPacket call.
func packetCreationCall(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	obj := calleeOf(info, call)
	if obj == nil {
		return nil
	}
	if isPkgFunc(obj, "click", "NewPacket") {
		return call
	}
	return nil
}

// packetMayLeak reports whether some path from the creation reaches the
// function exit without consuming v.
func packetMayLeak(info *types.Info, g *funcCFG, start *cfgBlock, createIdx int, v *types.Var) bool {
	// Remainder of the creation block first.
	for _, s := range start.stmts[createIdx+1:] {
		if consumesPacket(info, s, v) {
			return false
		}
	}
	visited := map[*cfgBlock]bool{}
	var dfs func(b *cfgBlock) bool
	dfs = func(b *cfgBlock) bool {
		if b == g.exit {
			return true
		}
		if visited[b] {
			return false
		}
		visited[b] = true
		for _, s := range b.stmts {
			if consumesPacket(info, s, v) {
				return false
			}
		}
		for _, succ := range b.succs {
			if dfs(succ) {
				return true
			}
		}
		return false
	}
	for _, succ := range start.succs {
		if dfs(succ) {
			return true
		}
	}
	return false
}

// consumesPacket reports whether the statement transfers or releases
// ownership of v: a Kill/Detach call on it, passing it (or &v) directly
// as a call argument, sending it, returning it, assigning it to
// anything (aliasing transfers responsibility to the alias's paths),
// placing it in a composite literal, or capturing it in a function
// literal. Reads like v.field or v.Clone() do NOT consume.
func consumesPacket(info *types.Info, stmt ast.Stmt, v *types.Var) bool {
	isV := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = ast.Unparen(u.X)
		}
		id, ok := e.(*ast.Ident)
		return ok && (info.Uses[id] == v || info.Defs[id] == v)
	}
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// Capture: if the literal's body mentions v at all, the
			// literal owns it now.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == v {
					found = true
				}
				return !found
			})
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isV(sel.X) {
				if sel.Sel.Name == "Kill" || sel.Sel.Name == "Detach" {
					found = true
					return false
				}
			}
			for _, arg := range n.Args {
				if isV(arg) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if isV(r) {
					found = true
					return false
				}
			}
		case *ast.ValueSpec:
			for _, r := range n.Values {
				if isV(r) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if isV(n.Value) {
				found = true
				return false
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isV(r) {
					found = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isV(el) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
