package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// packetLife enforces the data path's ownership discipline, one buffer
// per frame, in two halves.
//
// Packets: every packet obtained from click.NewPacket must, on every
// control-flow path, either be released back to the pool (Kill) or be
// handed off downstream (passed to a call, sent on a channel, returned,
// stored, or captured). A path on which the packet is simply abandoned
// strands a pool entry — the leak class the PR 1 drop paths hit, where an
// early return on a filter miss skipped the Kill.
//
// Frames: a []byte frame passed to ofswitch.Port.Transmit,
// click.Device.Send, netem.Port.Send or ofswitch.Switch.Input belongs to
// the receiver, which may edit it in place or pass it on. The sender must
// not read or write the variable afterwards in the same function unless
// it was reassigned in between; a sender that needs the bytes again
// copies before it sends.
var packetLife = &Analyzer{
	Name: "packetlife",
	Doc: "click packets must reach Kill or a downstream handoff on all " +
		"control-flow paths; a frame handed to Transmit, Device.Send, " +
		"Port.Send or Switch.Input is not used again",
	Run: runPacketLife,
}

func runPacketLife(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkPacketBody(pass, body)
			checkFrameHandoffs(pass, body)
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
				pass.reportf(call.Pos(), "packet created and discarded without Kill")
				continue
			}
			if packetMayLeak(pass.Info, g, blk, i, v) {
				pass.reportf(call.Pos(), "packet %s may leak: no Kill or handoff on some path to return", v.Name())
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
// ownership of v: a Kill call on it, passing it (or &v) directly
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
				if sel.Sel.Name == "Kill" {
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

// checkFrameHandoffs reports every use of a frame variable on a path after
// a statement that hands it off, up to a reassignment of the variable.
func checkFrameHandoffs(pass *Pass, body *ast.BlockStmt) {
	g := buildCFG(body)
	if !g.ok {
		return
	}
	reported := map[*ast.Ident]bool{}
	for _, blk := range g.blocks {
		for i, stmt := range blk.stmts {
			for _, h := range frameHandoffs(pass.Info, stmt) {
				use := frameUseAfter(pass.Info, g, blk, i, h.v)
				if use != nil && !reported[use] {
					reported[use] = true
					pass.reportf(use.Pos(), "frame %s used after it was handed to %s, which owns it now", h.v.Name(), h.to)
				}
			}
		}
	}
}

type frameHandoff struct {
	v  *types.Var
	to string
}

// frameHandoffs lists the frame variables stmt gives away: a plain
// variable in the frame position of a call to one of the receivers that
// take ownership. Function literals are left to their own pass.
func frameHandoffs(info *types.Info, stmt ast.Stmt) []frameHandoff {
	var out []frameHandoff
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			// A deferred send happens at exit, after every later use.
			return false
		case *ast.CallExpr:
			arg, to := frameArg(info, n)
			if arg < 0 || arg >= len(n.Args) {
				return true
			}
			if id, ok := ast.Unparen(n.Args[arg]).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					out = append(out, frameHandoff{v: v, to: to})
				}
			}
		}
		return true
	})
	return out
}

// frameArg returns the index of the frame argument of a call that hands a
// frame to a new owner, and the receiver's name; -1 for any other call.
func frameArg(info *types.Info, call *ast.CallExpr) (int, string) {
	obj := calleeOf(info, call)
	switch {
	case isMethod(obj, "netem", "Port", "Send"):
		return 0, "netem.Port.Send"
	case isMethod(obj, "click", "Device", "Send"):
		return 0, "click.Device.Send"
	case isMethod(obj, "ofswitch", "Switch", "Input"):
		return 1, "ofswitch.Switch.Input"
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() && v.Name() == "Transmit" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && isNamed(s.Recv(), "ofswitch", "Port") {
				return 0, "ofswitch.Port.Transmit"
			}
		}
	}
	return -1, ""
}

// frameUseAfter returns the first mention of v on some path from the
// statement after start.stmts[idx], where no assignment to v comes first;
// nil when every path reassigns v or never mentions it again.
func frameUseAfter(info *types.Info, g *funcCFG, start *cfgBlock, idx int, v *types.Var) *ast.Ident {
	// scan reports a use, or whether the statements reassign v first.
	scan := func(stmts []ast.Stmt) (use *ast.Ident, killed bool) {
		for _, s := range stmts {
			if use, killed = frameMention(info, s, v); use != nil || killed {
				return use, killed
			}
		}
		return nil, false
	}
	if use, killed := scan(start.stmts[idx+1:]); use != nil || killed {
		return use
	}
	visited := map[*cfgBlock]bool{}
	var dfs func(b *cfgBlock) *ast.Ident
	dfs = func(b *cfgBlock) *ast.Ident {
		if visited[b] {
			return nil
		}
		visited[b] = true
		use, killed := scan(b.stmts)
		if use != nil || killed {
			return use
		}
		for _, succ := range b.succs {
			if use := dfs(succ); use != nil {
				return use
			}
		}
		return nil
	}
	for _, succ := range start.succs {
		if use := dfs(succ); use != nil {
			return use
		}
	}
	return nil
}

// frameMention reports the first read or write of v in stmt, or whether
// stmt assigns v afresh without reading it (`v = ...`, `v, err := ...`,
// a range head rebinding its variables).
func frameMention(info *types.Info, stmt ast.Stmt, v *types.Var) (*ast.Ident, bool) {
	is := func(id *ast.Ident) bool { return info.Uses[id] == v || info.Defs[id] == v }
	var use *ast.Ident
	find := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && use == nil && is(id) {
				use = id
			}
			return use == nil
		})
	}
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		find(stmt)
		return use, false
	}
	for _, r := range as.Rhs {
		find(r)
	}
	killed := false
	for _, l := range as.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && is(id) {
			killed = true
		} else {
			find(l)
		}
	}
	if use != nil {
		return use, false
	}
	return nil, killed
}
