package lint

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one straight-line run of statements in a function body's
// control-flow graph. Condition and range expressions are wrapped in
// synthetic ExprStmts so analyzers scan them like any other statement.
type cfgBlock struct {
	stmts []ast.Stmt
	succs []*cfgBlock
}

// funcCFG is the mini control-flow graph packetlife traverses. It is
// deliberately small: enough structure to answer "does a path from here
// reach the function exit", which is all the leak check needs.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
	// ok is false when the body uses goto; rather than model arbitrary
	// jumps the analysis skips such functions.
	ok bool
}

type loopFrame struct {
	brk   *cfgBlock
	cont  *cfgBlock
	label string
}

type cfgBuilder struct {
	g     *funcCFG
	cur   *cfgBlock
	loops []loopFrame
	label string
	bad   bool
}

// buildCFG lowers a function body to basic blocks. Paths that end in
// panic / os.Exit / runtime.Goexit dead-end instead of reaching exit:
// the process (or goroutine) dies there, so nothing "leaks past" it.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	b.jump(g.exit)
	g.ok = !b.bad
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) jump(to *cfgBlock) {
	b.cur.succs = append(b.cur.succs, to)
}

// startUnreachable begins a fresh block with no predecessors, used
// after terminators so trailing statements don't leak edges.
func (b *cfgBuilder) startUnreachable() {
	b.cur = &cfgBlock{}
	// Not registered in g.blocks: unreachable code cannot host a
	// reportable path.
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// condStmt wraps an expression as a synthetic statement for scanning.
func condStmt(e ast.Expr) ast.Stmt {
	if e == nil {
		return nil
	}
	return &ast.ExprStmt{X: e}
}

func (b *cfgBuilder) append(s ast.Stmt) {
	if s != nil {
		b.cur.stmts = append(b.cur.stmts, s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.append(s.Init)
		b.append(condStmt(s.Cond))
		after := b.newBlock()
		thenB := b.newBlock()
		b.jump(thenB)
		if s.Else != nil {
			elseB := b.newBlock()
			b.jump(elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.jump(after)
		} else {
			b.jump(after)
		}
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.jump(after)
		b.cur = after

	case *ast.ForStmt:
		b.append(s.Init)
		label := b.takeLabel()
		head := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.jump(head)
		b.cur = head
		b.append(condStmt(s.Cond))
		if s.Cond != nil {
			b.jump(after)
		}
		bodyB := b.newBlock()
		b.jump(bodyB)
		b.cur = bodyB
		b.pushLoop(loopFrame{brk: after, cont: post, label: label})
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(post)
		b.cur = post
		b.append(s.Post)
		b.jump(head)
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		after := b.newBlock()
		b.append(condStmt(s.X))
		b.jump(head)
		b.cur = head
		if s.Key != nil || s.Value != nil {
			// Each time round, the head binds the iteration variables
			// afresh: a synthetic assignment with no right-hand side.
			rebind := &ast.AssignStmt{Tok: token.ASSIGN, TokPos: s.For}
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if e != nil {
					rebind.Lhs = append(rebind.Lhs, e)
				}
			}
			b.append(rebind)
		}
		b.jump(after)
		bodyB := b.newBlock()
		b.jump(bodyB)
		b.cur = bodyB
		b.pushLoop(loopFrame{brk: after, cont: head, label: label})
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(head)
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			b.append(sw.Init)
			b.append(condStmt(sw.Tag))
			body = sw.Body
		case *ast.TypeSwitchStmt:
			b.append(sw.Init)
			b.append(sw.Assign)
			body = sw.Body
		}
		label := b.takeLabel()
		after := b.newBlock()
		entry := b.cur
		hasDefault := false
		caseBlocks := make([]*cfgBlock, len(body.List))
		for i := range body.List {
			caseBlocks[i] = b.newBlock()
		}
		for i, cc := range body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				hasDefault = true
			}
			entry.succs = append(entry.succs, caseBlocks[i])
			b.cur = caseBlocks[i]
			for _, e := range clause.List {
				b.append(condStmt(e))
			}
			b.pushLoop(loopFrame{brk: after, label: label})
			stmts := clause.Body
			fallsThrough := false
			if n := len(stmts); n > 0 {
				if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					stmts = stmts[:n-1]
					fallsThrough = true
				}
			}
			b.stmtList(stmts)
			b.popLoop()
			if fallsThrough && i+1 < len(caseBlocks) {
				b.jump(caseBlocks[i+1])
			} else {
				b.jump(after)
			}
		}
		if !hasDefault {
			entry.succs = append(entry.succs, after)
		}
		b.cur = after

	case *ast.SelectStmt:
		label := b.takeLabel()
		after := b.newBlock()
		entry := b.cur
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			cb := b.newBlock()
			entry.succs = append(entry.succs, cb)
			b.cur = cb
			b.append(clause.Comm)
			b.pushLoop(loopFrame{brk: after, label: label})
			b.stmtList(clause.Body)
			b.popLoop()
			b.jump(after)
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.append(s)
		b.jump(b.g.exit)
		b.startUnreachable()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findLoop(s.Label); t != nil && t.brk != nil {
				b.jump(t.brk)
			}
			b.startUnreachable()
		case token.CONTINUE:
			if t := b.findLoop(s.Label); t != nil && t.cont != nil {
				b.jump(t.cont)
			}
			b.startUnreachable()
		case token.GOTO:
			b.bad = true
			b.startUnreachable()
		}

	case *ast.LabeledStmt:
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = ""

	case *ast.ExprStmt:
		b.append(s)
		if isTerminalCall(s.X) {
			b.startUnreachable()
		}

	default:
		// Assign, Decl, Send, IncDec, Defer, Go, Empty: straight-line.
		b.append(s)
	}
}

func (b *cfgBuilder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *cfgBuilder) pushLoop(f loopFrame) { b.loops = append(b.loops, f) }
func (b *cfgBuilder) popLoop()             { b.loops = b.loops[:len(b.loops)-1] }

func (b *cfgBuilder) findLoop(label *ast.Ident) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if label == nil || b.loops[i].label == label.Name {
			return &b.loops[i]
		}
	}
	return nil
}

// isTerminalCall reports whether e is a call that never returns.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln":
			return true
		}
	}
	return false
}
