package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// tolerantIO enforces the tolerant-teardown discipline: control-plane
// calls (NETCONF RPCs, OpenFlow mods, steering) return errors that MUST
// be looked at, and teardown/heal paths must use the tolerant variants
// that keep going past dead switches instead of the strict ones that
// abort mid-cleanup. The motivating bug: a strict sendMods in a rollback
// aborted on the first dead switch and left half the chain's flow
// entries installed. An explicit `_ = call()` is the sanctioned
// escape hatch — it is visible in review and greppable — whereas a bare
// call statement silently discards the error.
var tolerantIO = &Analyzer{
	Name: "tolerantio",
	Doc: "control-plane errors must not be silently discarded; teardown " +
		"paths must use tolerant call variants",
	Run: runTolerantIO,
}

// controlPlaneTypes are the types whose methods talk to the network
// control plane. Close is exempt: shutdown paths close best-effort.
var controlPlaneTypes = map[[2]string]bool{
	{"vnfagent", "Client"}:   true,
	{"vnfagent", "Pool"}:     true,
	{"netconf", "Client"}:    true,
	{"netconf", "Session"}:   true,
	{"pox", "Connection"}:    true,
	{"steering", "Steering"}: true,
}

// strictVariants maps strict control-plane calls to the tolerant
// variant teardown paths must use instead.
var strictVariants = map[[3]string]string{
	{"steering", "Steering", "sendMods"}: "sendModsTolerant",
}

// teardownName matches functions that are teardown/heal paths by
// naming convention.
var teardownName = regexp.MustCompile(`(?i)teardown|undeploy|rollback|cleanup|heal|stop|remove|destroy|fail`)

func runTolerantIO(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkDiscards(pass, body)
			if teardownName.MatchString(name) {
				checkStrictVariants(pass, name, body)
			}
		})
	}
	return nil
}

// controlPlaneCallee resolves a call to (typeName, methodName) when it
// is an error-returning method on a control-plane type.
func controlPlaneCallee(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	obj := calleeOf(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", false
	}
	recv := namedType(sig.Recv().Type())
	if recv == nil || recv.Obj().Pkg() == nil {
		return "", "", false
	}
	key := [2]string{recv.Obj().Pkg().Name(), recv.Obj().Name()}
	if !controlPlaneTypes[key] || fn.Name() == "Close" || !returnsError(obj) {
		return "", "", false
	}
	return recv.Obj().Name(), fn.Name(), true
}

// checkDiscards flags bare expression statements that drop the error of
// a control-plane call on the floor.
func checkDiscards(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed as its own body by funcBodies
		}
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		if typ, m, ok := controlPlaneCallee(pass.Info, call); ok {
			pass.reportf(call.Pos(), "error from control-plane call %s.%s silently discarded; handle it, or write `_ = ...` with a comment saying why it is safe to ignore", typ, m)
		}
		return true
	})
}

// checkStrictVariants flags strict control-plane calls inside
// teardown-named functions.
func checkStrictVariants(pass *Pass, name string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeOf(pass.Info, call)
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		recv := namedType(sig.Recv().Type())
		if recv == nil || recv.Obj().Pkg() == nil {
			return true
		}
		key := [3]string{recv.Obj().Pkg().Name(), recv.Obj().Name(), fn.Name()}
		if tolerant, ok := strictVariants[key]; ok {
			pass.reportf(call.Pos(), "teardown path %s uses strict %s.%s; use %s so cleanup survives dead switches", name, recv.Obj().Name(), fn.Name(), tolerant)
		}
		return true
	})
}
