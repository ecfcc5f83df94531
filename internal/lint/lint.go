// Package lint is escape-lint: a suite of static analyzers enforcing the
// concurrency and ownership invariants this codebase has already been
// burned by, and one whole-module stage that keeps the exported surface
// to what the module's clients call. The framework mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built on the standard library
// only: packages are enumerated with `go list -export -deps -json`,
// targets are type-checked from source, and dependencies are imported
// from the build cache's export data — no module downloads required.
//
// The analyzers (see their files for the invariant and the historical
// bug class that motivated each):
//
//   - packetlife: every click.NewPacket must reach Kill or a
//     downstream handoff on all control-flow paths (the pooled
//     allocator leak class from the PR 1 drop paths), and a frame
//     handed to Port.Transmit, Device.Send, netem Port.Send or
//     Switch.Input is not read or written again by its sender.
//   - sendunderlock: no blocking channel operation or blocking
//     control-plane I/O while holding a sync.Mutex/RWMutex (the
//     send-on-closed-channel and net.Pipe deadlock class from PR 4).
//   - epochpin: a ResourceView.Snapshot pin must not be used after a
//     Commit/Release on the same view, published epoch maps are
//     read-only, and shared read-only returns must not be mutated (the
//     COW aliasing class from PR 5).
//   - tolerantio: teardown/heal paths must use the tolerant variants of
//     control-plane calls and must not silently discard their errors.
//   - deadexport: every declaration has a non-test use and every export
//     a non-test use outside its package, counted over the root module
//     and bench/ (see deadexport.go). It is the one Module analyzer: it
//     sees LoadModules' universe, whatever the target patterns.
//
// False positives are suppressed with a directive on the offending line
// or the line directly above it:
//
//	//lint:ignore packetlife ownership is transferred via the ring
//
// The directive names one analyzer, a comma-separated list, or "all",
// followed by a mandatory reason. In the doc comment of a parenthesized
// const, var or type block it covers the block; in the package doc
// comment, the whole file.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one invariant checker, go/analysis style.
type Analyzer struct {
	// Name identifies the analyzer in reports and ignore directives.
	Name string
	// Doc is the one-paragraph invariant statement shown by -list.
	Doc string
	// Run inspects one package and reports violations on the pass.
	Run func(*Pass) error
	// Module, set instead of Run, inspects the whole universe at once
	// and reports anywhere in it.
	Module func(universe []*Package, report func(Diagnostic)) error
}

// Pass carries one analyzed package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// reportf records one violation at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way compilers do, so editors can
// jump to it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All is the escape-lint suite in reporting order.
var All = []*Analyzer{
	packetLife,
	sendUnderLock,
	epochPin,
	tolerantIO,
	deadExport,
}

// Run applies the analyzers to every target package and returns the
// surviving diagnostics (ignore directives applied), sorted by
// position. A whole-module analyzer sees the universe but reports only
// in the targets' files.
func Run(targets, universe []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ignores := ignoreSet{}
	for _, pkg := range targets {
		collectIgnores(pkg, ignores)
	}
	var out []Diagnostic
	report := func(d Diagnostic) {
		if _, target := ignores[d.Pos.Filename]; target && !ignores.suppresses(d) {
			out = append(out, d)
		}
	}
	for _, a := range analyzers {
		if a.Module == nil {
			continue
		}
		if err := a.Module(universe, report); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	for _, pkg := range targets {
		if err := runPackage(pkg, analyzers, report); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Analyzer, b.Analyzer))
	})
	return out, nil
}

// runPackage applies the per-package analyzers to one package.
func runPackage(pkg *Package, analyzers []*Analyzer, report func(Diagnostic)) error {
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report:   report,
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	return nil
}

// ignoreSet maps each target file to the ignore directives in it.
type ignoreSet map[string][]ignore

// ignore is one directive: the analyzer names it covers over a line
// range.
type ignore struct {
	names    []string
	from, to int
}

// collectIgnores adds a package's //lint:ignore directives to set. A
// directive covers its own line and the next one; in the doc comment of
// a parenthesized const, var or type block it covers the block, and in
// the package clause's doc comment the whole file.
func collectIgnores(pkg *Package, set ignoreSet) {
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Package).Filename
		set[fname] = nil
		blocks := map[int]int{} // a doc comment line -> the last line it covers
		cover := func(doc *ast.CommentGroup, start token.Pos, end int) {
			from := pkg.Fset.Position(start).Line - 1
			if doc != nil {
				from = pkg.Fset.Position(doc.Pos()).Line
			}
			for line := from; line < pkg.Fset.Position(start).Line; line++ {
				blocks[line] = end
			}
		}
		cover(f.Doc, f.Package, pkg.Fset.File(f.Package).LineCount())
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Lparen.IsValid() {
				cover(gd.Doc, gd.Pos(), pkg.Fset.Position(gd.End()).Line)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) < 2 {
					// A directive without a reason is ignored itself: the
					// reason is what makes a suppression auditable.
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				to := line + 1
				if end, ok := blocks[line]; ok {
					to = end
				}
				set[fname] = append(set[fname], ignore{strings.Split(fields[0], ","), line, to})
			}
		}
	}
}

// suppresses reports whether a directive covering the diagnostic's line
// names this analyzer (or "all").
func (s ignoreSet) suppresses(d Diagnostic) bool {
	for _, ig := range s[d.Pos.Filename] {
		if d.Pos.Line < ig.from || d.Pos.Line > ig.to {
			continue
		}
		for _, name := range ig.names {
			if name == "all" || name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// namedType unwraps pointers and aliases and returns the named type of
// t, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named
// type pkgName.typeName. Matching is by package NAME, not full import
// path, so the analysistest corpora can declare structural stand-ins in
// packages with the same name (exactly how x/tools testdata works).
func isNamed(t types.Type, pkgName, typeName string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// calleeOf resolves the object a call expression invokes (function or
// method), or nil for calls through function values / built-ins.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isMethod reports whether obj is the method pkgName.typeName.method.
func isMethod(obj types.Object, pkgName, typeName, method string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgName, typeName)
}

// isPkgFunc reports whether obj is the package-level function
// pkgName.name.
func isPkgFunc(obj types.Object, pkgName, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Name() != pkgName {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// returnsError reports whether obj's signature includes an error result.
func returnsError(obj types.Object) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if res.At(i).Type().String() == "error" {
			return true
		}
	}
	return false
}

// exprKey renders an expression to a stable string key (receiver
// identity for lock/view tracking). Good enough for selector chains and
// identifiers, which is what lock and view receivers look like.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[" + exprKey(e.Index) + "]"
	case *ast.CallExpr:
		return exprKey(e.Fun) + "()"
	case *ast.StarExpr:
		return "*" + exprKey(e.X)
	case *ast.BasicLit:
		return e.Value
	case *ast.UnaryExpr:
		return e.Op.String() + exprKey(e.X)
	}
	return fmt.Sprintf("?%T", e)
}

// funcBodies yields every function body in the file with its name: the
// declared functions plus each function literal (analyzed independently
// — a literal usually runs on another goroutine or as a callback, so it
// does not inherit the enclosing lock or ownership context).
func funcBodies(f *ast.File, visit func(name string, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd.Name.Name, fd.Body)
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(name+".func", lit.Body)
			}
			return true
		})
	}
}
