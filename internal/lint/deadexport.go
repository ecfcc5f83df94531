package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// deadExport keeps the exported surface to what the module's clients
// call. It is the one whole-module stage: it sees every package of the
// root module and of the modules beside it (bench/), whatever patterns
// escape-lint was given, and Run keeps what it reports in the targets.
//
// A package-level func, type, var or const, or a method, of a non-main
// package is reported "delete" when no non-test code uses it (unexported
// ones too; init and _ are exempt), and "unexport" when it is exported
// and no non-test code outside its package uses it.
//
// Uses are keyed by package path, receiver type and name, never by
// types.Object identity: the loader imports every package through
// export data, so a use in another package points at another object
// than the source-checked declaration. A method whose name is in the
// method set of any interface the universe can see (error, Stringer,
// io.Writer, the module's own seams) counts as used outside. A type
// counts as used outside when an outside package names it, selects a
// field or method on a value of it, or reaches it through the
// signature, type or exported fields of something it uses. Struct
// fields are out of scope: JSON and reflection read them.
var deadExport = &Analyzer{
	Name: "deadexport",
	Doc: "every declaration has a non-test use, and every export a " +
		"non-test use outside its package (whole module plus bench/)",
	Module: runDeadExport,
}

// declInfo is one package-level declaration or method.
type declInfo struct {
	id            *ast.Ident
	pkg           *Package
	obj           types.Object
	body          ast.Node // uses inside it are the declaration's own
	used, outside bool
}

// objKey names an object alike in every package: package path, the
// receiver type for a method, and name. Fields, locals and parameters
// have no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if n := namedType(fn.Type().(*types.Signature).Recv().Type()); n != nil {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func runDeadExport(universe []*Package, report func(Diagnostic)) error {
	decls := map[string]*declInfo{}
	receivers := map[*ast.Ident]bool{} // a receiver's type name is no use
	add := func(pkg *Package, id *ast.Ident, body ast.Node) {
		if key := objKey(pkg.Info.Defs[id]); key != "" && id.Name != "_" {
			decls[key] = &declInfo{id: id, pkg: pkg, obj: pkg.Info.Defs[id], body: body}
		}
	}
	for _, pkg := range universe {
		if pkg.Types.Name() == "main" {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					if d.Recv != nil || d.Name.Name != "init" {
						add(pkg, d.Name, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(pkg, s.Name, s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								add(pkg, name, s)
							}
						}
					}
				}
			}
		}
	}

	var work []*declInfo // newly used outside: what they reach is too
	mark := func(key, from string) {
		if d := decls[key]; d != nil {
			d.used = true
			if from != d.pkg.PkgPath && !d.outside {
				d.outside = true
				work = append(work, d)
			}
		}
	}
	ifaces := interfaceMethodNames(universe)
	for key, d := range decls {
		if fn, ok := d.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && ifaces[fn.Name()] {
			mark(key, "")
		}
	}
	for _, pkg := range universe {
		for id, obj := range pkg.Info.Uses {
			key := objKey(obj)
			d := decls[key]
			if d == nil || receivers[id] ||
				d.pkg.PkgPath == pkg.PkgPath && d.body.Pos() <= id.Pos() && id.Pos() < d.body.End() {
				continue
			}
			mark(key, pkg.PkgPath)
		}
		for _, sel := range pkg.Info.Selections {
			if n := namedType(sel.Recv()); n != nil {
				mark(objKey(n.Obj()), pkg.PkgPath)
			}
		}
	}
	seen := map[types.Type]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			mark(objKey(t.Obj()), "")
			for i := 0; i < t.TypeArgs().Len(); i++ {
				reach(t.TypeArgs().At(i))
			}
		case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
			if m, ok := t.(*types.Map); ok {
				reach(m.Key())
			}
			reach(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					reach(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					reach(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				reach(t.Method(i).Type())
			}
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := d.obj.(*types.TypeName); ok {
			reach(tn.Type().Underlying())
		} else {
			reach(d.obj.Type())
		}
	}

	keys := make([]string, 0, len(decls))
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := decls[k]
		pkg, name := d.pkg.Types.Name(), strings.TrimPrefix(k, d.pkg.PkgPath+".")
		var msg string
		switch {
		case !d.used:
			msg = fmt.Sprintf("%s.%s has no non-test use: delete it", pkg, name)
		case d.id.IsExported() && !d.outside:
			msg = fmt.Sprintf("%s.%s has no non-test use outside package %s: unexport it", pkg, name, pkg)
		default:
			continue
		}
		report(Diagnostic{Analyzer: "deadexport", Pos: d.pkg.Fset.Position(d.id.Pos()), Message: msg})
	}
	return nil
}

// interfaceMethodNames collects the method names of every interface the
// universe can see: its own, those of every package it imports
// transitively (so the standard library's io.Writer and http.Handler),
// interface literals, and error.
func interfaceMethodNames(universe []*Package) map[string]bool {
	names := map[string]bool{"Error": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range universe {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return names
}
