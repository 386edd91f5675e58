package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// callerAllowlist is the checked-in list of exported identifiers that no
// non-test code calls, relative to the repository root: one "identifier
// reason" line each, the identifier an import path and a name
// (uniask/internal/vector.NewExhaustive, uniask/internal/rerank.Reranker.Score)
// or a bare import path that covers its whole package.
const callerAllowlist = "cmd/doccheck/uncalled.txt"

// callerDrift runs the caller census on the loaded module and compares
// it with the allowlist, both ways: it returns one message per uncalled
// identifier the allowlist does not cover, per allowlist line that covers
// none, and per line that gives no reason.
func callerDrift(c *census) ([]string, error) {
	found := c.uncalled()
	lines, drift, err := readAllowlist(c.root, callerAllowlist)
	if err != nil {
		return nil, err
	}
	covers := map[string]int{} // allowlisted identifier or package → uncalled identifiers it covers
	for _, id := range lines {
		covers[id] = 0
	}
	for _, id := range found {
		slash := strings.LastIndex(id, "/") + 1
		pkg := id[:slash+strings.Index(id[slash:], ".")]
		if n, ok := covers[id]; ok {
			covers[id] = n + 1
		} else if n, ok := covers[pkg]; ok {
			covers[pkg] = n + 1
		} else {
			drift = append(drift, fmt.Sprintf("%s has no caller outside tests and is not in %s", id, callerAllowlist))
		}
	}
	for id, n := range covers {
		if n == 0 {
			drift = append(drift, fmt.Sprintf("%s lists %s, which is called or gone", callerAllowlist, id))
		}
	}
	sort.Strings(drift)
	return drift, nil
}

// uncalled returns the exported functions, methods and interface methods
// declared outside bench/ that no non-test code uses, sorted. bench/ is a
// caller like any other package; only its own declarations are not
// audited.
//
// A use inside the function's own body does not count. A method also
// counts as used when an interface method of the same name and an
// identical signature is used anywhere, since a call through that
// interface may reach it, and when its type satisfies an interface of the
// standard library that has the method (sort.Interface, error,
// http.Handler, the Unwrap that errors.Is follows, ...), since the library
// calls it.
func (c *census) uncalled() []string {
	type decl struct {
		id string
		fn *types.Func
	}
	var decls []decl
	used := map[*types.Func]bool{}
	var ifaceUsed []*types.Func // interface methods used anywhere
	var named []*types.Named    // audited package-level types
	for _, p := range c.order {
		audited := p.rel != "bench" && !strings.HasPrefix(p.rel, "bench/")
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = c.info.Defs[fd.Name]
					if audited && fd.Name.IsExported() {
						decls = append(decls, decl{p.path + "." + funcName(fd), self.(*types.Func)})
					}
				}
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE && audited {
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						if n, ok := c.info.Defs[ts.Name].Type().(*types.Named); ok && n.TypeParams() == nil {
							named = append(named, n)
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, m := range it.Methods.List {
							for _, name := range m.Names {
								if name.IsExported() {
									decls = append(decls, decl{p.path + "." + ts.Name.Name + "." + name.Name, c.info.Defs[name].(*types.Func)})
								}
							}
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := c.info.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					fn = fn.Origin()
					if !used[fn] && isInterfaceMethod(fn) {
						ifaceUsed = append(ifaceUsed, fn)
					}
					used[fn] = true
					return true
				})
			}
		}
	}

	// Methods the standard library calls through its own interfaces.
	std := c.stdInterfaces()
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		for _, iface := range std {
			if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), iface.Method(i).Name()); obj != nil {
					used[obj.(*types.Func)] = true
				}
			}
		}
	}

	var out []string
	for _, d := range decls {
		if used[d.fn] || (!isInterfaceMethod(d.fn) && matchesUsedInterface(d.fn, ifaceUsed)) {
			continue
		}
		out = append(out, d.id)
	}
	sort.Strings(out)
	return out
}

// isInterfaceMethod reports whether fn is declared in an interface.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// matchesUsedInterface reports whether method fn has the name and the
// signature of one of the used interface methods, and its receiver type,
// or a pointer to it, implements that method's interface.
func matchesUsedInterface(fn *types.Func, used []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	for _, m := range used {
		if recv == nil || m.Name() != fn.Name() || !types.Identical(m.Type(), fn.Type()) {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
			return true
		}
	}
	return false
}

// census loads the packages of one module from source.
type census struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	info         *types.Info
	pkgs         map[string]*pkg // by import path; nil while being checked
	order        []*pkg          // in the order they finished checking
}

// pkg is one type-checked package of the module.
type pkg struct {
	path, rel string // import path; directory relative to the module root
	files     []*ast.File
	types     *types.Package
}

// loadModule type-checks every package of the module at root from its
// non-test files, with importer.Default() for the standard library: the
// one load both censuses read.
func loadModule(root string) (*census, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	c := &census{
		root: root, module: module,
		fset: token.NewFileSet(),
		std:  importer.Default(),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs: map[string]*pkg{},
	}
	if err := c.loadAll(); err != nil {
		return nil, err
	}
	return c, nil
}

// loadAll checks every directory of the module that holds non-test Go
// files, skipping testdata trees and directories whose name starts with
// "." or "_", as the go command does.
func (c *census) loadAll() error {
	return filepath.WalkDir(c.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != c.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(c.root, p)
		path := c.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err = c.Import(path); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
		}
		return err
	})
}

// Import parses and checks one package of the module from source, once,
// and resolves everything else through the standard library's export data.
func (c *census) Import(path string) (*types.Package, error) {
	if path != c.module && !strings.HasPrefix(path, c.module+"/") {
		return c.std.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.types, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, c.module), "/")
	if rel == "" {
		rel = "."
	}
	bp, err := build.ImportDir(filepath.Join(c.root, filepath.FromSlash(rel)), 0)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = nil
	p := &pkg{path: path, rel: rel}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(c.root, filepath.FromSlash(rel), name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: c}
	if p.types, err = conf.Check(path, c.fset, p.files, c.info); err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	c.order = append(c.order, p)
	return p.types, nil
}

// errorChain lists the unnamed interfaces errors.Is, errors.As and
// errors.Unwrap look for, and error itself.
var errorChain = []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"}

// stdInterfaces lists errorChain and every exported, non-generic interface
// type of the standard-library packages the module imports, directly or not.
func (c *census) stdInterfaces() []*types.Interface {
	var ifaces []*types.Interface
	for _, expr := range errorChain {
		tv, err := types.Eval(c.fset, nil, token.NoPos, expr)
		if err != nil {
			panic(err)
		}
		ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, imp := range tp.Imports() {
			visit(imp)
		}
		if _, own := c.pkgs[tp.Path()]; own {
			return
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
				if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, p := range c.order {
		visit(p.types)
	}
	return ifaces
}
