package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// fieldAllowlist is the checked-in list of what the field census would
// report, relative to the repository root: one "identifier reason" line
// each, the identifier an import path, a type name and a field name, or an
// import path and a type name whose reachable fields all count as read (a
// type that reaches an encoder untagged).
const fieldAllowlist = "cmd/doccheck/unread.txt"

// fieldDrift runs the field census on the loaded module and compares it
// with the allowlist, both ways: it returns one message per unread field
// the allowlist does not cover, per line that covers none (a listed field
// that is read or gone, a listed type that reaches no otherwise unread
// field), and per line that gives no reason.
func fieldDrift(c *census) ([]string, error) {
	f := c.fieldReads()
	ids, drift, err := readAllowlist(c.root, fieldAllowlist)
	if err != nil {
		return nil, err
	}
	listed := map[string]bool{} // listed field → found unread
	for _, id := range ids {
		if tn := c.lookupType(id); tn == nil {
			listed[id] = false
		} else if n := len(f.read); f.reach(tn.Type()) == n {
			drift = append(drift, fmt.Sprintf("%s lists %s, which reaches no unread field", fieldAllowlist, id))
		}
	}
	for v, id := range f.fields {
		if _, ok := listed[id]; ok && !f.read[v] {
			listed[id] = true
		} else if !f.read[v] {
			drift = append(drift, fmt.Sprintf("%s is written but never read outside tests and is not in %s", id, fieldAllowlist))
		}
	}
	for id, unread := range listed {
		if !unread {
			drift = append(drift, fmt.Sprintf("%s lists %s, which is read or gone", fieldAllowlist, id))
		}
	}
	sort.Strings(drift)
	return drift, nil
}

// readAllowlist reads the allowlist at root/name: the identifier of every
// line that is neither blank nor a comment, in order, and one message per
// line that gives no reason.
func readAllowlist(root, name string) (ids, drift []string, err error) {
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		return nil, nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) == 1 {
			drift = append(drift, fmt.Sprintf("%s: %s gives no reason", name, fields[0]))
		}
		ids = append(ids, fields[0])
	}
	return ids, drift, nil
}

// fieldCensus is the state of the field census: every audited field, by
// its identifier, and every field that counts as read.
type fieldCensus struct {
	c      *census
	fields map[*types.Var]string
	read   map[*types.Var]bool
	seen   map[types.Type]bool // types reach has walked
}

// fieldReads collects the struct fields declared outside bench/ and marks
// the ones non-test code reads. A field counts as written, not read, where
// it is the selector on the left of a plain assignment or a key of a
// composite literal; any other use reads it, and a promoted access reads
// the embedded fields it passes through. An embedded field whose type has
// methods counts as read, since a call through an interface the struct
// satisfies by them reaches it unseen. A json-tagged field counts as read
// with every field its type reaches, since the encoder reads them; so does
// every field of a map key, since the map compares them.
func (c *census) fieldReads() *fieldCensus {
	f := &fieldCensus{c: c, fields: map[*types.Var]string{}, read: map[*types.Var]bool{}, seen: map[types.Type]bool{}}
	for _, p := range c.order {
		if p.rel != "bench" && !strings.HasPrefix(p.rel, "bench/") {
			f.declare(p.path, p.types.Scope())
		}
		for _, file := range p.files {
			f.readFile(file)
		}
	}
	return f
}

// declare records the fields of every struct type scope and the scopes
// inside it name, as path.Type.Field.
func (f *fieldCensus) declare(path string, scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			f.declareStruct(path+"."+name, tn.Type().Underlying())
		}
	}
	for i := 0; i < scope.NumChildren(); i++ {
		f.declare(path, scope.Child(i))
	}
}

// declareStruct records the fields of t, when it is a struct, as
// name.Field, and those of a literal struct type inside as
// name.Field.Sub.
func (f *fieldCensus) declareStruct(name string, t types.Type) {
	s, ok := t.(*types.Struct)
	for i := 0; ok && i < s.NumFields(); i++ {
		v := s.Field(i)
		f.fields[v] = name + "." + v.Name()
		if key, ok := reflect.StructTag(s.Tag(i)).Lookup("json"); ok && key != "-" {
			f.read[v] = true
			f.reach(v.Type())
		} else if v.Embedded() && (types.NewMethodSet(v.Type()).Len() > 0 || types.NewMethodSet(types.NewPointer(v.Type())).Len() > 0) {
			f.read[v] = true
		}
		f.declareStruct(name+"."+v.Name(), v.Type())
	}
}

// readFile marks the fields file reads.
func (f *fieldCensus) readFile(file *ast.File) {
	written := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && n.Tok == token.ASSIGN {
					written[sel.Sel] = true
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				written[id] = true
			}
		case *ast.SelectorExpr: // the embedded fields a promoted selection passes through
			if sel, ok := f.c.info.Selections[n]; ok {
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					s, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					f.read[s.Field(i).Origin()] = true
					t = s.Field(i).Type()
				}
			}
		case *ast.MapType:
			ast.Inspect(n.Key, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && f.c.info.ObjectOf(id) != nil {
					if v, ok := f.c.info.Defs[id].(*types.Var); ok {
						f.read[v] = true
					}
					f.reach(f.c.info.ObjectOf(id).Type())
				}
				return true
			})
		case *ast.Ident:
			if v, ok := f.c.info.Uses[n].(*types.Var); ok && v.IsField() && !written[n] {
				f.read[v.Origin()] = true
			}
		}
		return true
	})
}

// reach marks as read every field of every struct of the module that t
// reaches through pointers, containers and named types, and returns how
// many fields count as read.
func (f *fieldCensus) reach(t types.Type) int {
	t = types.Unalias(t)
	if f.seen[t] {
		return len(f.read)
	}
	f.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if pkg := t.Obj().Pkg(); pkg != nil && f.c.pkgs[pkg.Path()] != nil {
			f.reach(t.Underlying())
		}
	case *types.Map:
		f.reach(t.Key())
		f.reach(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		f.reach(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f.read[t.Field(i).Origin()] = true
			f.reach(t.Field(i).Type())
		}
	}
	return len(f.read)
}

// lookupType resolves "importpath.Type" to a package-level type of the
// module, or returns nil.
func (c *census) lookupType(id string) *types.TypeName {
	slash := strings.LastIndex(id, "/") + 1
	path, name, _ := strings.Cut(id[slash:], ".")
	if p := c.pkgs[id[:slash]+path]; p != nil {
		tn, _ := p.types.Scope().Lookup(name).(*types.TypeName)
		return tn
	}
	return nil
}
