// Command doccheck validates intra-repo links in markdown files: every
// relative link target (file, directory, or file#anchor) must exist on
// disk. It catches the classic docs rot — a file is moved or renamed and
// the README keeps pointing at the old path. External links (http, https,
// mailto) are skipped; anchors are checked for target-file existence only,
// not heading presence.
//
// For a file named DESIGN.md it also checks the "Repository layout" section
// against the tree, both ways: every directory under cmd/ and internal/
// (next to the file), nested ones included, must be listed there, and every
// directory listed there must exist, so the package map can neither fall
// behind the packages nor keep one that was deleted.
//
// Next to DESIGN.md it also runs the deadline audit: every
// context.Background() / context.TODO() call in non-test code under
// internal/ is a place where work detaches from its caller's deadline, and
// each must be listed, with its reason, in cmd/doccheck/detached_contexts.txt.
// The comparison is two-way: a new site fails, and so does a listed site
// that no longer exists.
//
// Usage:
//
//	doccheck README.md DESIGN.md docs/*.md
//
// Exit status is nonzero if any link is dead, any package directory is
// unlisted or listed but gone, or the detached-context list has drifted,
// listing every offender.
// `make doccheck` runs it over README.md, DESIGN.md, OPERATIONS.md and
// docs/*.md.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// linkRe matches inline markdown links [text](target). Reference-style
// definitions ("[x]: target") are rare in this repo and not matched.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <file.md> [more.md ...]")
		os.Exit(2)
	}
	dead := 0
	checked := 0
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		base := filepath.Dir(path)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if skipLink(target) {
					continue
				}
				checked++
				if !targetExists(base, target) {
					fmt.Fprintf(os.Stderr, "doccheck: %s:%d: dead link %q\n", path, i+1, target)
					dead++
				}
			}
		}
		if filepath.Base(path) == "DESIGN.md" {
			unlisted, gone := layoutDrift(base, string(data))
			for _, dir := range unlisted {
				fmt.Fprintf(os.Stderr, "doccheck: %s: %s is missing from the Repository layout section\n", path, dir)
			}
			for _, dir := range gone {
				fmt.Fprintf(os.Stderr, "doccheck: %s: the Repository layout section lists %s, which does not exist\n", path, dir)
			}
			drift, err := contextDrift(base)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
				os.Exit(2)
			}
			for _, d := range drift {
				fmt.Fprintf(os.Stderr, "doccheck: %s\n", d)
			}
			dead += len(unlisted) + len(gone) + len(drift)
		}
	}
	if dead > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d dead intra-repo link(s), unlisted or vanished package(s), drifted detached-context site(s)\n", dead)
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d intra-repo links resolve\n", checked)
}

// layoutHeading opens the section of DESIGN.md that maps the repository.
const layoutHeading = "Repository layout"

// layoutDrift compares the directories under root's cmd/ and internal/
// (nested ones included, testdata trees excepted) with the ones the layout
// section of doc names: unlisted exist but are not named, gone are named but
// do not exist. The section is a tree with one directory per line as
// "name/", each level indented two spaces deeper than its parent's; it ends
// at the next "## " heading.
func layoutDrift(root, doc string) (unlisted, gone []string) {
	listed := map[string]bool{}
	inSection := false
	var path []string // the directory named at each depth of the tree so far
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.Contains(line, layoutHeading)
			continue
		}
		fields := strings.Fields(line)
		if !inSection || len(fields) == 0 || !strings.HasSuffix(fields[0], "/") {
			continue
		}
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		if depth < 1 {
			continue
		}
		path = append(path[:min(depth-1, len(path))], strings.TrimSuffix(fields[0], "/"))
		if len(path) > 1 && (path[0] == "cmd" || path[0] == "internal") {
			listed[strings.Join(path, "/")] = true
		}
	}
	for _, top := range []string{"cmd", "internal"} {
		// A tree without top lists nothing under it; the walk's error says
		// no more than that.
		_ = filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, p)
			if dir := filepath.ToSlash(rel); dir != top {
				if !listed[dir] {
					unlisted = append(unlisted, dir)
				}
				delete(listed, dir)
			}
			return nil
		})
	}
	for dir := range listed {
		gone = append(gone, dir)
	}
	sort.Strings(gone)
	return unlisted, gone
}

// contextAllowlist is the checked-in list of detached-context sites, relative
// to the repository root: one "file:function reason" line per call.
const contextAllowlist = "cmd/doccheck/detached_contexts.txt"

// contextDrift compares the context.Background() / context.TODO() calls in
// non-test Go files under root/internal with the allowlist, as multisets of
// "file:function" sites, and returns one message per site that is not
// allowlisted, per allowlisted site that is gone, and per line that gives no
// reason.
func contextDrift(root string) ([]string, error) {
	found, err := detachedContexts(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, contextAllowlist))
	if err != nil {
		return nil, err
	}
	var drift []string
	allowed := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) == 1 {
			drift = append(drift, fmt.Sprintf("%s: %s gives no reason", contextAllowlist, fields[0]))
		}
		allowed[fields[0]]++
	}
	for _, site := range found {
		if allowed[site] == 0 {
			drift = append(drift, fmt.Sprintf("%s detaches from its caller's context and is not in %s", site, contextAllowlist))
			continue
		}
		allowed[site]--
	}
	for site, n := range allowed {
		if n > 0 {
			drift = append(drift, fmt.Sprintf("%s lists %s, which no longer detaches a context", contextAllowlist, site))
		}
	}
	sort.Strings(drift)
	return drift, nil
}

// detachedContexts lists every context.Background() / context.TODO() call in
// the non-test Go files under root/internal as "file:function" (the file
// relative to root, methods as Recv.Name), once per call, sorted.
func detachedContexts(root string) ([]string, error) {
	var sites []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			name := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = funcName(fn)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" {
					sites = append(sites, filepath.ToSlash(rel)+":"+name)
				}
				return true
			})
		}
		return nil
	})
	sort.Strings(sites)
	return sites, err
}

// funcName renders a function declaration as Name, or Recv.Name for a
// method (the pointer dropped).
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return id.Name + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

// skipLink reports whether the target is outside this checker's scope:
// absolute URLs, mail links, and pure in-page anchors.
func skipLink(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// targetExists resolves the target relative to the linking file's directory
// and checks the file or directory exists. A "file.md#section" target
// checks file.md.
func targetExists(base, target string) bool {
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
	}
	if target == "" {
		return true
	}
	_, err := os.Stat(filepath.Join(base, target))
	return err == nil
}
