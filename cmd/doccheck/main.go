// Command doccheck validates intra-repo links in markdown files: every
// relative link target (file, directory, or file#anchor) must exist on
// disk. It catches the classic docs rot — a file is moved or renamed and
// the README keeps pointing at the old path. External links (http, https,
// mailto) are skipped; anchors are checked for target-file existence only,
// not heading presence.
//
// For a file named DESIGN.md it also checks the "Repository layout" section
// against the tree, both ways: every directory under cmd/ and internal/
// (next to the file) must be listed there, and every directory listed there
// must exist, so the package map can neither fall behind the packages nor
// keep one that was deleted.
//
// Usage:
//
//	doccheck README.md DESIGN.md docs/*.md
//
// Exit status is nonzero if any link is dead or any package directory is
// unlisted or listed but gone, listing every offender.
// `make doccheck` runs it over README.md, DESIGN.md, OPERATIONS.md and
// docs/*.md.
package main

import (
	"fmt"
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
			dead += len(unlisted) + len(gone)
		}
	}
	if dead > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d dead intra-repo link(s), unlisted or vanished package(s)\n", dead)
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d intra-repo links resolve\n", checked)
}

// layoutHeading opens the section of DESIGN.md that maps the repository.
const layoutHeading = "Repository layout"

// layoutDrift compares the cmd/* and internal/* directories under root with
// the ones the layout section of doc names: unlisted exist but are not
// named, gone are named but do not exist. The section is a tree with one
// directory per line as "name/": top-level directories indented two spaces,
// their children deeper; it ends at the next "## " heading.
func layoutDrift(root, doc string) (unlisted, gone []string) {
	listed := map[string]bool{}
	inSection, parent := false, ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.Contains(line, layoutHeading)
			continue
		}
		fields := strings.Fields(line)
		if !inSection || len(fields) == 0 || !strings.HasSuffix(fields[0], "/") {
			continue
		}
		if indent := len(line) - len(strings.TrimLeft(line, " ")); indent <= 2 {
			parent = fields[0]
		} else if parent == "cmd/" || parent == "internal/" {
			listed[parent+strings.TrimSuffix(fields[0], "/")] = true
		}
	}
	for _, parent := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := parent + "/" + e.Name()
			if !listed[dir] {
				unlisted = append(unlisted, dir)
			}
			delete(listed, dir)
		}
	}
	for dir := range listed {
		gone = append(gone, dir)
	}
	sort.Strings(gone)
	return unlisted, gone
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
