// Command doccheck validates intra-repo links in markdown files: every
// relative link target (file, directory, or file#anchor) must exist on
// disk. It catches the classic docs rot — a file is moved or renamed and
// the README keeps pointing at the old path. External links (http, https,
// mailto) are skipped; anchors are checked for target-file existence only,
// not heading presence.
//
// For a file named DESIGN.md it also checks the "Repository layout" section
// against the tree: every directory under cmd/ and internal/ (next to the
// file) must be listed there, so the package map cannot fall behind the
// packages.
//
// Usage:
//
//	doccheck README.md DESIGN.md docs/*.md
//
// Exit status is nonzero if any link is dead or any package directory is
// unlisted, listing every offender.
// `make doccheck` runs it over README.md, DESIGN.md, OPERATIONS.md and
// docs/*.md.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
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
			for _, dir := range unlistedPackages(base, string(data)) {
				fmt.Fprintf(os.Stderr, "doccheck: %s: %s is missing from the Repository layout section\n", path, dir)
				dead++
			}
		}
	}
	if dead > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d dead intra-repo link(s) or unlisted package(s)\n", dead)
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d intra-repo links resolve\n", checked)
}

// layoutHeading opens the section of DESIGN.md that maps the repository.
const layoutHeading = "Repository layout"

// unlistedPackages returns the cmd/* and internal/* directories under root
// that the layout section of doc does not name. The section is a tree with
// one directory per line as "name/": top-level directories indented two
// spaces, their children deeper; it ends at the next "## " heading.
func unlistedPackages(root, doc string) []string {
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
		} else {
			listed[parent+strings.TrimSuffix(fields[0], "/")] = true
		}
	}
	var missing []string
	for _, parent := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if dir := parent + "/" + e.Name(); e.IsDir() && !listed[dir] {
				missing = append(missing, dir)
			}
		}
	}
	return missing
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
