package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLayoutDriftIsTwoWay: a directory the section omits and a directory
// the section keeps after it was deleted are both reported, nested ones
// too; a testdata tree is not a directory of the layout.
func TestLayoutDriftIsTwoWay(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"cmd/tool", "internal/kept/nested", "internal/kept/testdata/fuzz", "internal/added", "examples/demo"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	doc := "## 2. Repository layout\n```\n" +
		"  cmd/\n    tool/     a tool\n" +
		"  internal/\n    kept/     still here\n      nested/   a package beneath it\n      moved/    moved away\n    removed/  deleted last PR\n" +
		"  examples/\n    retired/  not this check's business\n" +
		"```\n## 3. Next section\n    ghost/    outside the section\n"

	unlisted, gone := layoutDrift(root, doc)
	if want := []string{"internal/added"}; !reflect.DeepEqual(unlisted, want) {
		t.Errorf("unlisted = %v, want %v", unlisted, want)
	}
	if want := []string{"internal/kept/moved", "internal/removed"}; !reflect.DeepEqual(gone, want) {
		t.Errorf("gone = %v, want %v", gone, want)
	}
}

// TestDetachedContextsAreAllowlisted is the deadline audit under plain
// `go test ./...`: the tree's context.Background() / context.TODO() sites
// and cmd/doccheck/detached_contexts.txt agree, both ways.
func TestDetachedContextsAreAllowlisted(t *testing.T) {
	drift, err := contextDrift("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drift {
		t.Error(d)
	}
}

// TestContextDriftIsTwoWay: an unlisted site, a listed site that is gone, a
// second call in a listed function and a line without a reason are each
// reported; test files and packages other than context are not.
func TestContextDriftIsTwoWay(t *testing.T) {
	root := t.TempDir()
	write := func(path, content string) {
		t.Helper()
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/a/a.go", `package a
import "context"
type T struct{}
func (t *T) Listed() { _ = context.Background(); _ = context.TODO() }
func New() { go func() { _ = context.Background() }() }
func other() { _ = fake.Background() }
`)
	write("internal/a/a_test.go", "package a\nimport \"context\"\nfunc helper() { _ = context.Background() }\n")
	write(contextAllowlist, `# comment
internal/a/a.go:T.Listed   the interface carries no context
internal/a/a.go:Gone       deleted last PR
internal/a/a.go:Bare
`)
	got, err := contextDrift(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		contextAllowlist + " lists internal/a/a.go:Bare, which no longer detaches a context",
		contextAllowlist + " lists internal/a/a.go:Gone, which no longer detaches a context",
		contextAllowlist + ": internal/a/a.go:Bare gives no reason",
		"internal/a/a.go:New detaches from its caller's context and is not in " + contextAllowlist,
		"internal/a/a.go:T.Listed detaches from its caller's context and is not in " + contextAllowlist,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drift:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
