package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// repoCensus loads the repository's module once for the tests that audit
// it, as make doccheck loads it once for both censuses.
var repoCensus = sync.OnceValues(func() (*census, error) { return loadModule("../..") })

// writeModule writes files (path → content) under a fresh temp module root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

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

// TestExportedIdentifiersHaveCallers is the caller census under plain
// `go test ./...`: the tree's exported identifiers that no non-test code
// calls and cmd/doccheck/uncalled.txt agree, both ways.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	c, err := repoCensus()
	if err != nil {
		t.Fatal(err)
	}
	drift, err := callerDrift(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drift {
		t.Error(d)
	}
}

// TestCallerDriftIsTwoWay: on a module of its own, an exported function
// whose only caller is a test, a method of a called interface method's
// name and signature on a type that does not implement that interface, an
// allowlist line that covers nothing and a line without a reason are
// reported; a method reached only through a called interface method,
// Len/Less/Swap behind sort.Sort, a declaration under bench/ and a listed
// package are not.
func TestCallerDriftIsTwoWay(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/a/a.go": `package a

import "sort"

type Shape interface {
	Area() int
	Name() string
}

type Square struct{ side int }

func (s Square) Area() int     { return s.side * s.side }
func (s Square) Name() string { return "square" }

// Tile has Shape's Area but no Name, so no call through Shape reaches it.
type Tile struct{}

func (Tile) Area() int { return 1 }

type bySide []Square

func (b bySide) Len() int           { return len(b) }
func (b bySide) Less(i, j int) bool { return b[i].side < b[j].side }
func (b bySide) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area() + len(s.Name())
	}
	return n
}

func Sorted(sq []Square) []Square {
	sort.Sort(bySide(sq))
	return sq
}

func OnlyTested() int { return OnlyTested() + 1 }
`,
		"internal/a/a_test.go": "package a\nimport \"testing\"\nfunc TestIt(t *testing.T) { _ = OnlyTested() }\n",
		"internal/b/b.go":      "package b\n\nfunc Helper() {}\n",
		"bench/main.go": `package main

import "tmpmod/internal/a"

func Unused() {}

func main() { _ = a.Total([]a.Shape{a.Square{}}); _ = a.Sorted(nil); _ = a.Tile{} }
`,
		callerAllowlist: `# comment
tmpmod/internal/b           a harness other packages' tests import
tmpmod/internal/a.Gone      deleted last PR
tmpmod/internal/a.Bare
`,
	})
	c, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := callerDrift(c)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		callerAllowlist + " lists tmpmod/internal/a.Bare, which is called or gone",
		callerAllowlist + " lists tmpmod/internal/a.Gone, which is called or gone",
		callerAllowlist + ": tmpmod/internal/a.Bare gives no reason",
		"tmpmod/internal/a.OnlyTested has no caller outside tests and is not in " + callerAllowlist,
		"tmpmod/internal/a.Tile.Area has no caller outside tests and is not in " + callerAllowlist,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drift:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStructFieldsHaveReaders is the field census under plain
// `go test ./...`: the tree's struct fields that no non-test code reads
// and cmd/doccheck/unread.txt agree, both ways.
func TestStructFieldsHaveReaders(t *testing.T) {
	c, err := repoCensus()
	if err != nil {
		t.Fatal(err)
	}
	drift, err := fieldDrift(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drift {
		t.Error(d)
	}
}

// TestFieldDriftIsTwoWay: on a module of its own, a field that is only
// written, a field whose only reader is a test, a listed field that is
// read, a listed name that is gone, a listed type that reaches no unread
// field and a line without a reason are reported; a json-tagged field, the
// fields of the structs it reaches, a map key's fields, the fields a
// listed type reaches and a field read only under bench/ are not.
func TestFieldDriftIsTwoWay(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/a/a.go": `package a

import "encoding/json"

type Record struct {
	Written  int
	TestRead int
	Used     int
}

func New(n int) Record {
	r := Record{Written: n}
	r.TestRead = n
	r.Used = n
	return r
}

func (r Record) Value() int { return r.Used }

type Body struct {
	Inner Nested ` + "`json:\"inner\"`" + `
}

type Nested struct{ Deep Leaf }

type Leaf struct{ X int }

func Encode() ([]byte, error) { return json.Marshal(Body{Inner: Nested{Deep: Leaf{X: 1}}}) }

type key struct{ a, b string }

func Distinct(ks []string) int {
	m := map[key]bool{}
	for _, k := range ks {
		m[key{k, k}] = true
	}
	return len(m)
}

type Gauges struct{ Depth int }

func Sample() Gauges { return Gauges{Depth: 1} }

type Benched struct{ N int }

func Bench() Benched { return Benched{N: 1} }
`,
		"internal/a/a_test.go": "package a\nimport \"testing\"\nfunc TestIt(t *testing.T) { _ = New(1).TestRead }\n",
		"bench/main.go": `package main

import "tmpmod/internal/a"

func main() { _ = a.New(1).Value(); _, _ = a.Encode(); _ = a.Distinct(nil); _ = a.Sample(); _ = a.Bench().N }
`,
		fieldAllowlist: `# comment
tmpmod/internal/a.Gauges         the body an encoder reads untagged
tmpmod/internal/a.Body           encoded, but tagged already
tmpmod/internal/a.Record.Used    read since
tmpmod/internal/a.Gone           deleted last PR
tmpmod/internal/a.Record.Bare
`,
	})
	c, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fieldDrift(c)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fieldAllowlist + " lists tmpmod/internal/a.Body, which reaches no unread field",
		fieldAllowlist + " lists tmpmod/internal/a.Gone, which is read or gone",
		fieldAllowlist + " lists tmpmod/internal/a.Record.Bare, which is read or gone",
		fieldAllowlist + " lists tmpmod/internal/a.Record.Used, which is read or gone",
		fieldAllowlist + ": tmpmod/internal/a.Record.Bare gives no reason",
		"tmpmod/internal/a.Record.TestRead is written but never read outside tests and is not in " + fieldAllowlist,
		"tmpmod/internal/a.Record.Written is written but never read outside tests and is not in " + fieldAllowlist,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drift:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
