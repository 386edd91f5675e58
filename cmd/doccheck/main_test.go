package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLayoutDriftIsTwoWay: a directory the section omits and a directory
// the section keeps after it was deleted are both reported.
func TestLayoutDriftIsTwoWay(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"cmd/tool", "internal/kept", "internal/added", "examples/demo"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	doc := "## 2. Repository layout\n```\n" +
		"  cmd/\n    tool/     a tool\n" +
		"  internal/\n    kept/     still here\n    removed/  deleted last PR\n" +
		"  examples/\n    retired/  not this check's business\n" +
		"```\n## 3. Next section\n    ghost/    outside the section\n"

	unlisted, gone := layoutDrift(root, doc)
	if want := []string{"internal/added"}; !reflect.DeepEqual(unlisted, want) {
		t.Errorf("unlisted = %v, want %v", unlisted, want)
	}
	if want := []string{"internal/removed"}; !reflect.DeepEqual(gone, want) {
		t.Errorf("gone = %v, want %v", gone, want)
	}
}
