package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const passingTranscript = `goos: linux
BenchmarkSearchText-8   	   17612	     67289 ns/op	    3066 B/op	      10 allocs/op
BenchmarkIngestSegmented-8   	   21097	     56237 ns/op	     17782 docs/sec	    5731 B/op	      77 allocs/op
PASS
ok  	uniask/internal/index	3.1s
`

// failingTranscripts are go test runs that printed some results before
// breaking: a failed benchmark, a panic, a package that did not build.
var failingTranscripts = map[string]string{
	"fail": `BenchmarkSearchText-8   	   17612	     67289 ns/op
--- FAIL: BenchmarkSearchVector
    bench_test.go:42: index not built
FAIL
exit status 1
FAIL	uniask/internal/index	1.2s
`,
	"panic": `BenchmarkSearchText-8   	   17612	     67289 ns/op
panic: runtime error: index out of range [3] with length 3

goroutine 7 [running]:
`,
	"build": `# uniask/internal/index
internal/index/index.go:12:2: undefined: foo
FAIL	uniask/internal/index [build failed]
`,
}

func TestParsePassingTranscript(t *testing.T) {
	var echo bytes.Buffer
	results, err := parse(strings.NewReader(passingTranscript), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Name != "BenchmarkSearchText" || results[1].Metrics["docs/sec"] != 17782 {
		t.Fatalf("results = %+v", results)
	}
	if *results[1].AllocsPerOp != 77 {
		t.Fatalf("allocs/op = %d, want 77", *results[1].AllocsPerOp)
	}
	if echo.String() != passingTranscript {
		t.Fatalf("transcript not echoed whole:\n%s", echo.String())
	}
}

func TestParseFailingTranscript(t *testing.T) {
	for name, transcript := range failingTranscripts {
		if _, err := parse(strings.NewReader(transcript), io.Discard); err == nil {
			t.Errorf("%s: a failing run parsed without error", name)
		}
	}
}

// TestFailingRunWritesNothing runs the command itself on a failing
// transcript: it must exit 1 with an empty stdout, so the Makefile never
// installs a partial report.
func TestFailingRunWritesNothing(t *testing.T) {
	if os.Getenv("BENCHJSON_RUN_MAIN") == "1" {
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailingRunWritesNothing$")
	cmd.Env = append(os.Environ(), "BENCHJSON_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(failingTranscripts["panic"])
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("failing run wrote %q to stdout", stdout.String())
	}
}
