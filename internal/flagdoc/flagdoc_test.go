package flagdoc

import (
	"flag"
	"strings"
	"testing"
)

func TestDriftIsTwoWay(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.Int("kept", 0, "")
	fs.Int("undocumented", 0, "")
	doc := strings.Join([]string{
		"## Other",
		"| `-elsewhere` | `0` | A row of another table. |",
		"## Flags",
		"prose before the table",
		"| Flag | Default | Meaning |",
		"|---|---|---|",
		"| `-kept` | `0` | Documented and registered. |",
		"| `-gone` | `0` | Documented, no longer registered. |",
		"",
		"| `-later` | `0` | A later table is not this binary's. |",
	}, "\n")
	got := strings.Join(Drift(fs, doc, "## Flags"), "\n")
	if strings.Count(got, "\n") != 1 || !strings.Contains(got, "-undocumented is registered") || !strings.Contains(got, "-gone under") {
		t.Fatalf("Drift = %q, want exactly the undocumented flag and the stale row", got)
	}
	if d := Drift(fs, doc, "## Missing"); len(d) != 1 {
		t.Fatalf("missing heading: Drift = %q", d)
	}
}
