// Package flagdoc checks a binary's registered flags against the flag
// table the operations guide documents for it, in both directions, so the
// table cannot drift from the binary. The binaries' tests call it.
package flagdoc

import (
	"flag"
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// row matches one flag-table row: "| `-name` | default | meaning |".
var row = regexp.MustCompile("^\\| `-([a-z0-9-]+)` \\|")

// Drift compares the flags registered on fs with the first flag table
// after the given heading line of a markdown document. It returns one
// message per flag that has no row and per row that names no registered
// flag; an empty result means the table is in sync.
func Drift(fs *flag.FlagSet, markdown, heading string) []string {
	lines := strings.Split(markdown, "\n")
	i := 0
	for i < len(lines) && lines[i] != heading {
		i++
	}
	if i == len(lines) {
		return []string{fmt.Sprintf("heading %q not found", heading)}
	}
	documented := make(map[string]bool)
	for _, line := range lines[i+1:] {
		if m := row.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		} else if len(documented) > 0 && !strings.HasPrefix(line, "|") {
			break // end of the table
		}
	}
	var drift []string
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			drift = append(drift, fmt.Sprintf("flag -%s is registered but has no row under %q", f.Name, heading))
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		drift = append(drift, fmt.Sprintf("row -%s under %q names a flag the binary does not register", name, heading))
	}
	sort.Strings(drift)
	return drift
}
