package tickets

import (
	"strings"
	"testing"
)

func TestOutcomeOrdering(t *testing.T) {
	p := DefaultPropensities()
	if !(p.AnsweredWell < p.DocsOnly && p.DocsOnly < p.Irrelevant && p.Irrelevant < p.Nothing) {
		t.Fatalf("propensities not ordered: %+v", p)
	}
}

func TestOutcomeStrings(t *testing.T) {
	names := map[Outcome]string{
		AnsweredWell: "answered-well", DocsOnly: "docs-only",
		Irrelevant: "irrelevant", Nothing: "nothing",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
	if Outcome(99).String() != "unknown" {
		t.Error("unknown outcome name")
	}
}

func TestTallyAccumulates(t *testing.T) {
	p := DefaultPropensities()
	tl := NewTally("x")
	tl.Record(AnsweredWell, p)
	tl.Record(Nothing, p)
	if tl.Queries != 2 {
		t.Fatalf("queries = %d", tl.Queries)
	}
	if tl.ByOutcome[AnsweredWell] != 1 || tl.ByOutcome[Nothing] != 1 {
		t.Fatalf("by outcome = %v", tl.ByOutcome)
	}
	want := p.AnsweredWell + p.Nothing
	if tl.ExpectedTkt != want {
		t.Fatalf("expected tickets = %v, want %v", tl.ExpectedTkt, want)
	}
	if rate := tl.TicketRate(); rate != want/2 {
		t.Fatalf("rate = %v", rate)
	}
}

func TestReduction(t *testing.T) {
	p := DefaultPropensities()
	before, after := NewTally("before"), NewTally("after")
	for i := 0; i < 100; i++ {
		before.Record(Nothing, p)
		after.Record(AnsweredWell, p)
	}
	red := Reduction(before, after)
	want := 1 - p.AnsweredWell/p.Nothing
	if red < want-1e-9 || red > want+1e-9 {
		t.Fatalf("reduction = %v, want %v", red, want)
	}
	if Reduction(NewTally("e"), after) != 0 {
		t.Fatal("reduction with empty baseline should be 0")
	}
}

func TestTicketRateEmpty(t *testing.T) {
	if NewTally("x").TicketRate() != 0 {
		t.Fatal("empty tally rate != 0")
	}
}

func TestReportRendering(t *testing.T) {
	p := DefaultPropensities()
	before, after := NewTally("previous"), NewTally("uniask")
	before.Record(Nothing, p)
	after.Record(AnsweredWell, p)
	out := Report(before, after)
	for _, want := range []string{"Post-launch", "previous", "uniask", "ticket reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
