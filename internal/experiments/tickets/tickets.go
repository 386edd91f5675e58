// Package tickets models the operational process behind the paper's
// headline post-launch result: employees who cannot find an answer open a
// support ticket, and UniAsk's deployment reduced the volume of
// search-failure tickets by around 20%.
//
// The model follows §2's description of the process: every year thousands
// of tickets are opened due to search-engine failures. An employee opens a
// ticket when the search experience fails her — the engine returned
// nothing, nothing relevant appeared near the top, or (with UniAsk) the
// generated answer was invalidated and the document list did not help
// either. Each outcome carries an empirically motivated ticket propensity;
// the simulation replays an identical query stream through both systems
// and compares the expected ticket volumes.
package tickets

import (
	"fmt"
	"strings"
)

// Outcome describes how a single search interaction ended, from the
// employee's point of view.
type Outcome int

const (
	// AnsweredWell: a valid answer grounded on a relevant document (UniAsk)
	// or a relevant document in the top results (previous engine).
	AnsweredWell Outcome = iota
	// DocsOnly: no valid answer, but the visible document list contains a
	// relevant document the employee can open.
	DocsOnly
	// Irrelevant: results were returned but nothing relevant is visible.
	Irrelevant
	// Nothing: the engine returned no results at all.
	Nothing
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case AnsweredWell:
		return "answered-well"
	case DocsOnly:
		return "docs-only"
	case Irrelevant:
		return "irrelevant"
	case Nothing:
		return "nothing"
	}
	return "unknown"
}

// Propensities maps each outcome to the probability that the employee
// opens a ticket afterwards. The defaults encode the obvious ordering
// (nothing > irrelevant > docs-only > answered) with magnitudes chosen so
// the previous engine's failure profile produces a ticket stream of the
// size §2 describes.
type Propensities struct {
	AnsweredWell float64
	DocsOnly     float64
	Irrelevant   float64
	Nothing      float64
}

// DefaultPropensities is the calibrated ticket model.
func DefaultPropensities() Propensities {
	return Propensities{
		AnsweredWell: 0.01,
		DocsOnly:     0.05,
		Irrelevant:   0.35,
		Nothing:      0.55,
	}
}

// For returns the propensity for an outcome.
func (p Propensities) For(o Outcome) float64 {
	switch o {
	case AnsweredWell:
		return p.AnsweredWell
	case DocsOnly:
		return p.DocsOnly
	case Irrelevant:
		return p.Irrelevant
	}
	return p.Nothing
}

// Tally accumulates outcomes and expected tickets for one system.
type Tally struct {
	Name        string
	Queries     int
	ByOutcome   map[Outcome]int
	ExpectedTkt float64 // expected ticket volume (sum of propensities)
}

// NewTally creates an empty tally.
func NewTally(name string) *Tally {
	return &Tally{Name: name, ByOutcome: make(map[Outcome]int)}
}

// Record adds one interaction.
func (t *Tally) Record(o Outcome, p Propensities) {
	t.Queries++
	t.ByOutcome[o]++
	t.ExpectedTkt += p.For(o)
}

// TicketRate is tickets per query (expected).
func (t *Tally) TicketRate() float64 {
	if t.Queries == 0 {
		return 0
	}
	return t.ExpectedTkt / float64(t.Queries)
}

// Reduction compares two tallies over the same query stream and reports
// the relative ticket-volume reduction of after vs before (0.2 = -20%).
func Reduction(before, after *Tally) float64 {
	if before.ExpectedTkt == 0 {
		return 0
	}
	return 1 - after.ExpectedTkt/before.ExpectedTkt
}

// Report renders the post-launch comparison.
func Report(before, after *Tally) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Post-launch analysis: ticket volume for unsuccessful searches\n")
	for _, t := range []*Tally{before, after} {
		fmt.Fprintf(&b, "  %-10s %5d queries | well %4d, docs-only %4d, irrelevant %4d, nothing %4d | expected tickets %.1f (%.1f%% of queries)\n",
			t.Name, t.Queries,
			t.ByOutcome[AnsweredWell], t.ByOutcome[DocsOnly],
			t.ByOutcome[Irrelevant], t.ByOutcome[Nothing],
			t.ExpectedTkt, 100*t.TicketRate())
	}
	fmt.Fprintf(&b, "  ticket reduction: %.1f%%  [paper: ~20%%]\n", 100*Reduction(before, after))
	return b.String()
}
