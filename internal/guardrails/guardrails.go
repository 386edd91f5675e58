// Package guardrails implements the answer-validation shields of §6: the
// ROUGE-L topical guardrail, the citation guardrail, the clarification-
// requirement guardrail, and a rule-based content filter standing in for
// the Azure OpenAI Content Filter. When a guardrail invalidates an answer,
// UniAsk returns an apology message but still shows the retrieved document
// list — a guardrail trigger is a failure of the generation module, not of
// the whole system.
package guardrails

import (
	"strings"

	"uniask/internal/rouge"
)

// Trigger identifies which guardrail invalidated an answer.
type Trigger int

// Guardrail outcomes, in the order Table 5 reports them.
const (
	// None means the answer passed every guardrail.
	None Trigger = iota
	// Citation means the answer contained no citation to the context.
	Citation
	// Rouge means the answer's best ROUGE-L against the context fell below
	// the threshold.
	Rouge
	// Clarification means the answer ended with a request for more details.
	Clarification
	// Content means the user's question was blocked by the content filter.
	Content
)

// String returns the trigger name.
func (t Trigger) String() string {
	switch t {
	case None:
		return "none"
	case Citation:
		return "citation"
	case Rouge:
		return "rouge"
	case Clarification:
		return "clarification"
	case Content:
		return "content-filter"
	}
	return "unknown"
}

// DefaultRougeThreshold is the ROUGE-L threshold the paper set heuristically
// after exploratory experiments on real user questions.
const DefaultRougeThreshold = 0.15

// Config parameterizes the guardrail pipeline.
type Config struct {
	// RougeThreshold defaults to DefaultRougeThreshold.
	RougeThreshold float64
}

// Pipeline applies the guardrails in order.
type Pipeline struct {
	cfg    Config
	filter *ContentFilter
}

// New returns a pipeline with the given config and the default content
// filter.
func New(cfg Config) *Pipeline {
	if cfg.RougeThreshold == 0 {
		cfg.RougeThreshold = DefaultRougeThreshold
	}
	return &Pipeline{cfg: cfg, filter: NewContentFilter()}
}

// ApologyMessage is shown in place of an invalidated answer.
const ApologyMessage = "Ci scusiamo: il sistema non è riuscito a generare una risposta affidabile per questa domanda. Di seguito trovi comunque i documenti recuperati."

// ClarificationMessage invites the user to reformulate with more details.
const ClarificationMessage = "La domanda è troppo generica per fornire una risposta completa: ti invitiamo a riformularla aggiungendo maggiori dettagli."

// CheckQuestion runs the content filter over the user's question before any
// retrieval or generation happens.
func (p *Pipeline) CheckQuestion(question string) Trigger {
	if p.filter.Blocked(question) {
		return Content
	}
	return None
}

// clarificationMarkers are phrasings that signal the answer ends with a
// request for further details.
var clarificationMarkers = []string{
	"maggiori dettagli",
	"ulteriori dettagli",
	"più informazioni sulla tua richiesta",
	"puoi specificare meglio",
	"potresti riformulare",
}

// CheckAnswer validates a generated answer against its retrieval context
// (the top-m chunk texts) and the citations extracted from it. It returns
// the first guardrail that fires, or None.
//
// Order: the clarification check runs first because an answer that asks the
// user for details is invalid regardless of grounding; then the citation
// guardrail (the paper found that answers without citations were reliably
// hallucinated); then the ROUGE-L topical guardrail.
func (p *Pipeline) CheckAnswer(answer string, citations []string, contexts []string) Trigger {
	if endsWithClarification(answer) {
		return Clarification
	}
	if len(citations) == 0 {
		return Citation
	}
	if rouge.MaxLAgainst(answer, contexts) < p.cfg.RougeThreshold {
		return Rouge
	}
	return None
}

// endsWithClarification reports whether the trailing sentence of the answer
// requests more details from the user.
func endsWithClarification(answer string) bool {
	a := strings.ToLower(strings.TrimSpace(answer))
	// Look at the tail of the answer only: a clarification request embedded
	// mid-answer (e.g. quoted from a document) does not invalidate it.
	tail := a
	if len(tail) > 120 {
		tail = tail[len(tail)-120:]
	}
	if !strings.HasSuffix(a, "?") {
		return false
	}
	for _, m := range clarificationMarkers {
		if strings.Contains(tail, m) {
			return true
		}
	}
	return false
}
