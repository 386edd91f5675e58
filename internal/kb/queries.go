package kb

import (
	"fmt"
	"math/rand"
	"strings"
)

// QueryKind classifies evaluation queries.
type QueryKind int

const (
	// HumanQuery is a natural-language question authored by a domain expert.
	HumanQuery QueryKind = iota
	// KeywordQuery is a short keyword query sampled from the previous
	// engine's log.
	KeywordQuery
	// ErrorCodeQuery asks about a specific error code.
	ErrorCodeQuery
	// OutOfScopeQuery is unrelated to the knowledge base (guardrail test).
	OutOfScopeQuery
	// SpecialQuery exercises robustness cases (case, missing words, dups).
	SpecialQuery
)

// Query is one evaluation question with its ground truth.
type Query struct {
	// ID identifies the query within its dataset.
	ID string
	// Text is the query string presented to the system.
	Text string
	// Kind is the query class.
	Kind QueryKind
	// Relevant is the set of relevant KB document ids (empty for
	// out-of-scope queries).
	Relevant []string
	// Answer is the ground-truth natural-language answer (human questions
	// only; the paper collected no answers for keyword queries).
	Answer string
}

// Dataset is a named list of queries.
type Dataset struct {
	Name    string
	Queries []Query
}

// Split divides the dataset into validation (2/3) and test (1/3) parts, as
// the paper does. The split is positional after a seeded shuffle, so it is
// deterministic for a given dataset.
func (d Dataset) Split(seed int64) (validation, test Dataset) {
	rng := rand.New(rand.NewSource(seed))
	shuffled := make([]Query, len(d.Queries))
	copy(shuffled, d.Queries)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := len(shuffled) * 2 / 3
	validation = Dataset{Name: d.Name + "-validation", Queries: shuffled[:cut]}
	test = Dataset{Name: d.Name + "-test", Queries: shuffled[cut:]}
	return validation, test
}

var humanTemplates = []string{
	"Come posso %A %E %F?",
	"Che cosa devo fare per %A %E %F?",
	"È possibile %A %E %F?",
	"In che modo si può %A %E?",
	"Quali sono i passaggi per %A %E %F?",
	"Mi serve sapere come %A %E %F, come procedo?",
	"Un cliente chiede di %A %E %F: qual è la procedura corretta?",
	"Vorrei capire come %A %E, potete aiutarmi?",
	"Qual è la prassi per %A %E %F?",
	"Cosa prevede la procedura quando bisogna %A %E %F?",
}

var errorQuestionTemplates = []string{
	"Cosa devo fare quando compare l'errore %C?",
	"Come si risolve l'errore %C durante %A %E?",
	"Il sistema segnala %C, come procedo?",
	"Che significato ha il codice %C e come si gestisce?",
}

var outOfScopeQuestions = []string{
	"Che tempo farà domani a Milano?",
	"Qual è la ricetta della carbonara?",
	"Chi ha vinto l'ultimo campionato di calcio?",
	"Dove si compra un biglietto del treno per Roma?",
	"Come si coltivano i pomodori sul balcone?",
	"Qual è la capitale dell'Australia?",
	"Consigliami un film da vedere stasera.",
	"Scrivi una poesia sull'autunno.",
	"Qual è il miglior ristorante vicino all'ufficio?",
	"Come posso migliorare il mio inglese?",
	"Dammi i numeri vincenti del lotto di ieri.",
	"Qual è il senso della vita?",
	"Raccontami una barzelletta divertente.",
	"Come si ripara una bicicletta con la gomma a terra?",
	"A che ora inizia il film al cinema in centro?",
	"Che esercizi posso fare per il mal di schiena?",
	"Dove conviene andare in vacanza ad agosto?",
	"Come si prepara un buon caffè con la moka?",
	"Qual è la distanza tra la terra e la luna?",
	"Suggeriscimi un libro giallo da leggere.",
}

// SynonymProbability is the chance that a concept in a human question is
// rendered with a colloquial synonym instead of the editorial canonical
// form. It calibrates the lexical gap between questions and documents; at
// the default, the previous exact-match engine serves roughly one human
// question in five — the paper reports 19.1%.
const SynonymProbability = 0.65

// render returns a concept surface form: synonym with probability p,
// canonical otherwise.
func render(rng *rand.Rand, c Concept, p float64) string {
	if rng.Float64() < p {
		return c.Synonym(rng)
	}
	return c.Canonical()
}

// HumanDataset generates n expert-authored natural-language questions with
// ground-truth documents and answers (paper: 2700).
func (c *Corpus) HumanDataset(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := Dataset{Name: "human"}
	for i := 0; i < n; i++ {
		d := c.Docs[rng.Intn(len(c.Docs))]
		var text string
		if d.Kind == ErrorDoc && rng.Float64() < 0.5 {
			tpl := pick(rng, errorQuestionTemplates)
			text = fill(tpl, render(rng, d.action, SynonymProbability),
				render(rng, d.entity, SynonymProbability), "", "", "", d.Code)
		} else {
			tpl := pick(rng, humanTemplates)
			facet := render(rng, d.facet, SynonymProbability)
			if rng.Float64() < 0.3 {
				facet = "" // not every question mentions the facet
			}
			text = fill(tpl, render(rng, d.action, SynonymProbability),
				render(rng, d.entity, SynonymProbability), facet, "", "", "")
		}
		// Expert ground truth is authored while looking at the target page:
		// the linked documents are the ones equivalent to it (same facet),
		// even when the question itself omits the facet.
		relevant := c.relevantFor(d, text, true)
		ds.Queries = append(ds.Queries, Query{
			ID:       fmt.Sprintf("h%04d", i),
			Text:     text,
			Kind:     HumanQuery,
			Relevant: relevant,
			Answer:   d.AnswerSentence,
		})
	}
	return ds
}

// KeywordDataset generates n keyword-style queries mimicking the previous
// engine's log (paper: 800): one to three exact editorial terms, or a bare
// error code. Employees learned to query the old engine this way.
func (c *Corpus) KeywordDataset(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := Dataset{Name: "keyword"}
	for i := 0; i < n; i++ {
		d := c.Docs[rng.Intn(len(c.Docs))]
		var text string
		switch {
		case d.Kind == ErrorDoc && rng.Float64() < 0.6:
			if rng.Float64() < 0.5 {
				text = d.Code
			} else {
				text = "errore " + d.Code
			}
		case rng.Float64() < 0.5:
			text = d.entity.Canonical()
		default:
			text = d.action.Canonical() + " " + d.entity.Canonical()
		}
		ds.Queries = append(ds.Queries, Query{
			ID:       fmt.Sprintf("k%04d", i),
			Text:     text,
			Kind:     KeywordQuery,
			Relevant: c.relevantFor(d, text, false),
		})
	}
	return ds
}

// relevantFor computes the ground-truth set for a query targeting doc d.
// Error-code queries are satisfied only by the exact code's document; all
// other queries are satisfied by any member of the near-duplicate cluster,
// plus other documents about the same entity+action pair (a generic
// question has multiple valid sources, matching the paper's "one or more
// links" ground truth). Human questions carry facet-specific truth (the
// expert links the pages equivalent to the target document); keyword-log
// queries carry broad entity+action truth, since a bare keyword asks for
// any page on the topic.
func (c *Corpus) relevantFor(d Doc, queryText string, facetSpecific bool) []string {
	if d.Code != "" && strings.Contains(queryText, d.Code) {
		return []string{d.ID}
	}
	set := map[string]bool{d.ID: true}
	for _, id := range c.Cluster(d.ID) {
		set[id] = true
	}
	// Same-topic documents answering the same entity+action question.
	for _, other := range c.Docs {
		if other.entity.ID == d.entity.ID && other.action.ID == d.action.ID &&
			other.Kind == d.Kind &&
			(!facetSpecific || other.facet.ID == d.facet.ID) {
			set[other.ID] = true
		}
	}
	out := make([]string, 0, len(set))
	for _, doc := range c.Docs { // stable order
		if set[doc.ID] {
			out = append(out, doc.ID)
		}
	}
	return out
}

// OutOfScopeDataset returns n questions unrelated to the KB (guardrail and
// UAT material). They carry no relevant documents.
func (c *Corpus) OutOfScopeDataset(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := Dataset{Name: "out-of-scope"}
	for i := 0; i < n; i++ {
		ds.Queries = append(ds.Queries, Query{
			ID:   fmt.Sprintf("o%04d", i),
			Text: outOfScopeQuestions[rng.Intn(len(outOfScopeQuestions))],
			Kind: OutOfScopeQuery,
		})
	}
	return ds
}

// ErrorCodeDataset returns n queries consisting of bare or prefixed error
// codes drawn from the corpus' error documents.
func (c *Corpus) ErrorCodeDataset(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var errorDocs []Doc
	for _, d := range c.Docs {
		if d.Code != "" {
			errorDocs = append(errorDocs, d)
		}
	}
	ds := Dataset{Name: "error-code"}
	if len(errorDocs) == 0 {
		return ds
	}
	for i := 0; i < n; i++ {
		d := errorDocs[rng.Intn(len(errorDocs))]
		text := d.Code
		if rng.Float64() < 0.4 {
			text = "errore " + d.Code
		}
		ds.Queries = append(ds.Queries, Query{
			ID:       fmt.Sprintf("e%04d", i),
			Text:     text,
			Kind:     ErrorCodeQuery,
			Relevant: []string{d.ID},
		})
	}
	return ds
}

// UATDataset assembles the 210-question pre-deployment mix of §8:
// 70 human questions close to frequent log queries, 50 SME questions,
// 50 frequent keyword queries, 10 out-of-scope, 20 error codes and
// 10 special cases (case changes, missing words, duplicates). Sizes scale
// proportionally when total differs from 210.
func (c *Corpus) UATDataset(total int, seed int64) Dataset {
	if total <= 0 {
		total = 210
	}
	scale := func(k int) int {
		n := k * total / 210
		if n < 1 {
			n = 1
		}
		return n
	}
	rng := rand.New(rand.NewSource(seed))
	ds := Dataset{Name: "uat"}

	human := c.HumanDataset(scale(70)+scale(50), seed+11).Queries
	ds.Queries = append(ds.Queries, human...)
	ds.Queries = append(ds.Queries, c.KeywordDataset(scale(50), seed+12).Queries...)
	ds.Queries = append(ds.Queries, c.OutOfScopeDataset(scale(10), seed+13).Queries...)
	ds.Queries = append(ds.Queries, c.ErrorCodeDataset(scale(20), seed+14).Queries...)

	// Special cases derived from human questions: upper case, word dropped,
	// duplicated query.
	base := c.HumanDataset(scale(10), seed+15).Queries
	for i, q := range base {
		switch i % 3 {
		case 0:
			q.Text = strings.ToUpper(q.Text)
		case 1:
			words := strings.Fields(q.Text)
			if len(words) > 3 {
				drop := 1 + rng.Intn(len(words)-2)
				words = append(words[:drop], words[drop+1:]...)
				q.Text = strings.Join(words, " ")
			}
		case 2:
			q.Text = q.Text + " " + q.Text
		}
		q.Kind = SpecialQuery
		ds.Queries = append(ds.Queries, q)
	}
	for i := range ds.Queries {
		ds.Queries[i].ID = fmt.Sprintf("u%04d", i)
	}
	return ds
}
