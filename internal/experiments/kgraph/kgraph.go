// Package kgraph implements the knowledge-graph extension the paper lists
// as future work (§11): a concept graph built from the knowledge base that
// supports guiding and validating generation through lightweight
// ontological reasoning.
//
// Nodes are the concepts of the domain lexicon (banking entities, actions,
// facets, applications); an edge connects two concepts that co-occur in a
// document, weighted by the number of co-occurrences. The graph powers an
// ontological guardrail — an answer must stay within the conceptual
// neighborhood of the question — and related-concept suggestions.
package kgraph

import (
	"strings"

	"uniask/internal/embedding"
	"uniask/internal/textproc"
)

// Graph is the concept co-occurrence graph.
type Graph struct {
	// StrictPrefixes lists concept-id prefixes (e.g. "ent", "jar") whose
	// concepts identify the *subject* of a text. During CheckAnswer a
	// strict concept in the answer must match a question concept of the
	// same class or share a direct edge with one — the 1-hop rule that is
	// fine for supporting concepts (actions, facets) is too lenient for
	// subjects, because action nodes connect almost all entities.
	StrictPrefixes []string

	lex      embedding.Lexicon
	analyzer *textproc.Analyzer
	adj      map[string]map[string]int
	docFreq  map[string]int
	docs     int
}

// isStrict reports whether concept c belongs to a strict (subject) class.
func (g *Graph) isStrict(c string) bool {
	for _, p := range g.StrictPrefixes {
		if strings.HasPrefix(c, p) {
			return true
		}
	}
	return false
}

// Build constructs the graph from the corpus text, one string per
// document, using the lexicon to map terms to concepts.
func Build(docs []string, lex embedding.Lexicon) *Graph {
	g := &Graph{
		lex:      lex,
		analyzer: textproc.ItalianFull(),
		adj:      make(map[string]map[string]int),
		docFreq:  make(map[string]int),
	}
	for _, d := range docs {
		concepts := g.ConceptsOf(d)
		g.docs++
		for _, c := range concepts {
			g.docFreq[c]++
		}
		for i := 0; i < len(concepts); i++ {
			for j := i + 1; j < len(concepts); j++ {
				g.addEdge(concepts[i], concepts[j])
			}
		}
	}
	return g
}

func (g *Graph) addEdge(a, b string) {
	if a == b {
		return
	}
	for _, pair := range [2][2]string{{a, b}, {b, a}} {
		m := g.adj[pair[0]]
		if m == nil {
			m = make(map[string]int)
			g.adj[pair[0]] = m
		}
		m[pair[1]]++
	}
}

// ConceptsOf extracts the distinct lexicon concepts mentioned in text, in
// first-appearance order.
func (g *Graph) ConceptsOf(text string) []string {
	seen := map[string]bool{}
	var out []string
	for _, term := range g.analyzer.AnalyzeTerms(text) {
		c, ok := g.lex.ConceptOf(term)
		if !ok || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// Nodes reports the number of concept nodes.
func (g *Graph) Nodes() int { return len(g.adj) }

// EdgeWeight returns the co-occurrence count between two concepts.
func (g *Graph) EdgeWeight(a, b string) int { return g.adj[a][b] }

// Connected reports whether b is reachable from a within maxHops edges.
func (g *Graph) Connected(a, b string, maxHops int) bool {
	if a == b {
		return true
	}
	frontier := map[string]bool{a: true}
	visited := map[string]bool{a: true}
	for hop := 0; hop < maxHops; hop++ {
		next := map[string]bool{}
		for node := range frontier {
			for neigh := range g.adj[node] {
				if neigh == b {
					return true
				}
				if !visited[neigh] {
					visited[neigh] = true
					next[neigh] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		frontier = next
	}
	return false
}

// Verdict is the outcome of an ontological check.
type Verdict struct {
	// OnTopic reports whether the answer stays within the question's
	// conceptual neighborhood.
	OnTopic bool
	// QuestionConcepts and AnswerConcepts are the extracted concept sets.
	QuestionConcepts, AnswerConcepts []string
	// OffTopicConcepts lists answer concepts unconnected to the question.
	OffTopicConcepts []string
}

// hubThreshold marks concepts that appear in more than this fraction of
// all documents as ontological stop-concepts: they connect to everything
// ("filiale", "cliente") and carry no topical signal.
const hubThreshold = 0.2

// isHub reports whether c is a stop-concept. The absolute floor keeps
// small graphs (where every concept trivially exceeds a fraction of the
// corpus) from losing all their signal.
func (g *Graph) isHub(c string) bool {
	limit := hubThreshold * float64(g.docs)
	if limit < 3 {
		limit = 3
	}
	return float64(g.docFreq[c]) > limit
}

// contentConcepts extracts concepts and drops hubs.
func (g *Graph) contentConcepts(text string) []string {
	var out []string
	for _, c := range g.ConceptsOf(text) {
		if !g.isHub(c) {
			out = append(out, c)
		}
	}
	return out
}

// CheckAnswer performs the ontological guardrail of §11: every
// content-bearing concept in the answer must be the question's own concept
// or a direct neighbor of one. Hub concepts occurring in a large share of
// all documents are ignored — they connect to everything. Answers with no
// content concepts at all (pure boilerplate) are off-topic unless the
// question also has none.
func (g *Graph) CheckAnswer(question, answer string) Verdict {
	v := Verdict{
		QuestionConcepts: g.contentConcepts(question),
		AnswerConcepts:   g.contentConcepts(answer),
	}
	if len(v.QuestionConcepts) == 0 {
		// Nothing to anchor on; the ontological check abstains.
		v.OnTopic = true
		return v
	}
	if len(v.AnswerConcepts) == 0 {
		v.OnTopic = false
		return v
	}
	for _, ac := range v.AnswerConcepts {
		ok := false
		for _, qc := range v.QuestionConcepts {
			if ac == qc {
				ok = true
				break
			}
			if g.isStrict(ac) {
				// Subject concepts must share a direct edge with a subject
				// concept of the question.
				if g.isStrict(qc) && g.EdgeWeight(ac, qc) > 0 {
					ok = true
					break
				}
				continue
			}
			if g.Connected(qc, ac, 1) {
				ok = true
				break
			}
		}
		if !ok {
			v.OffTopicConcepts = append(v.OffTopicConcepts, ac)
		}
	}
	// Tolerate a single stray concept (documents mention ancillary
	// concepts); two or more unconnected concepts mark topic drift.
	v.OnTopic = len(v.OffTopicConcepts) <= len(v.AnswerConcepts)/3
	return v
}
