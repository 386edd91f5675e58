// Package embedding provides the text-embedding substrate that substitutes
// for text-embedding-ada-002 in the reproduction. The paper's evaluation
// hinges on two properties of the embedding space, both engineered here:
//
//  1. paraphrase proximity — a natural-language question that uses synonyms
//     of a document's vocabulary must land close to that document's vector
//     (this is why vector search rescues the human-question dataset);
//  2. jargon opacity — identifier-like tokens (error codes, procedure
//     codes) have no distributional semantics, so two different codes are
//     far apart and a code query is served better by exact text match (this
//     is why text search wins on the keyword dataset).
//
// The embedder realizes (1) through a concept lexicon: every content term
// maps to a concept, and all terms of a concept share a deterministic base
// vector with small per-term noise. It realizes (2) by giving terms with
// digits a pure per-term hash vector with no shared concept component.
package embedding

import (
	"context"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"

	"uniask/internal/textproc"
	"uniask/internal/vector"
)

// Lexicon maps a normalized (stemmed) term to its concept identifier.
// Terms absent from the lexicon are treated as standalone concepts.
type Lexicon interface {
	ConceptOf(term string) (string, bool)
}

// MapLexicon is a Lexicon backed by a plain map.
type MapLexicon map[string]string

// ConceptOf implements Lexicon.
func (m MapLexicon) ConceptOf(term string) (string, bool) {
	c, ok := m[term]
	return c, ok
}

// EmptyLexicon is a Lexicon with no entries; every term is its own concept.
var EmptyLexicon = MapLexicon(nil)

// DefaultDim is the embedding dimensionality used across UniAsk. (ada-002
// produces 1536 dimensions; 256 preserves the geometry the experiments need
// at a fraction of the memory.)
const DefaultDim = 256

// Embedder converts text to a dense unit vector.
type Embedder interface {
	// Embed returns the (unit-normalized) embedding of text.
	Embed(text string) vector.Vector
	// Dim reports the embedding dimensionality.
	Dim() int
}

// Synth is the deterministic synthetic embedder.
type Synth struct {
	// NoiseScale controls how far a term vector may deviate from its
	// concept vector; smaller values make synonyms more interchangeable.
	NoiseScale float64

	dim      int
	lex      Lexicon
	analyzer *textproc.Analyzer

	mu    sync.RWMutex
	cache map[string]vector.Vector // per-term vectors
}

// NewSynth returns a synthetic embedder of dimensionality dim (DefaultDim
// when dim <= 0) over the given lexicon.
func NewSynth(dim int, lex Lexicon) *Synth {
	if dim <= 0 {
		dim = DefaultDim
	}
	if lex == nil {
		lex = EmptyLexicon
	}
	return &Synth{
		NoiseScale: 0.35,
		dim:        dim,
		lex:        lex,
		analyzer:   textproc.ItalianFull(),
		cache:      make(map[string]vector.Vector),
	}
}

// Dim implements Embedder.
func (s *Synth) Dim() int { return s.dim }

// hashVector derives a deterministic Gaussian unit vector from a string.
func hashVector(s string, dim int) vector.Vector {
	h := fnv.New64a()
	h.Write([]byte(s))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	v := make(vector.Vector, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return vector.Normalize(v)
}

// hasDigit reports whether the term contains a digit, marking it as an
// identifier/code with no distributional semantics.
func hasDigit(term string) bool {
	return strings.ContainsAny(term, "0123456789")
}

// termVector returns the (cached) vector for a single normalized term.
func (s *Synth) termVector(term string) vector.Vector {
	s.mu.RLock()
	v, ok := s.cache[term]
	s.mu.RUnlock()
	if ok {
		return v
	}

	var out vector.Vector
	if hasDigit(term) {
		// Opaque identifier: pure surface hash.
		out = hashVector("term:"+term, s.dim)
	} else if concept, found := s.lex.ConceptOf(term); found {
		base := hashVector("concept:"+concept, s.dim)
		noise := hashVector("term:"+term, s.dim)
		out = make(vector.Vector, s.dim)
		for i := range out {
			out[i] = base[i] + float32(s.NoiseScale)*noise[i]
		}
		vector.Normalize(out)
	} else {
		// Unknown word: its own concept, with the same noise structure so a
		// shared unknown word still aligns between query and document.
		out = hashVector("concept:"+term, s.dim)
	}

	s.mu.Lock()
	s.cache[term] = out
	s.mu.Unlock()
	return out
}

// identifierWeight is the relative weight of identifier-like terms (error
// codes, procedure codes) in a text embedding. Subword tokenizers split
// rare identifiers into many tokens, so they occupy a disproportionate
// share of a real embedding — weighting them up reproduces that behavior
// and makes an exact code match dominate a code query's geometry.
const identifierWeight = 3.0

// Embed implements Embedder: the unit-normalized weighted mean of the term
// vectors of the analyzed text (stop words removed by the analyzer;
// identifier-like terms up-weighted). Embedding the empty string yields the
// zero vector.
func (s *Synth) Embed(text string) vector.Vector {
	terms := s.analyzer.AnalyzeTerms(text)
	acc := make(vector.Vector, s.dim)
	if len(terms) == 0 {
		return acc
	}
	for _, t := range terms {
		tv := s.termVector(t)
		w := float32(1)
		if hasDigit(t) {
			w = identifierWeight
		}
		for i := range acc {
			acc[i] += w * tv[i]
		}
	}
	return vector.Normalize(acc)
}

// EmbedCtx implements CtxEmbedder: Embed, refused once ctx is done. The
// synthetic embedder runs in process and never fails otherwise.
func (s *Synth) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Embed(text), nil
}

// Mean returns the unit-normalized mean of the given embeddings (used by
// the MQ2 query-expansion variant, which averages the embeddings of the
// LLM-generated related queries).
func Mean(vecs []vector.Vector, dim int) vector.Vector {
	acc := make(vector.Vector, dim)
	for _, v := range vecs {
		for i := range acc {
			acc[i] += v[i]
		}
	}
	return vector.Normalize(acc)
}
