// Package kb generates the synthetic Italian banking knowledge base and the
// evaluation query datasets that substitute for UniCredit's proprietary
// data. The generator controls exactly the corpus properties the paper
// reports and the evaluation depends on:
//
//   - ~59k short HTML documents (average ≈248 words, ≈7.6 paragraphs) over
//     banking applications, governance, general processes and technical
//     topics;
//   - heavy near-duplication among procedure/error documents (identical
//     content except for specific error or procedure codes);
//   - domain jargon (application names, error codes) with no published
//     vocabulary;
//   - a paraphrase gap between how editors write documents (formal,
//     canonical terms) and how employees ask natural-language questions
//     (colloquial synonyms) — the gap that makes the previous exact-keyword
//     engine fail on 81% of human questions while hybrid retrieval serves
//     them all.
package kb

import (
	"fmt"
	"math/rand"

	"uniask/internal/embedding"
	"uniask/internal/textproc"
)

// Concept is one semantic unit of the vocabulary. Variants[0] is the
// canonical surface form the document editors use; the remaining variants
// are the colloquial synonyms employees use in questions.
type Concept struct {
	ID       string
	Variants []string
}

// Canonical returns the editorial surface form.
func (c Concept) Canonical() string { return c.Variants[0] }

// Synonym returns a non-canonical variant drawn with rng, or the canonical
// form when the concept has no synonyms.
func (c Concept) Synonym(rng *rand.Rand) string {
	if len(c.Variants) < 2 {
		return c.Variants[0]
	}
	return c.Variants[1+rng.Intn(len(c.Variants)-1)]
}

// Vocabulary is the full concept inventory of a generated corpus: banking
// objects (accounts, cards, transfers), the operations performed on them,
// the facets that qualify a scenario (abroad, online, urgent...) and the
// internal application and product names.
type Vocabulary struct {
	Entities []Concept
	Actions  []Concept
	Facets   []Concept
	Jargon   []Concept
}

// curated entity concepts: banking objects with editorial canonical form
// first and colloquial synonyms after.
var entityData = [][]string{
	{"conto corrente", "conto", "rapporto bancario"},
	{"carta di credito", "carta", "tessera di pagamento"},
	{"carta di debito", "bancomat", "tessera bancomat"},
	{"bonifico", "trasferimento", "disposizione di pagamento"},
	{"mutuo", "finanziamento casa", "prestito immobiliare"},
	{"prestito personale", "finanziamento", "credito al consumo"},
	{"assegno", "titolo di pagamento"},
	{"deposito titoli", "dossier titoli", "portafoglio investimenti"},
	{"fido", "affidamento", "linea di credito"},
	{"domiciliazione", "addebito diretto", "rid"},
	{"estratto conto", "rendiconto", "riepilogo movimenti"},
	{"iban", "coordinate bancarie", "codice iban"},
	{"firma digitale", "firma elettronica", "sottoscrizione digitale"},
	{"home banking", "banca online", "internet banking"},
	{"sportello automatico", "atm", "cassa automatica"},
	{"libretto di risparmio", "libretto", "deposito a risparmio"},
	{"polizza assicurativa", "assicurazione", "copertura assicurativa"},
	{"cassetta di sicurezza", "cassetta", "custodia valori"},
	{"delega operativa", "delega", "procura"},
	{"pos", "terminale di pagamento", "lettore carte"},
	{"anticipo fatture", "anticipo crediti", "smobilizzo"},
	{"piano di ammortamento", "piano rate", "rateizzazione"},
	{"garanzia fideiussoria", "fideiussione", "garanzia personale"},
	{"segnalazione", "ticket", "richiesta di assistenza"},
	{"password dispositiva", "codice dispositivo", "pin dispositivo"},
	{"credenziali di accesso", "password", "dati di accesso"},
	{"token di sicurezza", "token", "chiavetta otp"},
	{"profilo utente", "utenza", "account personale"},
	{"filiale", "agenzia", "succursale"},
	{"cliente corporate", "azienda cliente", "impresa"},
	{"valuta estera", "divisa", "moneta straniera"},
	{"commissione", "costo operativo", "spesa di gestione"},
	{"tasso di interesse", "tasso", "rendimento"},
	{"rata", "quota periodica", "pagamento rateale"},
	{"plafond", "massimale", "limite di spesa"},
	{"contabilità interna", "scritture contabili", "registrazioni"},
	{"normativa antiriciclaggio", "antiriciclaggio", "disciplina aml"},
	{"privacy", "protezione dati", "riservatezza"},
	{"dispositivo mobile", "smartphone", "telefono aziendale"},
	{"posta certificata", "pec", "mail certificata"},
	{"fascicolo elettronico", "pratica digitale", "dossier elettronico"},
	{"censimento anagrafico", "anagrafica", "dati anagrafici"},
}

// curated action concepts.
var actionData = [][]string{
	{"bloccare", "sospendere", "disattivare"},
	{"attivare", "abilitare", "accendere"},
	{"richiedere", "inoltrare", "domandare"},
	{"rinnovare", "prorogare", "estendere"},
	{"revocare", "annullare", "cancellare"},
	{"modificare", "variare", "aggiornare"},
	{"consultare", "visualizzare", "controllare"},
	{"stampare", "scaricare", "esportare"},
	{"autorizzare", "approvare", "validare"},
	{"registrare", "censire", "inserire"},
	{"trasferire", "spostare", "migrare"},
	{"chiudere", "estinguere", "cessare"},
	{"sbloccare", "riattivare", "ripristinare"},
	{"verificare", "accertare", "riscontrare"},
	{"configurare", "impostare", "parametrare"},
	{"rimborsare", "restituire", "stornare"},
	{"sottoscrivere", "firmare", "siglare"},
	{"segnalare", "notificare", "comunicare"},
	{"delegare", "incaricare", "demandare"},
	{"archiviare", "conservare", "protocollare"},
	{"addebitare", "contabilizzare", "imputare"},
	{"recuperare", "reimpostare", "rigenerare"},
	{"prenotare", "fissare", "programmare"},
	{"aggiornare il saldo", "ricalcolare", "riallineare"},
}

// curated facet concepts.
var facetData = [][]string{
	{"all'estero", "fuori dall'italia", "in ambito internazionale"},
	{"online", "da remoto", "tramite web"},
	{"in filiale", "allo sportello", "presso l'agenzia"},
	{"urgente", "prioritario", "con precedenza"},
	{"per i clienti privati", "per la clientela retail", "per i consumatori"},
	{"per le aziende", "per la clientela corporate", "per le imprese"},
	{"in valuta", "in divisa estera", "in moneta straniera"},
	{"cointestato", "a doppia firma", "condiviso"},
	{"su dispositivo mobile", "da smartphone", "tramite app"},
	{"senza preavviso", "immediatamente", "in tempo reale"},
	{"con firma cartacea", "in forma cartacea", "su modulo fisico"},
	{"per i minorenni", "per i minori", "per gli under diciotto"},
	{"in caso di smarrimento", "se smarrito", "dopo lo smarrimento"},
	{"in caso di furto", "se rubato", "dopo il furto"},
	{"fuori orario", "oltre l'orario di sportello", "in orario serale"},
	{"durante il fine settimana", "nel weekend", "nei giorni festivi"},
	{"per importi elevati", "oltre soglia", "sopra il massimale"},
	{"in regime agevolato", "con agevolazione", "a condizioni ridotte"},
}

// jargonRoots seed the generated application/product names.
var jargonRoots = []string{
	"Aurora", "Chronos", "Delfi", "Egida", "Fenice", "Gemini", "Helios",
	"Iride", "Kronos", "Lampo", "Meridia", "Nettuno", "Olimpo", "Prisma",
	"Quasar", "Rubino", "Sirio", "Titano", "Ulisse", "Vega", "Zefiro",
	"Atlante", "Boreas", "Cometa", "Dedalo", "Eolo", "Faro", "Grifone",
	"Minerva", "Pegaso",
}

var jargonTypes = []string{
	"applicazione", "piattaforma", "portale", "procedura", "modulo", "sistema",
}

// BuildVocabulary constructs the vocabulary deterministically from seed.
// Jargon concepts (internal application names) are generated from the root
// pools; each has a formal canonical form ("applicazione Aurora") and the
// colloquial bare name ("Aurora").
func BuildVocabulary(seed int64) *Vocabulary {
	rng := rand.New(rand.NewSource(seed))
	v := &Vocabulary{}
	for i, d := range entityData {
		v.Entities = append(v.Entities, Concept{ID: fmt.Sprintf("ent%02d", i), Variants: d})
	}
	for i, d := range actionData {
		v.Actions = append(v.Actions, Concept{ID: fmt.Sprintf("act%02d", i), Variants: d})
	}
	for i, d := range facetData {
		v.Facets = append(v.Facets, Concept{ID: fmt.Sprintf("fac%02d", i), Variants: d})
	}
	// Generated jargon: every root × a random type.
	for i, root := range jargonRoots {
		typ := jargonTypes[rng.Intn(len(jargonTypes))]
		v.Jargon = append(v.Jargon, Concept{
			ID: fmt.Sprintf("jar%02d", i),
			Variants: []string{
				typ + " " + root, // canonical editorial form
				root,             // colloquial bare name
			},
		})
	}
	return v
}

// All returns every concept in a stable order.
func (v *Vocabulary) All() []Concept {
	out := make([]Concept, 0, len(v.Entities)+len(v.Actions)+len(v.Facets)+len(v.Jargon))
	out = append(out, v.Entities...)
	out = append(out, v.Actions...)
	out = append(out, v.Facets...)
	out = append(out, v.Jargon...)
	return out
}

// Lexicon builds the term→concept mapping for the synthetic embedder. Each
// surface variant is analyzed with the Italian analyzer and every resulting
// stem is mapped to the concept id, so that an inflected or synonymous
// query term lands on the same concept vector as the document term.
func (v *Vocabulary) Lexicon() embedding.MapLexicon {
	an := textproc.ItalianFull()
	lex := make(embedding.MapLexicon)
	for _, c := range v.All() {
		for _, variant := range c.Variants {
			for _, term := range an.AnalyzeTerms(variant) {
				// First mapping wins: a stem shared between concepts keeps
				// its first concept, which slightly blurs the space exactly
				// like real embeddings do for ambiguous words.
				if _, exists := lex[term]; !exists {
					lex[term] = c.ID
				}
			}
		}
	}
	return lex
}
