package kb

import (
	"fmt"
	"math/rand"
	"strings"

	"uniask/internal/embedding"
)

// DocKind classifies generated documents.
type DocKind int

const (
	// ProcedureDoc explains how to perform an operation.
	ProcedureDoc DocKind = iota
	// ErrorDoc documents a specific error code; error docs come in
	// near-duplicate clusters differing only in the code.
	ErrorDoc
	// ProductDoc describes a banking product.
	ProductDoc
	// TechnicalDoc covers an internal application or platform.
	TechnicalDoc
)

// Doc is one generated knowledge-base document.
type Doc struct {
	// ID is the KB document identifier ("kb00042").
	ID string
	// Kind is the document type.
	Kind DocKind
	// Title is the page title.
	Title string
	// Paragraphs is the body text, one entry per HTML paragraph.
	Paragraphs []string
	// HTML is the rendered page as stored in the knowledge base.
	HTML string
	// Domain, Section and Topic are the editor-provided tags.
	Domain, Section, Topic string
	// AnswerSentence is the sentence that answers the document's core
	// question (used as ground-truth answer material).
	AnswerSentence string
	// ClusterID groups near-duplicate documents ("" when unique).
	ClusterID string
	// Code is the error/procedure code for ErrorDocs ("" otherwise).
	Code string

	// The concepts the document is about, used by the query generators.
	entity Concept
	action Concept
	facet  Concept
}

// Corpus is a generated knowledge base.
type Corpus struct {
	// Docs holds every document, index-ordered by ID.
	Docs []Doc
	// Vocab is the concept vocabulary the corpus was generated from.
	Vocab *Vocabulary

	byID     map[string]int
	clusters map[string][]string // cluster id -> doc ids
}

// GenConfig controls corpus generation.
type GenConfig struct {
	// Docs is the number of documents (paper scale: 59308). Default 6000.
	Docs int
	// Seed drives all generation randomness.
	Seed int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Docs <= 0 {
		c.Docs = 6000
	}
	return c
}

// Italian sentence material. Procedure phrases complete "è necessario ...".
var procedurePhrases = []string{
	"contattare il supporto tecnico interno",
	"aprire una segnalazione tramite il portale dedicato",
	"accedere alla sezione documenti del menu principale",
	"compilare il modulo previsto dalla normativa vigente",
	"attendere la conferma tramite posta certificata",
	"chiamare il numero verde riservato ai dipendenti",
	"inserire il codice dispositivo ricevuto via sms",
	"verificare i dati anagrafici del cliente nel censimento",
	"allegare copia del documento di identità in corso di validità",
	"richiedere l'approvazione del responsabile di filiale",
	"selezionare la voce corrispondente nel pannello operativo",
	"stampare la ricevuta e farla firmare al cliente",
	"controllare lo stato della pratica nel fascicolo elettronico",
	"inviare la richiesta alla casella funzionale di back office",
	"eseguire nuovamente l'accesso con le credenziali aggiornate",
	"annotare il numero di protocollo assegnato alla pratica",
	"consultare la guida operativa pubblicata nella intranet",
	"attendere il ciclo notturno di aggiornamento dei sistemi",
	"abilitare i permessi richiesti dal profilo utente",
	"confermare l'operazione entro il termine indicato",
}

var statementTemplates = []string{
	"La procedura consente di %A %E %F.",
	"Il servizio permette alla clientela di %A %E.",
	"Gli operatori di filiale possono %A %E %F dopo il riconoscimento del cliente.",
	"Per motivi di sicurezza è previsto che il personale possa %A %E soltanto %F.",
	"La funzione per %A %E è disponibile %F.",
	"Il regolamento interno disciplina le modalità per %A %E.",
	"Prima di %A %E è opportuno verificare la documentazione del cliente.",
	"La richiesta di %A %E viene lavorata dal back office entro due giorni lavorativi.",
	"Il sistema registra ogni operazione eseguita per %A %E.",
	"L'operazione di %A %E richiede la firma del cliente.",
	"In presenza di anomalie sul profilo non è possibile %A %E.",
	"Il personale autorizzato può %A %E direttamente dal pannello operativo.",
	"La normativa vigente impone controlli aggiuntivi prima di %A %E %F.",
	"Il cliente riceve una notifica quando la banca conclude l'operazione di %A %E.",
}

var answerTemplates = []string{
	"Per %A %E %F è necessario %P.",
	"Per %A %E occorre %P e successivamente %P2.",
	"La modalità corretta per %A %E %F prevede di %P.",
	"Quando il cliente chiede di %A %E, l'operatore deve %P.",
}

var errorStatementTemplates = []string{
	"Il messaggio di errore %C compare durante il tentativo di %A %E.",
	"L'anomalia %C si verifica quando i dati inseriti non superano i controlli.",
	"L'errore %C è censito nel catalogo delle anomalie della piattaforma.",
	"Dopo la comparsa del codice %C l'operazione viene sospesa automaticamente.",
	"Il codice %C indica un problema nella fase di validazione della richiesta.",
}

var errorAnswerTemplates = []string{
	"In caso di errore %C è necessario %P.",
	"Per risolvere l'errore %C occorre %P e poi ripetere l'operazione.",
	"Alla comparsa del codice %C l'operatore deve %P.",
}

var closingSentences = []string{
	"Per ulteriori dettagli consultare la documentazione ufficiale nella intranet aziendale.",
	"In caso di dubbi contattare il referente di processo della propria struttura.",
	"La presente pagina è aggiornata alla più recente circolare interna.",
	"Eventuali eccezioni devono essere autorizzate dal responsabile competente.",
	"Il mancato rispetto della procedura può comportare rilievi di audit.",
}

var introSentences = []string{
	"Questa pagina descrive la procedura operativa di riferimento.",
	"Di seguito sono riportate le istruzioni destinate al personale di rete.",
	"La presente scheda riepiloga le regole operative in vigore.",
	"Il documento fornisce le indicazioni necessarie agli operatori.",
	"La scheda illustra i passaggi previsti dal processo interno.",
}

// domainFor maps a document kind to the paper's topic areas.
func domainFor(kind DocKind, jargon bool) (domain, section string) {
	switch kind {
	case TechnicalDoc:
		return "temi tecnici", "applicazioni"
	case ErrorDoc:
		if jargon {
			return "temi tecnici", "anomalie"
		}
		return "processi generali", "anomalie"
	case ProductDoc:
		return "applicazioni bancarie", "prodotti"
	default:
		return "processi generali", "procedure"
	}
}

// Generate builds a deterministic synthetic corpus.
func Generate(cfg GenConfig) *Corpus {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := BuildVocabulary(cfg.Seed + 1)

	c := &Corpus{
		Vocab:    vocab,
		byID:     make(map[string]int),
		clusters: make(map[string][]string),
	}

	codeSeq := 1000
	clusterSeq := 0
	for len(c.Docs) < cfg.Docs {
		roll := rng.Float64()
		switch {
		case roll < 0.07:
			// Error cluster: 2-8 near-duplicate docs. A cluster roll emits
			// several documents at once, so the roll probability is set so
			// that roughly a quarter of all documents end up in clusters —
			// the "significant amount of content replication" of §4.
			size := 2 + rng.Intn(7)
			if len(c.Docs)+size > cfg.Docs {
				size = cfg.Docs - len(c.Docs)
			}
			clusterSeq++
			clusterID := fmt.Sprintf("cl%04d", clusterSeq)
			c.generateErrorCluster(rng, clusterID, size, &codeSeq)
		case roll < 0.52:
			c.appendDoc(c.generateProcedureDoc(rng))
		case roll < 0.77:
			c.appendDoc(c.generateProductDoc(rng))
		default:
			c.appendDoc(c.generateTechnicalDoc(rng))
		}
	}
	return c
}

func (c *Corpus) appendDoc(d Doc) {
	d.ID = fmt.Sprintf("kb%05d", len(c.Docs))
	d.HTML = renderHTML(d)
	c.byID[d.ID] = len(c.Docs)
	if d.ClusterID != "" {
		c.clusters[d.ClusterID] = append(c.clusters[d.ClusterID], d.ID)
	}
	c.Docs = append(c.Docs, d)
}

// DocByID looks a document up.
func (c *Corpus) DocByID(id string) (Doc, bool) {
	i, ok := c.byID[id]
	if !ok {
		return Doc{}, false
	}
	return c.Docs[i], true
}

// Cluster returns the ids of all documents in the same near-duplicate
// cluster as id (including id itself).
func (c *Corpus) Cluster(id string) []string {
	d, ok := c.DocByID(id)
	if !ok || d.ClusterID == "" {
		return []string{id}
	}
	return c.clusters[d.ClusterID]
}

// SameTopic reports whether two documents cover the same operation: same
// entity and same action concepts.
func (c *Corpus) SameTopic(a, b string) bool {
	da, oka := c.DocByID(a)
	db, okb := c.DocByID(b)
	if !oka || !okb {
		return false
	}
	return da.entity.ID == db.entity.ID && da.action.ID == db.action.ID
}

// Lexicon returns the embedding lexicon for the corpus vocabulary.
func (c *Corpus) Lexicon() embedding.MapLexicon { return c.Vocab.Lexicon() }

// fill renders a template, substituting %A/%E/%F/%P/%P2/%C slots in one
// left-to-right pass: at each '%' the slots are tried in that order, %P2
// before %P, a substituted value is not scanned again, and a '%' that
// starts no slot is kept — what a strings.Replacer over the same pairs
// does, without building one per template.
func fill(tpl string, a, e, f, p, p2, code string) string {
	var b strings.Builder
	b.Grow(len(tpl) + len(a) + len(e) + len(f) + len(p) + len(p2) + len(code))
	for {
		i := strings.IndexByte(tpl, '%')
		if i < 0 {
			b.WriteString(tpl)
			break
		}
		b.WriteString(tpl[:i])
		tpl = tpl[i:]
		slot, val := 2, ""
		switch {
		case strings.HasPrefix(tpl, "%A"):
			val = a
		case strings.HasPrefix(tpl, "%E"):
			val = e
		case strings.HasPrefix(tpl, "%F"):
			val = f
		case strings.HasPrefix(tpl, "%P2"):
			slot, val = 3, p2
		case strings.HasPrefix(tpl, "%P"):
			val = p
		case strings.HasPrefix(tpl, "%C"):
			val = code
		default:
			slot, val = 1, "%"
		}
		b.WriteString(val)
		tpl = tpl[slot:]
	}
	s := b.String()
	// Collapse doubled spaces left by empty facets.
	for strings.Contains(s, "  ") {
		s = strings.ReplaceAll(s, "  ", " ")
	}
	s = strings.ReplaceAll(s, " .", ".")
	return s
}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

func pickConcept(rng *rand.Rand, pool []Concept) Concept { return pool[rng.Intn(len(pool))] }

// buildBody assembles paragraphs: intro, statements, the answer sentence in
// a middle paragraph, extra statements, closing. Paragraph and sentence
// counts are tuned so documents average ≈250 words over ≈7 paragraphs.
func buildBody(rng *rand.Rand, statements []string, answer string) []string {
	nParas := 6 + rng.Intn(4) // 6..9
	paras := make([]string, 0, nParas)
	paras = append(paras, pick(rng, introSentences))
	answerAt := 1 + rng.Intn(nParas-2)
	for i := 1; i < nParas-1; i++ {
		var sentences []string
		if i == answerAt {
			sentences = append(sentences, answer)
		}
		nSent := 2 + rng.Intn(3)
		for s := 0; s < nSent; s++ {
			sentences = append(sentences, statements[rng.Intn(len(statements))])
		}
		paras = append(paras, strings.Join(sentences, " "))
	}
	paras = append(paras, pick(rng, closingSentences))
	return paras
}

func (c *Corpus) generateProcedureDoc(rng *rand.Rand) Doc {
	e := pickConcept(rng, c.Vocab.Entities)
	a := pickConcept(rng, c.Vocab.Actions)
	f := pickConcept(rng, c.Vocab.Facets)
	p := pick(rng, procedurePhrases)
	p2 := pick(rng, procedurePhrases)

	answer := fill(pick(rng, answerTemplates), a.Canonical(), e.Canonical(), f.Canonical(), p, p2, "")
	var statements []string
	for _, tpl := range statementTemplates {
		statements = append(statements, fill(tpl, a.Canonical(), e.Canonical(), f.Canonical(), "", "", ""))
	}
	// Editors title about half the pages with the bare operation, leaving
	// the facet to the body — titles are a lossy summary of the content,
	// which is what makes aggressive title boosting counterproductive.
	title := strings.Title(a.Canonical()) + " " + e.Canonical()
	if rng.Float64() < 0.5 {
		title += " " + f.Canonical()
	}
	domain, section := domainFor(ProcedureDoc, false)
	return Doc{
		Kind: ProcedureDoc, Title: title,
		Paragraphs:     buildBody(rng, statements, answer),
		Domain:         domain,
		Section:        section,
		Topic:          e.ID,
		AnswerSentence: answer,
		entity:         e, action: a, facet: f,
	}
}

func (c *Corpus) generateProductDoc(rng *rand.Rand) Doc {
	e := pickConcept(rng, c.Vocab.Entities)
	a := pickConcept(rng, c.Vocab.Actions)
	f := pickConcept(rng, c.Vocab.Facets)
	p := pick(rng, procedurePhrases)

	answer := fill("Il prodotto %E consente di %A %F; per l'attivazione è necessario %P.",
		a.Canonical(), e.Canonical(), f.Canonical(), p, "", "")
	var statements []string
	for _, tpl := range statementTemplates {
		statements = append(statements, fill(tpl, a.Canonical(), e.Canonical(), f.Canonical(), "", "", ""))
	}
	statements = append(statements,
		fill("Le condizioni economiche di %E sono riportate nel foglio informativo.", "", e.Canonical(), "", "", "", ""),
		fill("Il collocamento di %E è riservato al personale abilitato.", "", e.Canonical(), "", "", "", ""),
	)
	title := "Scheda prodotto: " + e.Canonical()
	domain, section := domainFor(ProductDoc, false)
	return Doc{
		Kind: ProductDoc, Title: title,
		Paragraphs:     buildBody(rng, statements, answer),
		Domain:         domain,
		Section:        section,
		Topic:          e.ID,
		AnswerSentence: answer,
		entity:         e, action: a, facet: f,
	}
}

func (c *Corpus) generateTechnicalDoc(rng *rand.Rand) Doc {
	j := pickConcept(rng, c.Vocab.Jargon)
	a := pickConcept(rng, c.Vocab.Actions)
	f := pickConcept(rng, c.Vocab.Facets)
	p := pick(rng, procedurePhrases)
	p2 := pick(rng, procedurePhrases)

	answer := fill("Per %A tramite %E %F è necessario %P.", a.Canonical(), j.Canonical(), f.Canonical(), p, p2, "")
	statements := []string{
		fill("%E supporta le funzioni operative della rete commerciale.", "", strings.Title(j.Canonical()), "", "", "", ""),
		fill("L'accesso a %E avviene con le credenziali aziendali.", "", j.Canonical(), "", "", "", ""),
		fill("Gli aggiornamenti di %E vengono rilasciati nel fine settimana.", "", j.Canonical(), "", "", "", ""),
		fill("Il manuale utente di %E è pubblicato nella sezione documenti.", "", j.Canonical(), "", "", "", ""),
		fill("Per %A %F gli operatori utilizzano %E.", a.Canonical(), j.Canonical(), f.Canonical(), "", "", ""),
		fill("Le anomalie di %E vanno segnalate al presidio applicativo.", "", j.Canonical(), "", "", "", ""),
	}
	title := strings.Title(j.Canonical()) + ": guida operativa"
	domain, section := domainFor(TechnicalDoc, true)
	return Doc{
		Kind: TechnicalDoc, Title: title,
		Paragraphs:     buildBody(rng, statements, answer),
		Domain:         domain,
		Section:        section,
		Topic:          j.ID,
		AnswerSentence: answer,
		entity:         j, action: a, facet: f,
	}
}

// generateErrorCluster emits size near-duplicate error documents that share
// every sentence except the specific error code.
func (c *Corpus) generateErrorCluster(rng *rand.Rand, clusterID string, size int, codeSeq *int) {
	e := pickConcept(rng, c.Vocab.Entities)
	a := pickConcept(rng, c.Vocab.Actions)
	f := pickConcept(rng, c.Vocab.Facets)
	p := pick(rng, procedurePhrases)

	// Shared textual skeleton: statement templates and answer template are
	// chosen once per cluster so members differ only in the code.
	stmtTpls := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		stmtTpls = append(stmtTpls, pick(rng, errorStatementTemplates))
	}
	ansTpl := pick(rng, errorAnswerTemplates)
	bodySeed := rng.Int63()

	for k := 0; k < size; k++ {
		code := fmt.Sprintf("ERR-%04d", *codeSeq)
		*codeSeq++
		answer := fill(ansTpl, a.Canonical(), e.Canonical(), f.Canonical(), p, "", code)
		var statements []string
		for _, tpl := range stmtTpls {
			statements = append(statements, fill(tpl, a.Canonical(), e.Canonical(), f.Canonical(), "", "", code))
		}
		// Same body randomness for every cluster member -> near duplicates.
		bodyRng := rand.New(rand.NewSource(bodySeed))
		domain, section := domainFor(ErrorDoc, false)
		d := Doc{
			Kind:           ErrorDoc,
			Title:          "Errore " + code + " - " + a.Canonical() + " " + e.Canonical(),
			Paragraphs:     buildBody(bodyRng, statements, answer),
			Domain:         domain,
			Section:        section,
			Topic:          e.ID,
			AnswerSentence: answer,
			ClusterID:      clusterID,
			Code:           code,
			entity:         e, action: a, facet: f,
		}
		c.appendDoc(d)
	}
}

// renderHTML renders a Doc as the HTML page stored in the knowledge base.
func renderHTML(d Doc) string {
	var b strings.Builder
	b.WriteString("<html><head><title>")
	b.WriteString(escape(d.Title))
	b.WriteString("</title>\n")
	fmt.Fprintf(&b, "<meta name=\"domain\" content=\"%s\">\n", escape(d.Domain))
	fmt.Fprintf(&b, "<meta name=\"section\" content=\"%s\">\n", escape(d.Section))
	fmt.Fprintf(&b, "<meta name=\"topic\" content=\"%s\">\n", escape(d.Topic))
	b.WriteString("</head><body>\n<h1>")
	b.WriteString(escape(d.Title))
	b.WriteString("</h1>\n")
	for _, p := range d.Paragraphs {
		b.WriteString("<p>")
		b.WriteString(escape(p))
		b.WriteString("</p>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

// Stats summarizes corpus shape for diagnostics and EXPERIMENTS.md.
type Stats struct {
	Docs          int
	AvgWords      float64
	AvgParagraphs float64
	Clusters      int
	ClusteredDocs int
}

// ComputeStats scans the corpus.
func (c *Corpus) ComputeStats() Stats {
	s := Stats{Docs: len(c.Docs), Clusters: len(c.clusters)}
	totalWords, totalParas := 0, 0
	for _, d := range c.Docs {
		totalParas += len(d.Paragraphs)
		for _, p := range d.Paragraphs {
			totalWords += len(strings.Fields(p))
		}
		if d.ClusterID != "" {
			s.ClusteredDocs++
		}
	}
	if len(c.Docs) > 0 {
		s.AvgWords = float64(totalWords) / float64(len(c.Docs))
		s.AvgParagraphs = float64(totalParas) / float64(len(c.Docs))
	}
	return s
}
