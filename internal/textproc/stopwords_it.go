package textproc

// italianStopwords is the Italian stop-word list used by the analyzer. It
// follows the Snowball/Lucene Italian list, which is what the
// it-analyzer-lucene-full analyzer named in the paper applies.
var italianStopwords = map[string]struct{}{}

func init() {
	words := []string{
		"ad", "al", "allo", "ai", "agli", "all", "agl", "alla", "alle",
		"con", "col", "coi", "da", "dal", "dallo", "dai", "dagli", "dall",
		"dagl", "dalla", "dalle", "di", "del", "dello", "dei", "degli",
		"dell", "degl", "della", "delle", "in", "nel", "nello", "nei",
		"negli", "nell", "negl", "nella", "nelle", "su", "sul", "sullo",
		"sui", "sugli", "sull", "sugl", "sulla", "sulle", "per", "tra",
		"contro", "io", "tu", "lui", "lei", "noi", "voi", "loro", "mio",
		"mia", "miei", "mie", "tuo", "tua", "tuoi", "tue", "suo", "sua",
		"suoi", "sue", "nostro", "nostra", "nostri", "nostre", "vostro",
		"vostra", "vostri", "vostre", "mi", "ti", "ci", "vi", "lo", "la",
		"li", "le", "gli", "ne", "il", "un", "uno", "una", "ma", "ed",
		"se", "perche", "perché", "anche", "come", "dov", "dove", "che",
		"chi", "cui", "non", "piu", "più", "quale", "quanto", "quanti",
		"quanta", "quante", "quello", "quelli", "quella", "quelle",
		"questo", "questi", "questa", "queste", "si", "tutto", "tutti",
		"a", "c", "e", "i", "l", "o", "ho", "hai", "ha", "abbiamo",
		"avete", "hanno", "abbia", "abbiate", "abbiano", "avro", "avrò",
		"avrai", "avra", "avrà", "avremo", "avrete", "avranno", "avrei",
		"avresti", "avrebbe", "avremmo", "avreste", "avrebbero", "avevo",
		"avevi", "aveva", "avevamo", "avevate", "avevano", "ebbi",
		"avesti", "ebbe", "avemmo", "aveste", "ebbero", "avessi",
		"avesse", "avessimo", "avessero", "avendo", "avuto", "avuta",
		"avuti", "avute", "sono", "sei", "siamo", "siete", "sia",
		"siate", "siano", "saro", "sarò", "sarai", "sara", "sarà",
		"saremo", "sarete", "saranno", "sarei", "saresti", "sarebbe",
		"saremmo", "sareste", "sarebbero", "ero", "eri", "era",
		"eravamo", "eravate", "erano", "fui", "fosti", "fu", "fummo",
		"foste", "furono", "fossi", "fosse", "fossimo", "fossero",
		"essendo", "faccio", "fai", "facciamo", "fanno", "faccia",
		"facciate", "facciano", "faro", "farò", "farai", "fara", "farà",
		"faremo", "farete", "faranno", "farei", "faresti", "farebbe",
		"faremmo", "fareste", "farebbero", "facevo", "facevi", "faceva",
		"facevamo", "facevate", "facevano", "feci", "facesti", "fece",
		"facemmo", "faceste", "fecero", "facessi", "facesse",
		"facessimo", "facessero", "facendo", "sto", "stai", "sta",
		"stiamo", "stanno", "stia", "stiate", "stiano", "staro", "starò",
		"starai", "stara", "starà", "staremo", "starete", "staranno",
		"starei", "staresti", "starebbe", "staremmo", "stareste",
		"starebbero", "stavo", "stavi", "stava", "stavamo", "stavate",
		"stavano", "stetti", "stesti", "stette", "stemmo", "steste",
		"stettero", "stessi", "stesse", "stessimo", "stessero", "stando",
		"è", "e'", "era'", "già", "gia", "fa", "poi", "qui", "qua",
		"quando", "cosa", "cosi", "così", "deve", "devo", "devi",
		"dobbiamo", "dovete", "devono", "puo", "può", "posso", "puoi",
		"possiamo", "potete", "possono", "essere", "fare", "ogni",
		"senza", "sopra", "sotto", "dopo", "prima", "durante",
	}
	for _, w := range words {
		italianStopwords[w] = struct{}{}
	}
}

// IsStopword reports whether the (already lower-cased) term is an Italian
// stop word.
func IsStopword(term string) bool {
	_, ok := italianStopwords[term]
	return ok
}
