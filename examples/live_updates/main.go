// Live updates: exercise the §3 ingestion flow end to end — the knowledge
// base is edited while the system is serving, the ingester polls for
// modifications every 15 (virtual) minutes, and the index reflects edits
// and deletions without a rebuild.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"uniask"
	"uniask/internal/ingest"
	"uniask/internal/vclock"
)

// editableKB is a mutable page source standing in for the bank's CMS.
type editableKB struct{ pages map[string]string }

func (k *editableKB) Pages() []ingest.Page {
	var out []ingest.Page
	for id, html := range k.pages {
		out = append(out, ingest.Page{ID: id, HTML: html})
	}
	return out
}

func page(title, body string) string {
	return "<html><head><title>" + title + "</title></head><body><h1>" + title + "</h1><p>" + body + "</p></body></html>"
}

func main() {
	ctx := context.Background()
	sys := uniask.New(uniask.Config{})
	engine := sys.Engine()

	kbase := &editableKB{pages: map[string]string{
		"pg1": page("Blocco carta di credito", "Per bloccare la carta chiamare il numero verde 800-001."),
		"pg2": page("Bonifico estero", "Il bonifico estero richiede il codice BIC della banca beneficiaria."),
	}}

	clk := vclock.NewVirtual(time.Date(2025, 6, 1, 8, 0, 0, 0, time.UTC))
	sync := engine.NewPoller(ctx, kbase)

	show := func(q string) {
		res, err := sys.Search(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		if len(res) == 0 {
			fmt.Printf("  %-28q -> (nessun risultato)\n", q)
			return
		}
		fmt.Printf("  %-28q -> %s: %.60s…\n", q, res[0].ParentID, res[0].Content)
	}

	fmt.Println("T+0: initial sync")
	if _, err := sync(); err != nil {
		log.Fatal(err)
	}
	show("numero verde blocco carta")

	fmt.Println("\nT+15m: the editors change the toll-free number")
	kbase.pages["pg1"] = page("Blocco carta di credito", "Per bloccare la carta chiamare il NUOVO numero verde 800-999.")
	clk.Advance(ingest.DefaultPollInterval)
	if _, err := sync(); err != nil {
		log.Fatal(err)
	}
	show("numero verde blocco carta")

	fmt.Println("\nT+30m: the bonifico page is retired, a new one appears")
	delete(kbase.pages, "pg2")
	kbase.pages["pg3"] = page("Bonifico istantaneo", "Il bonifico istantaneo è accreditato in dieci secondi.")
	clk.Advance(ingest.DefaultPollInterval)
	if _, err := sync(); err != nil {
		log.Fatal(err)
	}
	show("bonifico estero codice BIC")
	show("bonifico istantaneo")

	fmt.Printf("\nindex: %d chunks ever inserted, %d live\n",
		engine.Index.Len(), engine.Index.LiveLen())
}
