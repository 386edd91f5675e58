package server

import (
	"sort"

	"uniask/internal/kb"
)

// Ground-truth harvesting (§8): the feedback form's last two fields — links
// to the documents containing the right answer, and free comments — were
// "extremely useful to gather ground-truth documents and answers for
// questions on which the system had failed". HarvestGroundTruth turns the
// accumulated feedback into an evaluation dataset for the next tuning
// iteration.

// HarvestGroundTruth builds a query dataset from one tenant's feedback
// entries that carry document links (document ids mean nothing outside
// their tenant's knowledge base). Entries for the same query are merged
// (links unioned); negative ratings are kept too — a user that links the
// right document after a bad answer is exactly the signal the team mined.
func (s *FeedbackStore) HarvestGroundTruth(tenantID string) kb.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()

	byQuery := make(map[string]map[string]bool)
	var order []string
	for _, f := range s.items {
		if f.Tenant != tenantID || f.Query == "" || len(f.Links) == 0 {
			continue
		}
		set, ok := byQuery[f.Query]
		if !ok {
			set = make(map[string]bool)
			byQuery[f.Query] = set
			order = append(order, f.Query)
		}
		for _, link := range f.Links {
			set[link] = true
		}
	}

	ds := kb.Dataset{Name: "harvested-feedback"}
	for i, q := range order {
		links := make([]string, 0, len(byQuery[q]))
		for l := range byQuery[q] {
			links = append(links, l)
		}
		sort.Strings(links)
		ds.Queries = append(ds.Queries, kb.Query{
			ID:       harvestID(i),
			Text:     q,
			Kind:     kb.HumanQuery,
			Relevant: links,
		})
	}
	return ds
}

func harvestID(i int) string {
	// f0000, f0001, ...
	digits := []byte{'f', '0', '0', '0', '0'}
	for p := 4; p >= 1 && i > 0; p-- {
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	return string(digits)
}

// NegativeFeedbackQueries returns the tenant's queries whose latest rating
// was negative — the failure sample the team reviewed weekly during the
// pilots.
func (s *FeedbackStore) NegativeFeedbackQueries(tenantID string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	latest := make(map[string]Feedback)
	var order []string
	for _, f := range s.items {
		if f.Tenant != tenantID || f.Query == "" {
			continue
		}
		if _, seen := latest[f.Query]; !seen {
			order = append(order, f.Query)
		}
		latest[f.Query] = f
	}
	var out []string
	for _, q := range order {
		if !latest[q].Positive() {
			out = append(out, q)
		}
	}
	return out
}
