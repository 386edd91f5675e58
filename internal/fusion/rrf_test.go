package fusion

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRRFSingleRanking(t *testing.T) {
	out := RRF([]Ranking{{"a", "b", "c"}}, 60)
	if len(out) != 3 || out[0].ID != "a" || out[1].ID != "b" || out[2].ID != "c" {
		t.Fatalf("out = %v", out)
	}
	want := 1.0 / 61
	if math.Abs(out[0].Score-want) > 1e-12 {
		t.Fatalf("score = %v, want %v", out[0].Score, want)
	}
}

func TestRRFAgreementWins(t *testing.T) {
	// "b" is ranked 2nd by both lists; "a" and "c" are 1st in one list only.
	out := RRF([]Ranking{{"a", "b"}, {"c", "b"}}, 60)
	if out[0].ID != "b" {
		t.Fatalf("consensus doc should win: %v", out)
	}
}

func TestRRFDefaultConstant(t *testing.T) {
	a := RRF([]Ranking{{"x"}}, 0)  // invalid -> default
	b := RRF([]Ranking{{"x"}}, 60) // explicit default
	if a[0].Score != b[0].Score {
		t.Fatalf("default constant not applied: %v vs %v", a[0].Score, b[0].Score)
	}
}

func TestRRFEmpty(t *testing.T) {
	if out := RRF(nil, 60); len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
	if out := RRF([]Ranking{{}, {}}, 60); len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
}

func TestRRFDeterministicTieBreak(t *testing.T) {
	// Same rank in disjoint lists -> identical scores -> order by id.
	out := RRF([]Ranking{{"zz"}, {"aa"}}, 60)
	if out[0].ID != "aa" || out[1].ID != "zz" {
		t.Fatalf("tie-break wrong: %v", out)
	}
}

// Property: fused scores decrease monotonically and every input id appears
// exactly once.
func TestRRFProperties(t *testing.T) {
	f := func(ids []string) bool {
		// Build two rankings from the same unique ids (forward/reverse).
		seen := map[string]bool{}
		var unique Ranking
		for _, id := range ids {
			if id == "" || seen[id] {
				continue
			}
			seen[id] = true
			unique = append(unique, id)
		}
		rev := make(Ranking, len(unique))
		for i, id := range unique {
			rev[len(unique)-1-i] = id
		}
		out := RRF([]Ranking{unique, rev}, 60)
		if len(out) != len(unique) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].Score < out[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a forward and a reversed ranking of distinct ids, middle
// elements (balanced ranks) score at least as well as the extremes' average
// — sanity of the 1/(rank+c) curve shape.
func TestRRFSymmetricPair(t *testing.T) {
	out := RRF([]Ranking{{"a", "m", "z"}, {"z", "m", "a"}}, 60)
	// a and z have identical summed scores; m is strictly between or above.
	var am, zm, mm float64
	for _, f := range out {
		switch f.ID {
		case "a":
			am = f.Score
		case "z":
			zm = f.Score
		case "m":
			mm = f.Score
		}
	}
	if math.Abs(am-zm) > 1e-12 {
		t.Fatalf("a and z should tie: %v vs %v", am, zm)
	}
	if mm <= 0 || am <= 0 {
		t.Fatal("scores must be positive")
	}
}
