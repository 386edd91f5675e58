package loadtest

import (
	"strings"
	"testing"
	"time"

	"uniask/internal/llm"
	"uniask/internal/vclock"
)

var epoch = time.Date(2025, 1, 1, 9, 0, 0, 0, time.UTC)

func runTest(t *testing.T, tokensPerMinute int, cfg Config) Report {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	svc := llm.NewService(llm.NewSim(llm.DefaultBehavior()), llm.ServiceConfig{
		TokensPerMinute: tokensPerMinute,
		BurstTokens:     tokensPerMinute,
		Clock:           clk,
	})
	return Run(svc, clk, cfg)
}

func TestPaperConfiguration(t *testing.T) {
	// 60 min, ramp 1->3 users/s: the cumulative arrivals are ~7200.
	rep := runTest(t, 0, Config{}) // no rate limit
	if rep.TotalRequests < 7100 || rep.TotalRequests > 7300 {
		t.Fatalf("requests = %d, want ~7200", rep.TotalRequests)
	}
	if rep.TotalFailures != 0 {
		t.Fatalf("failures with no limit = %d", rep.TotalFailures)
	}
	if rep.Config.TokensPerRequest != 7200 {
		t.Fatalf("tokens/request = %d", rep.Config.TokensPerRequest)
	}
}

func TestRampShape(t *testing.T) {
	rep := runTest(t, 0, Config{})
	// Request volume must increase across buckets (linear ramp).
	first := rep.Buckets[0].Requests
	last := rep.Buckets[len(rep.Buckets)-1].Requests
	if last <= first {
		t.Fatalf("ramp not increasing: first %d, last %d", first, last)
	}
	// The last bucket should see roughly 3x the arrival rate of the first.
	ratio := float64(last) / float64(first)
	if ratio < 2 || ratio > 3.5 {
		t.Fatalf("peak/initial bucket ratio = %.2f, want ~2.7", ratio)
	}
}

func TestFailuresConcentrateAtPeak(t *testing.T) {
	// With a quota below peak demand, failures must appear only in the
	// later buckets (the paper's test failed 267/7200 at peak).
	rep := runTest(t, 900_000, Config{})
	if rep.TotalFailures == 0 {
		t.Fatal("expected failures under peak demand")
	}
	half := len(rep.Buckets) / 2
	early, late := 0, 0
	for i, b := range rep.Buckets {
		if i < half {
			early += b.Failures
		} else {
			late += b.Failures
		}
	}
	if early > late {
		t.Fatalf("failures not concentrated at peak: early %d, late %d", early, late)
	}
}

func TestFailureRateMonotoneInQuota(t *testing.T) {
	low := runTest(t, 700_000, Config{})
	high := runTest(t, 1_100_000, Config{})
	if low.FailureRate() <= high.FailureRate() {
		t.Fatalf("failure rate not monotone: %.3f vs %.3f", low.FailureRate(), high.FailureRate())
	}
}

func TestMaxRequestsCap(t *testing.T) {
	rep := runTest(t, 0, Config{MaxRequests: 100})
	if rep.TotalRequests != 100 {
		t.Fatalf("requests = %d, want 100", rep.TotalRequests)
	}
}

func TestDeterministic(t *testing.T) {
	a := runTest(t, 900_000, Config{})
	b := runTest(t, 900_000, Config{})
	if a.TotalRequests != b.TotalRequests || a.TotalFailures != b.TotalFailures {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d",
			a.TotalRequests, a.TotalFailures, b.TotalRequests, b.TotalFailures)
	}
}

func TestReportString(t *testing.T) {
	rep := runTest(t, 900_000, Config{})
	out := rep.String()
	for _, want := range []string{"Figure 2", "ramp 1 -> 3", "7200 tokens/request", "failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCustomRamp(t *testing.T) {
	rep := runTest(t, 0, Config{
		Duration:         10 * time.Minute,
		InitialRate:      0.5,
		TargetRate:       1,
		TokensPerRequest: 100,
	})
	// Average rate 0.75/s over 600s ≈ 450 arrivals.
	if rep.TotalRequests < 400 || rep.TotalRequests > 500 {
		t.Fatalf("requests = %d, want ~450", rep.TotalRequests)
	}
}

func TestFailureRateEmpty(t *testing.T) {
	var r Report
	if r.FailureRate() != 0 {
		t.Fatal("empty report failure rate != 0")
	}
}
