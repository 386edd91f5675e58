// Package loadtest implements the open-system load test of §9 (Figure 2):
// users keep arriving regardless of how many are already in the system, the
// arrival rate ramps from an initial to a target level over the test
// window, every request carries a fixed token payload, and the LLM service
// — the rate limiter of the whole application — either serves or rejects
// each request. The test runs on a virtual clock, so the paper's 60-minute
// window completes in milliseconds, and reports the failed-query count used
// to size the token quota empirically.
package loadtest

import (
	"context"
	"fmt"
	"strings"
	"time"

	"uniask/internal/llm"
	"uniask/internal/pipeline"
	"uniask/internal/vclock"
)

// StageLLM is the stage name load-test requests report under.
const StageLLM = "llm"

// Config describes a load test. The zero value reproduces the paper's run:
// 60 minutes, ramp from 1 to 3 users/second, 7200 tokens per request.
type Config struct {
	// Duration is the test window (default 60 min).
	Duration time.Duration
	// InitialRate and TargetRate are user arrivals per second at the start
	// and end of the window; the ramp is linear (defaults 1 and 3).
	InitialRate, TargetRate float64
	// TokensPerRequest is the fixed request payload (default 7200).
	TokensPerRequest int
	// MaxRequests optionally caps total arrivals (the paper reports 7200
	// requests in the window; 0 = no cap).
	MaxRequests int
	// Observer, when set, receives one "llm" stage report per request
	// (wall-clock latency, token payload as input size, rejections as
	// errors) — the same hook the query pipeline uses, so the monitoring
	// dashboard can aggregate load-test traffic.
	Observer pipeline.Observer
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 60 * time.Minute
	}
	if c.InitialRate <= 0 {
		c.InitialRate = 1
	}
	if c.TargetRate <= 0 {
		c.TargetRate = 3
	}
	if c.TokensPerRequest <= 0 {
		c.TokensPerRequest = 7200
	}
	return c
}

// Bucket is one time slice of the report.
type Bucket struct {
	// Start is the offset of the slice from the test start.
	Start time.Duration
	// Requests and Failures count arrivals and rejections in the slice.
	Requests, Failures int
}

// Report is the outcome of a load test (the data behind Figure 2).
type Report struct {
	Config        Config
	TotalRequests int
	TotalFailures int
	Buckets       []Bucket
}

// FailureRate is failures/requests.
func (r Report) FailureRate() float64 {
	if r.TotalRequests == 0 {
		return 0
	}
	return float64(r.TotalFailures) / float64(r.TotalRequests)
}

// Run executes the load test against the LLM service on the virtual clock.
// Requests are issued at deterministic arrival times from the linear ramp;
// each request calls the service once and counts rate-limit rejections as
// failures.
func Run(svc *llm.Service, clk *vclock.Virtual, cfg Config) Report {
	cfg = cfg.withDefaults()
	rep := Report{Config: cfg}

	// Precompute arrival offsets from the linear ramp: the instantaneous
	// rate at fraction f of the window is I + (T-I)*f; integrate to get the
	// cumulative arrivals and invert per-arrival.
	dur := cfg.Duration.Seconds()
	rate := func(tSec float64) float64 {
		f := tSec / dur
		return cfg.InitialRate + (cfg.TargetRate-cfg.InitialRate)*f
	}
	var arrivals []float64
	t := 0.0
	for t < dur {
		r := rate(t)
		if r <= 0 {
			break
		}
		t += 1 / r
		if t >= dur {
			break
		}
		arrivals = append(arrivals, t)
		if cfg.MaxRequests > 0 && len(arrivals) >= cfg.MaxRequests {
			break
		}
	}

	// Fixed-size request payload.
	payload := strings.Repeat("tok ", cfg.TokensPerRequest)
	req := llm.Request{
		Messages:  []llm.Message{{Role: llm.User, Content: payload}},
		MaxTokens: 1,
	}

	nBuckets := 12
	bucketLen := cfg.Duration / time.Duration(nBuckets)
	rep.Buckets = make([]Bucket, nBuckets)
	for i := range rep.Buckets {
		rep.Buckets[i].Start = time.Duration(i) * bucketLen
	}

	obs := pipeline.OrNop(cfg.Observer)
	prev := 0.0
	for _, at := range arrivals {
		clk.Advance(time.Duration((at - prev) * float64(time.Second)))
		prev = at
		rep.TotalRequests++
		start := time.Now()
		_, err := svc.Complete(context.Background(), req)
		out := 1
		if err != nil {
			out = 0
		}
		obs.ObserveStage(pipeline.StageInfo{
			Stage: StageLLM, Duration: time.Since(start),
			In: cfg.TokensPerRequest, Out: out, Err: err,
		})
		bi := int(at / dur * float64(nBuckets))
		if bi >= nBuckets {
			bi = nBuckets - 1
		}
		rep.Buckets[bi].Requests++
		if err != nil {
			rep.TotalFailures++
			rep.Buckets[bi].Failures++
		}
	}
	return rep
}

// String renders an ASCII report of requests/failures per time slice.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Load test on the LLM service\n")
	fmt.Fprintf(&b, "window %v, ramp %.0f -> %.0f users/s, %d tokens/request\n",
		r.Config.Duration, r.Config.InitialRate, r.Config.TargetRate, r.Config.TokensPerRequest)
	fmt.Fprintf(&b, "total: %d requests, %d failed (%.1f%%)\n",
		r.TotalRequests, r.TotalFailures, 100*r.FailureRate())
	maxReq := 1
	for _, bk := range r.Buckets {
		if bk.Requests > maxReq {
			maxReq = bk.Requests
		}
	}
	for _, bk := range r.Buckets {
		bar := strings.Repeat("#", bk.Requests*40/maxReq)
		fail := strings.Repeat("x", failBarLen(bk, maxReq))
		fmt.Fprintf(&b, "%6s | %-40s%s %d req, %d fail\n",
			bk.Start.Truncate(time.Minute), bar, fail, bk.Requests, bk.Failures)
	}
	return b.String()
}

func failBarLen(bk Bucket, maxReq int) int {
	n := bk.Failures * 40 / maxReq
	if bk.Failures > 0 && n == 0 {
		n = 1
	}
	return n
}
