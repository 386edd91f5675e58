package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks, so the value moves continuously
// with the samples instead of jumping between neighbours. sorted must be
// ascending; an empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// minTailSamples is how many samples must lie beyond a percentile before
// it is reported: with fewer, the value is one or two outliers, not a
// property of the distribution.
const minTailSamples = 10

// tailPermille are the candidates for "the highest percentile the sample
// supports", highest first, in tenths of a percent so the count is exact.
var tailPermille = []int{999, 990, 950, 900}

// supportedTail returns the highest candidate percentile that has at least
// minTailSamples samples beyond it among n, or 0 when none has.
func supportedTail(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= minTailSamples*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// iqrShare is the distance between the first and third quartile as a share
// of the median — the run-to-run spread the benchmark's bounds are judged
// against. Quartiles follow Python's statistics.quantiles(values, n=4)
// (exclusive method), which is what the acceptance driver computes.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
