package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// latencies holds one run's raw per-op samples. Quantiles come from
// the sorted samples themselves, never from bucketed histograms.
type latencies []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples: the smallest sample with at least q·n samples at or below
// it. An empty set has no quantile and yields 0.
func quantile(sorted latencies, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(q, len(sorted))-1]
}

// nearestRank returns the 1-based rank of the q-quantile among n > 0
// samples.
func nearestRank(q float64, n int) int {
	// The epsilon keeps q·n exact-integer products (0.99·1000) from
	// rounding up a rank through binary representation error.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// tailLadder lists the percentiles a run may report beyond the median.
var tailLadder = []float64{90, 99, 99.9, 99.99, 99.999}

// minTail is how many samples must lie beyond a percentile before a
// run reports it.
const minTail = 10

// resolvedTail returns the highest percentile of tailLadder with at
// least minTail samples beyond it among n samples, or 0 when even the
// lowest has too few.
func resolvedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n > 0 && n-nearestRank(p/100, n) >= minTail {
			best = p
		}
	}
	return best
}

// summary describes a run's sorted latency samples for the report:
// count, median, p99 and the highest resolved percentile.
func (s latencies) summary() string {
	tail := resolvedTail(len(s))
	out := fmt.Sprintf("samples=%d p50=%.4fms p99=%.4fms", len(s), ms(quantile(s, 0.50)), ms(quantile(s, 0.99)))
	if tail > 0 {
		out += fmt.Sprintf(" highest-resolved=p%g:%.4fms", tail, ms(quantile(s, tail/100)))
	} else {
		out += " highest-resolved=none"
	}
	return out
}

// sorted returns a sorted copy of the samples.
func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per divides, yielding 0 for an empty base.
func per(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}
