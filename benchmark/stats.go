package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// with fewer beyond it, the percentile is a handful of outliers, not a
// tail. It is five times the usual ten because on a shared 2-core host one
// stall of 50–150 ms holds back every open-loop write queued behind it:
// over ten seeds of 1,000 mutation acks at 50/s, the interquartile spread
// across runs was 35% for p99, 23% for p98 and 14% for p95, against 12% for
// the median.
const minBeyond = 50

// tailPercentiles are the tail candidates, highest first. p99 is the
// highest the benchmark reports.
var tailPercentiles = []float64{99, 98, 95, 90, 75}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the two middle values for
// an even count), NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rank returns the nearest-rank index of percentile p in n sorted samples:
// the smallest index whose sample is at or above p percent of the data.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// beyond returns how many of n samples lie above the nearest-rank
// percentile p.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tail reports the highest percentile of xs, up to p99, that has at least
// minBeyond samples beyond it, with its value and the count beyond. A
// sample too small for any tail percentile reports its median as p50.
func tail(xs []float64) (value, pct float64, over int) {
	s := sorted(xs)
	for _, p := range tailPercentiles {
		if n := beyond(len(s), p); n >= minBeyond {
			return s[rank(len(s), p)], p, n
		}
	}
	return median(xs), 50, len(xs) / 2
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed exactly as Python's statistics.quantiles(xs, n=4) does (the
// default "exclusive" method). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the first and third quartile of xs as a
// share of its median — the run-to-run noise the bounds are set against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}
