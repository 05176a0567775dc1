package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return xs
}

func TestTailKeepsFiftySamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{5000, 4950, 99, 50}, // p99 of 5000 leaves exactly fifty above it
		{4999, 4900, 98, 99}, // p99 would leave forty-nine: fall back to p98
		{12800, 12672, 99, 128},
		{1000, 950, 95, 50},
		{600, 540, 90, 60}, // p95 leaves thirty
		{200, 150, 75, 50},
		{199, 100, 50, 99}, // no tail percentile leaves fifty: the median
		{16, 8.5, 50, 8},
	} {
		v, p, over := tail(seq(tc.n))
		if v != tc.value || p != tc.pct || over != tc.beyond {
			t.Errorf("tail of 1..%d = %v at p%v with %d beyond, want %v at p%v with %d", tc.n, v, p, over, tc.value, tc.pct, tc.beyond)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{0.5, 0.25}, 0.1875, 0.375, 0.5625},
		{[]float64{7, 1, 3}, 1, 3, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
