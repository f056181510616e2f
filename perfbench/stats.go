package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is read at, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// rank returns the nearest-rank percentile p of sorted samples.
func rank(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank 50th percentile (0 with no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return rank(sortedCopy(xs), 50)
}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value. Below eleven samples it falls back to the
// median.
func tail(xs []float64) (p, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailLadder {
		if k := int(math.Ceil(p / 100 * float64(n))); n-k >= 10 {
			return p, s[k-1]
		}
	}
	return 50, rank(s, 50)
}

// mean is the arithmetic mean (0 with no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
