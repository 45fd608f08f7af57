package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// tailLadder are the percentiles a timing's tail is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// describe summarises a timing distribution for the human-readable
// report: the median, the highest percentile of tailLadder with at least
// ten samples beyond it, and the sample count.
func describe(xs []float64) string {
	n := len(xs)
	out := fmt.Sprintf("n=%d median=%.6g", n, median(xs))
	for _, p := range tailLadder {
		if (1-p/100)*float64(n) >= 10 {
			return out + fmt.Sprintf(" p%g=%.6g", p, percentile(xs, p))
		}
	}
	return out + " (too few samples for a tail percentile)"
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
