package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPermille are the candidate tail percentiles, in tenths of a
// percent, highest first.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it (50 when n is below 20).
func tailPercentile(n int) float64 {
	for _, p := range tailPermille {
		if n*(1000-p)/1000 >= 10 {
			return float64(p) / 10
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
