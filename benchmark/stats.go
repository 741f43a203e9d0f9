package main

import (
	"math"
	"sort"

	"semcc/internal/obs"
)

// median returns the middle value (the mean of the two middle ones for
// an even count); 0 for none. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the sample
// at or below it. 0 for an empty sample.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// pool concatenates the clients' samples and sorts them: percentiles are
// taken over all measured roots at once, never averaged over clients or
// segments.
func pool(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// histQuantile estimates the q-quantile of a log₂ histogram, placing the
// rank inside its bucket [2^(i-1), 2^i) by linear interpolation
// (obs.HistSnap.Quantile returns the bucket midpoint, which moves only
// by factors of two).
func histQuantile(s obs.HistSnap, q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range s.B {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			return lo + lo*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}
