package main

import "sort"

// median is the middle of xs (the mean of the two middles for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples the tail percentile leaves above it.
const tailBeyond = 10

// tailOf returns the sample at the highest percentile that has at least
// tailBeyond samples beyond it, that percentile, and the number of
// samples beyond it. With tailBeyond or fewer samples no percentile
// qualifies; the minimum is returned, the sample with the most beyond it.
func tailOf(xs []float64) (value, percentile float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	k := max(n-tailBeyond-1, 0)
	return s[k], 100 * float64(k+1) / float64(n), n - k - 1
}
