package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v by
// the same rule as Python's statistics.quantiles(v, n=4) (exclusive
// method), so a spread computed here matches one computed from the same
// samples by a script. Fewer than two samples have no spread: all three
// results are the single value (or NaN for none).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the p-th percentile (0..100) of v by nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ratio returns num/den, or 0 when den is 0 (a share of nothing).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
