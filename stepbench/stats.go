package main

import (
	"math"
	"sort"
)

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// so a repeat report matches how the benchmark's bounds are checked.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
