package main

import (
	"math"
	"runtime"
	"sort"
)

// The benchmark reports CPU times at a reference speed. On a shared host
// the speed a vCPU delivers moves with the other guests' load: between
// runs of the same code minutes apart, every CPU time of a run moved
// together by up to 20%, whatever the seed, while the hypervisor's steal
// stayed under 2% (see README.md). So the benchmark also times a fixed
// piece of work of its own, calibrate, at set-up and before every round,
// and scales each of the run's CPU times by calRefMs over the run's
// median calibration time: a timing then reads what it would on a host
// where calibrate takes calRefMs, about what it takes on the 2-vCPU host
// the figures in README.md come from. The program under test cannot
// change calibrate, so a change to the program moves its timings and not
// the scale.
const calRefMs = 20.0

// calReps is how many times calibrate runs at each point.
const calReps = 3

var calSink float64

// calData is calibrate's fixed input for the sort.
var calData = func() []float64 {
	out := make([]float64, 1<<15)
	x := uint64(88172645463325252)
	for i := range out {
		x = xorshift(x)
		out[i] = float64(x%100000) / 7
	}
	return out
}()

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibrate runs a fixed mix of the kinds of work the program does —
// hash-map updates, floating-point math, a sort — and returns the CPU
// time it took, in ms. It runs after a collection and with no request in
// flight, so no other work of the process falls into its interval.
func calibrate() float64 {
	runtime.GC()
	end := clock()
	m := make(map[uint64]uint64, 1<<14)
	x, acc := uint64(1), 0.0
	for i := 0; i < 1<<18; i++ {
		x = xorshift(x)
		m[x&(1<<15-1)] += x
		acc += math.Exp(-float64(x%1000) / 500)
	}
	s := append([]float64(nil), calData...)
	sort.Float64s(s)
	calSink += acc + s[0] + float64(len(m))
	return end().cpu
}

// calibrateN appends calReps calibration times to cal.
func calibrateN(cal []float64) []float64 {
	for k := 0; k < calReps; k++ {
		cal = append(cal, calibrate())
	}
	return cal
}
