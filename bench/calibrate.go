package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference host's CPU speed is not constant: a pure floating-point
// loop on it runs anywhere between 0.8x and 1.2x of its usual rate, in
// plateaus of seconds to minutes (a neighbour's load, frequency scaling).
// A 15 s window therefore sees a speed no other window sees, and raw
// wall-clock metrics spread by 7-20% run to run however much work they
// average.
//
// So every timed window is calibrated: between calls of the workload the
// benchmark runs a short fixed probe for about probeShare of the time the
// calls take, and the window's timings are divided by how much slower than
// nominal the probes ran. Dense probing matters — probes after every call
// track the plateaus; one per window does not. Measured on ten-run sets,
// calibration leaves a calm host's spreads where they were (5-9%) and
// brings a shifting host's 12-19% down to 2-9%.

const (
	// probeNominal is how long one probe takes on the reference host at
	// its usual speed, so calibrated figures read as reference-host time.
	probeNominal = 30 * time.Millisecond
	// probeShare is the share of a window's call time spent probing.
	probeShare = 0.07
)

var probeSink [64]float64

var probeData = func() []float64 {
	a := make([]float64, 1<<15)
	for i := range a {
		a[i] = float64(i)
	}
	return a
}()

// probe runs a fixed amount of floating-point work on every P in lock
// step — like the workloads, it is as slow as its slowest thread — and
// returns the wall time.
func probe() time.Duration {
	n := min(runtime.GOMAXPROCS(0), len(probeSink))
	start := time.Now()
	for chunk := 0; chunk < 96; chunk++ {
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := 0.0
				for k := 0; k < 12; k++ {
					for _, v := range probeData {
						s += v * 1.0000001
					}
				}
				probeSink[g] = s
			}(g)
		}
		wg.Wait()
	}
	return time.Since(start)
}

// speed accumulates a window's probes.
type speed struct {
	probes   int
	probeSum time.Duration
}

// probe samples the host's speed after a call (or round) that took since:
// as many probes as keep probing at probeShare of the calls' time, at least
// one.
func (s *speed) probe(since time.Duration) {
	n := max(1, int(probeShare*float64(since)/float64(probeNominal)))
	for i := 0; i < n; i++ {
		s.probeSum += probe()
		s.probes++
	}
}

// slowdown is how much slower than nominal the host ran during the window
// (1 = nominal; 1.2 = everything took 20% longer). Timings are divided by
// it, rates multiplied.
func (s *speed) slowdown() float64 {
	if s.probes == 0 {
		return 1
	}
	return float64(s.probeSum) / float64(s.probes) / float64(probeNominal)
}
