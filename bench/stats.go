package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (pos-float64(lo))*(asc[hi]-asc[lo])
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile is the guide's rule for which tail to report beside the
// median: the highest of the usual percentiles that still has at least ten
// samples beyond it. Below 20 samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		p    float64
		minN int // ten samples beyond the percentile
	}{{75, 40}, {90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}} {
		if n >= c.minN {
			best = c.p
		}
	}
	return best
}

// spread is the interquartile range as a share of the median — the
// run-to-run steadiness figure the bounds are judged against. Quartiles
// follow Python's statistics.quantiles(values, n=4) (exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	asc := sorted(xs)
	q := func(k int) float64 {
		m, ld := k*(len(asc)+1), len(asc)
		j := m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(m - 4*j)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	med := percentile(asc, 50)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
