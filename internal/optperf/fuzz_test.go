package optperf

import (
	"math"
	"testing"
)

// FuzzSolve feeds arbitrary (clamped-to-valid) models and batch sizes into
// the solver: it must never panic, every successful plan must satisfy the
// allocation invariants and never lose to the even split, and wherever the
// sample-by-sample greedy is cheap enough to run its time must be the plan's.
func FuzzSolve(f *testing.F) {
	f.Add(uint8(3), int64(48), 0.25, 0.01, 0.004, 1.0, 3.0)
	f.Add(uint8(16), int64(512), 0.05, 0.0, 0.0, 0.5, 10.0)
	f.Add(uint8(1), int64(1), 1.0, 0.5, 0.5, 1.0, 1.0)
	// Several nodes tie as slowest at the optimum; a search that moved one
	// sample off the single slowest node stopped short on all three.
	f.Add(uint8(9), int64(255), 0.001, 0.0, 0.0, 0.1, 88.8657371316289)
	f.Add(uint8(9), int64(261), 0.001, 0.001, 0.01, 0.1, 0.1)
	f.Add(uint8(4), int64(415), 0.125, 1.0, 0.0, 0.5, 10.0)
	f.Fuzz(func(t *testing.T, nRaw uint8, totalRaw int64, gamma, to, tu, speedLo, speedHi float64) {
		n := int(nRaw%32) + 1
		total := int(totalRaw % 100000)
		if total < 0 {
			total = -total
		}
		gamma = clampFinite(gamma, 1e-3, 1)
		to = clampFinite(to, 0, 1)
		tu = clampFinite(tu, 0, 1)
		speedLo = clampFinite(speedLo, 0.1, 100)
		speedHi = clampFinite(speedHi, speedLo, 200)

		nodes := make([]NodeModel, n)
		for i := range nodes {
			frac := float64(i+1) / float64(n)
			speed := speedLo + (speedHi-speedLo)*frac
			nodes[i] = NodeModel{
				Q: 1e-4 * speed,
				S: 1e-3 * frac,
				K: 2e-4 * speed,
				M: 1e-3 * (1 - frac/2),
			}
		}
		m := ClusterModel{Nodes: nodes, Gamma: gamma, To: to, Tu: tu}
		plan, err := mustAuditedSolve(t, m, total)
		if err != nil {
			return // infeasible inputs are fine; panics are not
		}
		sum := 0
		for _, b := range plan.Batches {
			if b < 1 {
				t.Fatalf("batch below minimum: %v", plan.Batches)
			}
			sum += b
		}
		if sum != total {
			t.Fatalf("sum %d != total %d", sum, total)
		}
		if plan.Time <= 0 || math.IsNaN(plan.Time) || math.IsInf(plan.Time, 0) {
			t.Fatalf("bad plan time %v", plan.Time)
		}
		if total*n <= 200000 {
			if ref := greedyTime(m, total); plan.Time != ref {
				t.Fatalf("plan %v at %v, greedy min-max %v", plan.Batches, plan.Time, ref)
			}
		}
		// Never worse than the even split.
		even := make([]int, n)
		base, rem := total/n, total%n
		for i := range even {
			even[i] = base
			if i < rem {
				even[i]++
			}
		}
		if evenOK := even[n-1] >= 1; evenOK {
			if te := m.PredictTime(even); plan.Time > te*(1+1e-9) {
				t.Fatalf("plan %v worse than even split %v", plan.Time, te)
			}
		}
	})
}

// greedyTime is Eq. 7's exact integer minimum by its definition: from
// minLocalBatch everywhere, each remaining sample goes to the node whose time
// after taking it is smallest.
func greedyTime(m ClusterModel, total int) float64 {
	batches := make([]int, len(m.Nodes))
	for i := range batches {
		batches[i] = minLocalBatch
	}
	for k := len(batches) * minLocalBatch; k < total; k++ {
		best, bestT := -1, math.Inf(1)
		for i, b := range batches {
			if c := m.Nodes[i].MaxBatch; c > 0 && b >= c {
				continue
			}
			if t := m.NodeTime(i, float64(b+1)); t < bestT {
				best, bestT = i, t
			}
		}
		batches[best]++
	}
	return m.PredictTime(batches)
}

func clampFinite(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
