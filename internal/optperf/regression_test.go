package optperf

import (
	"math"
	"testing"
)

// Regression tests for the three allocation bugs surfaced by the audit
// harness. Each of these fails against the pre-fix solver.

// TestWaterfillResidueRespectsCaps: on extreme models the bisection in
// waterfill hits its range limit and leaves a large residue. The pre-fix
// code dumped the whole residue onto out[0], blowing through that node's
// MaxBatch cap; it must instead flow to nodes with slack.
func TestWaterfillResidueRespectsCaps(t *testing.T) {
	m := ClusterModel{
		Nodes: []NodeModel{
			// Both nodes are so slow (Q=1e10) that sumAt(1e12) is tiny and
			// the bisection upper bound caps out, leaving most of the total
			// as residue. Node 0 is capped; node 1 is unbounded.
			{Q: 1e10, S: 0.1, K: 1, M: 0.1, MaxBatch: 150},
			{Q: 1e10, S: 0.1, K: 1, M: 0.1},
		},
		Gamma: 0.5,
		To:    0.01,
		Tu:    0.01,
	}
	total := 1000.0
	out := waterfill(m, []int{0, 1}, total)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-total) > 1e-6*total {
		t.Fatalf("waterfill lost batch: sum %v want %v (out %v)", sum, total, out)
	}
	if out[0] > float64(m.Nodes[0].MaxBatch)+1e-9 {
		t.Fatalf("residue pushed node 0 above its cap: %v > %d", out[0], m.Nodes[0].MaxBatch)
	}
	if out[1] < minLocalBatch {
		t.Fatalf("node 1 below min: %v", out[1])
	}
}

// TestRoundAllocationMinClampPriority: a node whose floor was clamped up to
// minLocalBatch already holds more than its continuous share. The pre-fix
// code still ranked it by the raw fractional part (here 0.9, the largest),
// so it also won the remainder unit that belonged to a faster node.
func TestRoundAllocationMinClampPriority(t *testing.T) {
	cont := []float64{0.9, 3.55, 3.55}
	batches, err := roundAllocation(cont, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := batches[0] + batches[1] + batches[2]; got != 8 {
		t.Fatalf("sum %d want 8 (%v)", got, batches)
	}
	if batches[0] != 1 {
		t.Fatalf("min-clamped node stole the remainder unit: %v (want batches[0]=1)", batches)
	}
}

// TestRoundAllocationCapClampPriority: a node clamped down to its cap wants
// far more than it holds and must be the last to lose a unit when the floors
// overshoot. The pre-fix code ranked it by the raw fractional part (0.0, the
// smallest), so it lost a unit below a cap it should stay pinned at.
func TestRoundAllocationCapClampPriority(t *testing.T) {
	cont := []float64{250.0, 2.6, 2.7, 1.4}
	batches, err := roundAllocation(cont, 104, []int{100, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, b := range batches {
		sum += b
	}
	if sum != 104 {
		t.Fatalf("sum %d want 104 (%v)", sum, batches)
	}
	if batches[0] != 100 {
		t.Fatalf("cap-clamped node lost a unit it was owed: %v (want batches[0]=100)", batches)
	}
}

// TestSolveEqualizesPastMinPinnedCritical: when the critical node is stuck
// at minLocalBatch its time is a fixed floor on the batch time, but the rest
// of the cluster must still be equalized. A pre-fix local search aborted at
// the pinned critical node and left the healthy nodes skewed.
func TestSolveEqualizesPastMinPinnedCritical(t *testing.T) {
	m := ClusterModel{
		Nodes: []NodeModel{
			{Q: 1.0, S: 0.1, K: 0.1, M: 0.01}, // pathologically slow, pinned at min
			{Q: 0.001, S: 0.004, K: 0.001, M: 0.002},
			{Q: 0.001, S: 0.004, K: 0.001, M: 0.002},
		},
		Gamma: 0.25,
		To:    0.0001,
		Tu:    0.0001,
	}
	plan, err := Solve(m, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 2 are identical, so the healthy sub-cluster splits 6/6.
	if got := plan.Batches; got[0] != 1 || got[1] != 6 || got[2] != 6 {
		t.Fatalf("batches %v, want [1 6 6]", got)
	}
}

// TestBoundarySearchOnExtremeSpread: on this extreme coefficient spread a
// search over only the nodes the two checks disagree on finds no consistent
// split. The search over the kink-time order must solve it on the mixed
// branch, with the plan a full brute-force search over all integer
// allocations finds.
func TestBoundarySearchOnExtremeSpread(t *testing.T) {
	m := ClusterModel{
		Nodes: []NodeModel{
			{Q: 1, S: 0.1, K: 0.1, M: 1e-05},
			{Q: 1e-06, S: 0.01, K: 1e-4, M: 0.01},
			{Q: 1e-4, S: 1, K: 0.01, M: 1e-4},
		},
		Gamma: 0.010769,
		To:    0.0001,
		Tu:    0,
	}
	total := 177
	plan, stats, err := solveWithHint(m, total, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BoundarySearchSteps == 0 {
		t.Fatalf("model no longer reaches the mixed branch (stats %+v)", stats)
	}
	report := AuditPlan(m, plan, Tolerances{})
	if !report.OK() {
		t.Fatalf("plan violates invariants: %v", report.Violations)
	}
	if best := bruteMinMax(m, total); plan.Time != best {
		t.Fatalf("plan %v at %v, brute-force optimum %v", plan.Batches, plan.Time, best)
	}
}
