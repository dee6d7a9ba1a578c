package optperf

import (
	"errors"
	"math"
	"testing"

	"cannikin/internal/rng"
)

// threeNodeModel is a small heterogeneous cluster: one fast, one medium,
// one slow node (speed ratios roughly 1 : 2 : 4), like the paper's
// Cluster A.
func threeNodeModel(to, tu, gamma float64) ClusterModel {
	return ClusterModel{
		Nodes: []NodeModel{
			{Q: 0.0002, S: 0.004, K: 0.0004, M: 0.002},
			{Q: 0.0004, S: 0.005, K: 0.0008, M: 0.003},
			{Q: 0.0008, S: 0.006, K: 0.0016, M: 0.004},
		},
		Gamma: gamma,
		To:    to,
		Tu:    tu,
	}
}

func TestValidate(t *testing.T) {
	good := threeNodeModel(0.01, 0.005, 0.2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := good
	bad.Gamma = 0
	if bad.Validate() == nil {
		t.Fatal("gamma 0 accepted")
	}
	bad = good
	bad.Gamma = 1.5
	if bad.Validate() == nil {
		t.Fatal("gamma > 1 accepted")
	}
	bad = good
	bad.To = -1
	if bad.Validate() == nil {
		t.Fatal("negative To accepted")
	}
	bad = good
	bad.Nodes = nil
	if bad.Validate() == nil {
		t.Fatal("empty model accepted")
	}
	bad = threeNodeModel(0.01, 0.005, 0.2)
	bad.Nodes[0].K = 0
	if bad.Validate() == nil {
		t.Fatal("zero K accepted")
	}
}

func TestNodeTimeIsMaxOfPaths(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	for i := range m.Nodes {
		for _, b := range []float64{1, 10, 100} {
			compute := m.Nodes[i].Compute(b) + m.Tu
			comm := m.SyncStart(i, b) + m.TComm()
			want := math.Max(compute, comm)
			if got := m.NodeTime(i, b); got != want {
				t.Fatalf("node %d b=%v: NodeTime %v != max(%v, %v)", i, b, got, compute, comm)
			}
		}
	}
}

func TestNodeStateThreshold(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	// (1-γ)P(b) >= To  <=>  0.75*(K b + M) >= 0.01.
	n := m.Nodes[0] // K=0.0004, M=0.002
	bThresh := (m.To/(1-m.Gamma) - n.M) / n.K
	if got := m.NodeState(0, bThresh+1); got != ComputeBound {
		t.Fatalf("above threshold: %v", got)
	}
	if got := m.NodeState(0, bThresh-1); got != CommBound {
		t.Fatalf("below threshold: %v", got)
	}
}

func TestBottleneckString(t *testing.T) {
	if ComputeBound.String() != "compute" || CommBound.String() != "comm" {
		t.Fatal("Bottleneck strings wrong")
	}
	if Bottleneck(0).String() == "" {
		t.Fatal("unknown bottleneck should still render")
	}
}

func TestAllComputeBottleneckEqualizesComputeTime(t *testing.T) {
	// With To = 0 every node is compute-bottleneck; OptPerf equalizes
	// t_compute (Appendix A.1).
	m := threeNodeModel(0, 0.005, 0.25)
	plan, err := mustAuditedSolve(t, m, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.States {
		if s != ComputeBound {
			t.Fatalf("node %d state %v, want compute", i, s)
		}
	}
	// Continuous equalization: check per-node compute times are close for
	// the integer solution (within one sample's worth of time).
	t0 := m.Nodes[0].Compute(float64(plan.Batches[0]))
	for i := 1; i < 3; i++ {
		ti := m.Nodes[i].Compute(float64(plan.Batches[i]))
		slack := m.Nodes[i].Q + m.Nodes[i].K // one sample of drift
		if math.Abs(ti-t0) > 2*slack+1e-9 {
			t.Fatalf("compute times not equalized: %v vs %v", ti, t0)
		}
	}
	// Faster node gets more work.
	if !(plan.Batches[0] > plan.Batches[1] && plan.Batches[1] > plan.Batches[2]) {
		t.Fatalf("batches not ordered by speed: %v", plan.Batches)
	}
}

func TestAllCommBottleneckEqualizesSyncStart(t *testing.T) {
	// Huge To forces every node into the communication-bottleneck pattern;
	// OptPerf equalizes syncStart (Appendix A.2).
	m := threeNodeModel(1.0, 0.05, 0.25)
	plan, err := mustAuditedSolve(t, m, 60)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.States {
		if s != CommBound {
			t.Fatalf("node %d state %v, want comm", i, s)
		}
	}
	s0 := m.SyncStart(0, float64(plan.Batches[0]))
	for i := 1; i < 3; i++ {
		si := m.SyncStart(i, float64(plan.Batches[i]))
		slack := m.Nodes[i].Q + m.Gamma*m.Nodes[i].K
		if math.Abs(si-s0) > 2*slack+1e-9 {
			t.Fatalf("syncStarts not equalized: %v vs %v", si, s0)
		}
	}
}

func TestMixedBottleneckGeneralCase(t *testing.T) {
	// Pick To so that fast nodes at their (large) share are
	// compute-bottleneck while slow nodes are comm-bottleneck.
	// Backprop-heavy nodes end up compute-bottleneck (large (1−γ)P_i);
	// forward-heavy nodes end up communication-bottleneck.
	m := ClusterModel{
		Nodes: []NodeModel{
			{Q: 0.00005, S: 0.001, K: 0.0008, M: 0.002}, // backprop heavy
			{Q: 0.0001, S: 0.001, K: 0.0009, M: 0.002},
			{Q: 0.0009, S: 0.004, K: 0.0002, M: 0.001}, // forward heavy
			{Q: 0.0012, S: 0.004, K: 0.0002, M: 0.001},
		},
		Gamma: 0.2,
		To:    0.020,
		Tu:    0.005,
	}
	plan, err := mustAuditedSolve(t, m, 200)
	if err != nil {
		t.Fatal(err)
	}
	nCompute := plan.NumComputeBound()
	if nCompute == 0 || nCompute == len(m.Nodes) {
		t.Fatalf("expected mixed bottleneck, got %d/%d compute-bound (batches %v)", nCompute, len(m.Nodes), plan.Batches)
	}
	// Paper's general-case conditions: compute-bottleneck nodes share
	// t_compute, comm-bottleneck nodes share syncStart, and
	// t_compute' = syncStart' + To.
	var tComp, sStart []float64
	for i, s := range plan.States {
		b := float64(plan.Batches[i])
		if s == ComputeBound {
			tComp = append(tComp, m.Nodes[i].Compute(b))
		} else {
			sStart = append(sStart, m.SyncStart(i, b))
		}
	}
	for _, v := range tComp[1:] {
		if math.Abs(v-tComp[0]) > 0.01*tComp[0]+0.005 {
			t.Fatalf("compute-side times not equalized: %v", tComp)
		}
	}
	for _, v := range sStart[1:] {
		if math.Abs(v-sStart[0]) > 0.01*sStart[0]+0.005 {
			t.Fatalf("comm-side syncStarts not equalized: %v", sStart)
		}
	}
	if math.Abs(tComp[0]-(sStart[0]+m.To)) > 0.05*tComp[0] {
		t.Fatalf("boundary condition violated: t_compute %v vs syncStart+To %v", tComp[0], sStart[0]+m.To)
	}
}

// TestHintAtOptimumIsOneProbe: the Section 4.5 warm-start hint is the
// optimum's prefix length in kink-time order, so a hint equal to it settles
// a mixed model in one boundary probe, with the cold search's allocation.
func TestHintAtOptimumIsOneProbe(t *testing.T) {
	src := rng.New(8)
	mixed, saved := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(15)
		m := randomModel(src, n)
		total := float64(n * (2 + src.Intn(50)))
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		var coldStats, warmStats SolveStats
		cold := algorithm1(m, idx, total, nil, &coldStats)
		if coldStats.BoundarySearchSteps == 0 {
			continue // not a mixed model
		}
		mixed++
		if coldStats.BoundarySearchSteps > 1 {
			saved++
		}
		tStar := 0
		for i, b := range cold {
			if m.NodeState(i, b) == ComputeBound {
				tStar++
			}
		}
		warm := algorithm1(m, idx, total, &tStar, &warmStats)
		if warmStats.BoundarySearchSteps != 1 {
			t.Fatalf("trial %d: hint %d took %d probes (cold %d)", trial, tStar, warmStats.BoundarySearchSteps, coldStats.BoundarySearchSteps)
		}
		for i := range cold {
			if warm[i] != cold[i] {
				t.Fatalf("trial %d: warm allocation %v != cold %v", trial, warm, cold)
			}
		}
	}
	if saved == 0 {
		t.Fatalf("none of %d mixed models needed more than one cold probe", mixed)
	}
}

func TestSolveBeatsBruteForce(t *testing.T) {
	// Exhaustively enumerate every integer allocation on a 3-node cluster
	// and confirm the solver matches the true optimum.
	models := map[string]ClusterModel{
		"compute-bound": threeNodeModel(0.0005, 0.0002, 0.25),
		"comm-bound":    threeNodeModel(0.5, 0.05, 0.25),
		"mixed":         threeNodeModel(0.012, 0.004, 0.2),
	}
	for name, m := range models {
		const B = 48
		best := math.Inf(1)
		for b0 := 1; b0 <= B-2; b0++ {
			for b1 := 1; b1 <= B-b0-1; b1++ {
				b2 := B - b0 - b1
				if t := m.PredictTime([]int{b0, b1, b2}); t < best {
					best = t
				}
			}
		}
		plan, err := mustAuditedSolve(t, m, B)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plan.Time > best*(1+1e-9) {
			t.Errorf("%s: solver time %v > brute-force optimum %v (batches %v)", name, plan.Time, best, plan.Batches)
		}
		if plan.ContinuousTime > plan.Time+1e-12 {
			t.Errorf("%s: continuous bound %v exceeds integer time %v", name, plan.ContinuousTime, plan.Time)
		}
	}
}

func TestSolveOptimalAgainstRandomAllocations(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 60; trial++ {
		n := 2 + src.Intn(10)
		nodes := make([]NodeModel, n)
		for i := range nodes {
			speed := 1.0 + 4*src.Float64() // 1x..5x heterogeneity
			nodes[i] = NodeModel{
				Q: 0.0002 * speed,
				S: 0.002 + 0.004*src.Float64(),
				K: 0.0004 * speed,
				M: 0.001 + 0.003*src.Float64(),
			}
		}
		m := ClusterModel{
			Nodes: nodes,
			Gamma: 0.05 + 0.5*src.Float64(),
			To:    0.03 * src.Float64(),
			Tu:    0.01 * src.Float64(),
		}
		B := n * (2 + src.Intn(40))
		plan, err := mustAuditedSolve(t, m, B)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sum := 0
		for _, b := range plan.Batches {
			sum += b
			if b < 1 {
				t.Fatalf("trial %d: batch below minimum: %v", trial, plan.Batches)
			}
		}
		if sum != B {
			t.Fatalf("trial %d: batches sum %d != %d", trial, sum, B)
		}
		// Random competing allocations must never beat the plan.
		for r := 0; r < 40; r++ {
			alloc := randomAllocation(src, n, B)
			if tr := m.PredictTime(alloc); tr < plan.Time*(1-1e-9) {
				t.Fatalf("trial %d: random allocation %v time %v beats plan %v time %v",
					trial, alloc, tr, plan.Batches, plan.Time)
			}
		}
	}
}

func randomAllocation(src *rng.Source, n, total int) []int {
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = 1
	}
	for k := 0; k < total-n; k++ {
		alloc[src.Intn(n)]++
	}
	return alloc
}

func TestSolveRespectsCaps(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	m.Nodes[0].MaxBatch = 20 // fast node would normally take far more
	plan, err := mustAuditedSolve(t, m, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range plan.Batches {
		if c := m.Nodes[i].MaxBatch; c > 0 && b > c {
			t.Fatalf("node %d batch %d exceeds cap %d", i, b, c)
		}
	}
	if plan.Batches[0] != 20 {
		t.Fatalf("fast node should saturate its cap: %v", plan.Batches)
	}
}

func TestSolveInfeasible(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	if _, err := Solve(m, 2); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("B < n: err = %v", err)
	}
	for i := range m.Nodes {
		m.Nodes[i].MaxBatch = 10
	}
	if _, err := Solve(m, 31); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("B > capacity: err = %v", err)
	}
	if _, err := Solve(m, 30); err != nil {
		t.Fatalf("B == capacity should be feasible: %v", err)
	}
}

func TestHomogeneousClusterEvenSplit(t *testing.T) {
	m := ClusterModel{
		Nodes: []NodeModel{
			{Q: 0.0003, S: 0.004, K: 0.0006, M: 0.002},
			{Q: 0.0003, S: 0.004, K: 0.0006, M: 0.002},
			{Q: 0.0003, S: 0.004, K: 0.0006, M: 0.002},
			{Q: 0.0003, S: 0.004, K: 0.0006, M: 0.002},
		},
		Gamma: 0.25,
		To:    0.01,
		Tu:    0.004,
	}
	plan, err := mustAuditedSolve(t, m, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Batches {
		if b != 32 {
			t.Fatalf("homogeneous cluster should split evenly: %v", plan.Batches)
		}
	}
}

func TestRatiosSumToOne(t *testing.T) {
	m := threeNodeModel(0.01, 0.004, 0.2)
	plan, err := mustAuditedSolve(t, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range plan.Ratios {
		sum += r
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("ratios sum %v", sum)
	}
}

func TestLargerBatchesMoreComputeBound(t *testing.T) {
	// Section 4.5: as the total batch grows, nodes move from comm- to
	// compute-bottleneck; the count must be monotone non-decreasing.
	m := threeNodeModel(0.015, 0.005, 0.15)
	prev := -1
	for _, b := range []int{12, 30, 60, 120, 240, 480, 960} {
		plan, err := mustAuditedSolve(t, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if plan.NumComputeBound() < prev {
			t.Fatalf("compute-bound count decreased at B=%d: %d < %d", b, plan.NumComputeBound(), prev)
		}
		prev = plan.NumComputeBound()
	}
	if prev != 3 {
		t.Fatalf("largest batch should make all nodes compute-bound, got %d", prev)
	}
}

func TestProportionalAllocation(t *testing.T) {
	// Eq. 8: node twice as fast gets twice the batch.
	b, err := ProportionalAllocation([]float64{0.001, 0.002, 0.004}, 70, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range b {
		sum += v
	}
	if sum != 70 {
		t.Fatalf("sum = %d", sum)
	}
	if b[0] != 40 || b[1] != 20 || b[2] != 10 {
		t.Fatalf("allocation = %v, want [40 20 10]", b)
	}
}

func TestProportionalAllocationErrors(t *testing.T) {
	if _, err := ProportionalAllocation(nil, 10, nil); err == nil {
		t.Fatal("empty nodes accepted")
	}
	if _, err := ProportionalAllocation([]float64{0.001, 0}, 10, nil); err == nil {
		t.Fatal("zero per-sample time accepted")
	}
	// Eq. 8 weights a node by 1/time, so NaN or +Inf has no share.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if b, err := ProportionalAllocation([]float64{0.01, bad, 0.02}, 30, nil); err == nil {
			t.Fatalf("per-sample time %v accepted: %v", bad, b)
		}
	}
	if _, err := ProportionalAllocation([]float64{0.001, 0.002}, 1, nil); err == nil {
		t.Fatal("B < n accepted")
	}
}

func TestProportionalAllocationRespectsCaps(t *testing.T) {
	b, err := ProportionalAllocation([]float64{0.001, 0.002}, 30, []int{15, 20})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] > 15 || b[1] > 20 || b[0]+b[1] != 30 {
		t.Fatalf("allocation = %v", b)
	}
}
