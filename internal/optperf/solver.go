package optperf

import (
	"fmt"
	"math"
	"sort"
)

// minLocalBatch is the smallest local batch a participating node may get:
// synchronized data parallelism requires every node to contribute each step.
const minLocalBatch = 1

// SolveStats counts the work Algorithm 1 performed; the trainer charges
// these against the epoch as scheduling overhead (Table 6).
type SolveStats struct {
	// LinearSolves is the number of equalization systems solved.
	LinearSolves int
	// BoundarySearchSteps is the number of mixed-bottleneck probes.
	BoundarySearchSteps int
}

func (s *SolveStats) add(o SolveStats) {
	s.LinearSolves += o.LinearSolves
	s.BoundarySearchSteps += o.BoundarySearchSteps
}

// Solve computes OptPerf and the optimal local batch sizes for total batch
// size B: Algorithm 1 finds the continuous optimum, and integerPlan the
// integer allocation that minimizes Eq. 7 exactly.
func Solve(model ClusterModel, totalBatch int) (Plan, error) {
	p, _, err := solveWithHint(model, totalBatch, nil)
	return p, err
}

// SolveAudited is Solve with the opt-in audit mode: the returned plan is
// verified against the paper's optimality conditions (see AuditPlan). In
// AuditStrict mode any violation becomes an error wrapping ErrAuditFailed;
// in AuditAdvisory mode violations are only recorded in the report. A zero
// Tolerances value selects the defaults.
func SolveAudited(model ClusterModel, totalBatch int, mode AuditMode, tol Tolerances) (Plan, AuditReport, error) {
	plan, report, _, err := solveWithHintAudited(model, totalBatch, nil, mode, tol)
	return plan, report, err
}

// solveWithHintAudited is solveWithHint with the opt-in audit mode.
func solveWithHintAudited(model ClusterModel, totalBatch int, hint *int, mode AuditMode, tol Tolerances) (Plan, AuditReport, SolveStats, error) {
	plan, stats, err := solveWithHint(model, totalBatch, hint)
	if err != nil || mode == AuditOff {
		return plan, AuditReport{}, stats, err
	}
	report := AuditPlan(model, plan, tol)
	if mode == AuditStrict {
		if aerr := report.Err(); aerr != nil {
			return plan, report, stats, aerr
		}
	}
	return plan, report, stats, nil
}

// solveWithHint runs the full pipeline, optionally warm-starting the
// mixed-bottleneck boundary search, and reports solver work.
func solveWithHint(model ClusterModel, totalBatch int, hint *int) (Plan, SolveStats, error) {
	var stats SolveStats
	if err := model.Validate(); err != nil {
		return Plan{}, stats, err
	}
	n := len(model.Nodes)
	if totalBatch < n*minLocalBatch {
		return Plan{}, stats, fmt.Errorf("%w: total batch %d below %d nodes x min %d", ErrInfeasible, totalBatch, n, minLocalBatch)
	}
	if capTotal, bounded := model.Capacity(); bounded && totalBatch > capTotal {
		return Plan{}, stats, fmt.Errorf("%w: total batch %d exceeds capacity %d", ErrInfeasible, totalBatch, capTotal)
	}

	contTime := solveContinuous(model, float64(totalBatch), hint, &stats)
	batches := integerPlan(model, totalBatch, contTime)

	plan := Plan{
		TotalBatch:     totalBatch,
		Batches:        batches,
		Ratios:         make([]float64, n),
		Time:           model.PredictTime(batches),
		ContinuousTime: contTime,
		States:         make([]Bottleneck, n),
	}
	for i, b := range batches {
		plan.Ratios[i] = float64(b) / float64(totalBatch)
		plan.States[i] = model.NodeState(i, float64(b))
	}
	return plan, stats, nil
}

// solveContinuous returns the relaxed optimum's batch time (OptPerf), with
// caps and minimums handled by an active-set (waterfilling) outer loop around
// Algorithm 1.
func solveContinuous(model ClusterModel, totalBatch float64, hint *int, stats *SolveStats) float64 {
	n := len(model.Nodes)
	b := make([]float64, n)
	pinned := make([]bool, n)
	remaining := totalBatch
	free := make([]int, 0, n)
	for i := 0; i < n; i++ {
		free = append(free, i)
	}

	for len(free) > 0 {
		sub := algorithm1(model, free, remaining, hint, stats)
		// Pin violators of box constraints and re-solve for the rest.
		var repinned bool
		// Handle cap violations first: they free up batch for others.
		for idx, i := range free {
			if cap := model.Nodes[i].cap(); sub[idx] > cap {
				b[i] = cap
				pinned[i] = true
				remaining -= cap
				repinned = true
			}
		}
		if !repinned {
			for idx, i := range free {
				if sub[idx] < minLocalBatch {
					b[i] = minLocalBatch
					pinned[i] = true
					remaining -= minLocalBatch
					repinned = true
				}
			}
		}
		if !repinned {
			for idx, i := range free {
				b[i] = sub[idx]
			}
			break
		}
		next := free[:0]
		for _, i := range free {
			if !pinned[i] {
				next = append(next, i)
			}
		}
		free = next
	}

	return model.PredictTimeFloat(b)
}

// algorithm1 is the paper's overlap-state search over the given node subset
// with no box constraints, returning the allocation that equalizes every
// node's batch time at OptPerf T*.
//
// A node is compute-bound at the optimum exactly when T* reaches its kink
// time (kinkTime), so the compute-bound nodes are always a prefix of the
// nodes sorted by kink time. Splitting that order after t nodes — the first
// t on their compute path, the rest on their comm path — is one diagonal
// equalization with time T(t) ≤ T*; t = k is Check 1 and t = 0 is Check 2.
// T(t) ≥ kink[t−1] holds exactly for t ≤ t*, the optimum's prefix length,
// and T(t) < kink[t] exactly for t ≥ t*, so a binary search on it always
// ends at a consistent split. The Section 4.5 warm-start hint is a prefix
// length to probe first; a hint of 0 runs Check 2 before Check 1. The work
// is counted into stats.
func algorithm1(model ClusterModel, idx []int, total float64, hint *int, stats *SolveStats) []float64 {
	k := len(idx)
	gamma, to := model.Gamma, model.To

	order := make([]int, k) // positions into idx, by kink time once sorted
	kinks := make([]float64, k)
	lowest, highest := math.Inf(1), math.Inf(-1)
	for j, i := range idx {
		order[j], kinks[j] = j, model.kinkTime(i)
		lowest, highest = min(lowest, kinks[j]), max(highest, kinks[j])
	}

	ds := make([]float64, k)
	cs := make([]float64, k)
	split := func(t int) ([]float64, float64) {
		stats.LinearSolves++
		for p, j := range order {
			nm := model.Nodes[idx[j]]
			if p < t { // equal t_compute
				ds[j], cs[j] = nm.Q+nm.K, nm.S+nm.M
			} else { // equal syncStart + To
				ds[j], cs[j] = nm.Q+gamma*nm.K, nm.S+gamma*nm.M+to
			}
		}
		bs, mu := solveEqualClosedForm(ds, cs, total)
		return bs, mu + model.Tu
	}
	envelope := func(bs []float64) float64 { // Eq. 7 over the subset
		worst := 0.0
		for j, i := range idx {
			worst = math.Max(worst, model.NodeTime(i, bs[j]))
		}
		return worst
	}

	// Check 1 (all compute-bound) and Check 2 (all comm-bound) put every
	// node on one side, so they need no order.
	var b1, b2 []float64
	var t1, t2 float64
	check1 := func() bool { b1, t1 = split(k); return t1 >= highest }
	check2 := func() bool { b2, t2 = split(0); return t2 < lowest }
	if hint != nil && *hint == 0 {
		if check2() {
			return b2
		}
		if check1() {
			return b1
		}
	} else {
		if check1() {
			return b1
		}
		if check2() {
			return b2
		}
	}

	// Mixed bottleneck. Both checks are lower bounds on T* and the Eq. 7
	// time of either check's allocation an upper bound, which brackets t*.
	sort.SliceStable(order, func(a, b int) bool { return kinks[order[a]] < kinks[order[b]] })
	sorted := make([]float64, k)
	for p, j := range order {
		sorted[p] = kinks[j]
	}
	atOrBelow := func(t float64) int { // how many kink times are ≤ t
		return sort.Search(k, func(p int) bool { return sorted[p] > t })
	}
	// Clamping keeps lo ≤ hi ≤ k−1 where rounding crosses the bounds.
	hi := min(k-1, atOrBelow(math.Min(envelope(b1), envelope(b2))))
	lo := min(hi, atOrBelow(math.Max(t1, t2)))
	var at []float64 // the allocation at split lo, once solved
	if lo == 0 {
		at = b2 // split 0 is Check 2; every probe is then at t ≥ 1
	}
	probe := func(t int) (consistent bool) {
		stats.BoundarySearchSteps++
		bs, time := split(t)
		if time < sorted[t-1] { // too many nodes on the compute side
			hi = t - 1
			return false
		}
		lo, at = t, bs
		return time < sorted[t]
	}
	if hint != nil {
		if t := max(lo, min(*hint, hi)); (t > lo || at == nil) && probe(t) {
			return at
		}
	}
	for lo < hi {
		if probe((lo + hi + 1) / 2) {
			return at
		}
	}
	if at == nil {
		stats.BoundarySearchSteps++
		at, _ = split(lo)
	}
	return at
}

// integerPlan returns the integer allocation of totalBatch that minimizes
// Eq. 7. Every NodeTime is the max of two increasing lines in b, so it is
// nondecreasing, and handing samples out one at a time from minLocalBatch,
// each to the node whose time after taking it is smallest (ties to the
// lowest index), is optimal. integerPlan returns exactly that allocation:
// every sample whose time is below the continuous optimum contTime goes out
// at once, and only the last few go one by one.
func integerPlan(model ClusterModel, totalBatch int, contTime float64) []int {
	limits := make([]int, len(model.Nodes))
	for i, nm := range model.Nodes {
		limits[i] = totalBatch
		if nm.MaxBatch > 0 && nm.MaxBatch < totalBatch {
			limits[i] = nm.MaxBatch
		}
	}
	batches := make([]int, len(limits))
	below := func(t float64) int {
		sum := 0
		for i := range batches {
			batches[i] = model.batchBelow(i, t, limits[i])
			sum += batches[i]
		}
		return sum
	}
	assigned := below(contTime)
	if assigned > totalBatch {
		// Rounding put the continuous bound above the integer optimum:
		// bisect down to the last time whose samples all fit.
		lo, hi := 0.0, contTime
		for iter := 0; iter < 64; iter++ {
			if mid := (lo + hi) / 2; below(mid) > totalBatch {
				hi = mid
			} else {
				lo = mid
			}
		}
		assigned = below(lo)
	}
	for ; assigned < totalBatch; assigned++ {
		best, bestT := -1, 0.0
		for i, b := range batches {
			if b >= limits[i] {
				continue
			}
			if t := model.NodeTime(i, float64(b+1)); best < 0 || t < bestT {
				best, bestT = i, t
			}
		}
		batches[best]++
	}
	return batches
}

// roundAllocation converts a continuous allocation to integers that sum to
// totalBatch, respect caps (0 or a nil caps means unlimited), and keep every
// node at minLocalBatch or more, using largest-remainder apportionment.
func roundAllocation(cont []float64, totalBatch int, caps []int) ([]int, error) {
	n := len(cont)
	limits := make([]int, n)
	batches := make([]int, n)
	assigned := 0
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, 0, n)
	for i, v := range cont {
		limits[i] = math.MaxInt
		if caps != nil && caps[i] > 0 {
			limits[i] = caps[i]
		}
		fl := int(math.Floor(v))
		if fl < minLocalBatch {
			fl = minLocalBatch
		}
		if fl > limits[i] {
			fl = limits[i]
		}
		batches[i] = fl
		assigned += fl
		// Priority is the continuous value minus what the node already
		// holds: a node clamped up to the minimum got more than it wanted
		// (negative priority, loses first), a node clamped down to its cap
		// wants far more (large priority, loses last).
		fracs = append(fracs, frac{i: i, f: v - float64(fl)})
	}
	sort.Slice(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	// Distribute any shortfall to the largest remainders (respecting caps);
	// remove any overshoot from the smallest remainders (respecting mins).
	for assigned < totalBatch {
		progressed := false
		for _, fr := range fracs {
			if assigned == totalBatch {
				break
			}
			if batches[fr.i] < limits[fr.i] {
				batches[fr.i]++
				assigned++
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("%w: rounding cannot reach total %d", ErrInfeasible, totalBatch)
		}
	}
	for assigned > totalBatch {
		progressed := false
		for j := len(fracs) - 1; j >= 0; j-- {
			if assigned == totalBatch {
				break
			}
			i := fracs[j].i
			if batches[i] > minLocalBatch {
				batches[i]--
				assigned--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("%w: rounding cannot reduce to total %d", ErrInfeasible, totalBatch)
		}
	}
	return batches, nil
}

// ProportionalAllocation implements Eq. 8: before performance models exist
// (the first two epochs), local batches are assigned inversely proportional
// to the measured per-sample compute times. Caps may be nil for unlimited.
func ProportionalAllocation(perSampleTime []float64, totalBatch int, caps []int) ([]int, error) {
	n := len(perSampleTime)
	if n == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrInfeasible)
	}
	if totalBatch < n*minLocalBatch {
		return nil, fmt.Errorf("%w: total batch %d below %d nodes", ErrInfeasible, totalBatch, n)
	}
	weights := make([]float64, n)
	var sumW float64
	for i, t := range perSampleTime {
		if !(t > 0) || math.IsInf(t, 1) { // NaN fails t > 0
			return nil, fmt.Errorf("optperf: node %d has non-positive or non-finite per-sample time %v", i, t)
		}
		weights[i] = 1 / t
		sumW += weights[i]
	}
	cont := make([]float64, n)
	for i := range cont {
		cont[i] = weights[i] / sumW * float64(totalBatch)
	}
	return roundAllocation(cont, totalBatch, caps)
}
