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
	// WaterfillFallbacks counts how often the reference solver was needed.
	WaterfillFallbacks int
}

func (s *SolveStats) add(o SolveStats) {
	s.LinearSolves += o.LinearSolves
	s.BoundarySearchSteps += o.BoundarySearchSteps
	s.WaterfillFallbacks += o.WaterfillFallbacks
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
		sub, subStats, ok := algorithm1(model, free, remaining, hint)
		stats.add(subStats)
		if !ok {
			// Inconsistent boundary search (can happen with extreme
			// coefficient spreads): fall back to the provably optimal
			// waterfill on the per-node time envelope.
			sub = waterfill(model, free, remaining)
			stats.WaterfillFallbacks++
		}
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
// with no box constraints. It returns the equalized allocation, or ok=false
// when the boundary search cannot find a consistent partition.
func algorithm1(model ClusterModel, idx []int, total float64, hint *int) (b []float64, stats SolveStats, ok bool) {
	k := len(idx)
	gamma, to := model.Gamma, model.To

	computeD := func(i int) (d, c float64) { // equal t_compute system
		nm := model.Nodes[i]
		return nm.Q + nm.K, nm.S + nm.M
	}
	commD := func(i int) (d, c float64) { // equal syncStart system
		nm := model.Nodes[i]
		return nm.Q + gamma*nm.K, nm.S + gamma*nm.M
	}

	solveEqual := func(ds, cs []float64) (mu float64, bs []float64) {
		stats.LinearSolves++
		var sumInvD, sumCD float64
		for i := range ds {
			sumInvD += 1 / ds[i]
			sumCD += cs[i] / ds[i]
		}
		mu = (total + sumCD) / sumInvD
		bs = make([]float64, len(ds))
		for i := range ds {
			bs[i] = (mu - cs[i]) / ds[i]
		}
		return mu, bs
	}

	computeBound := func(i int, bi float64) bool {
		return (1-gamma)*model.Nodes[i].P(bi) >= to
	}

	ds := make([]float64, k)
	cs := make([]float64, k)
	check1 := func() (bs []float64, valid bool) { // all compute-bottleneck
		for j, i := range idx {
			ds[j], cs[j] = computeD(i)
		}
		_, bs = solveEqual(ds, cs)
		for j, i := range idx {
			if !computeBound(i, bs[j]) {
				return bs, false
			}
		}
		return bs, true
	}
	check2 := func() (bs []float64, valid bool) { // all comm-bottleneck
		for j, i := range idx {
			ds[j], cs[j] = commD(i)
		}
		_, bs = solveEqual(ds, cs)
		for j, i := range idx {
			if computeBound(i, bs[j]) {
				return bs, false
			}
		}
		return bs, true
	}

	// Section 4.5 warm start: begin from the previous candidate's overlap
	// state. A hint of 0 (all communication-bottleneck) reverses the check
	// order; either way both checks run before the mixed search so their
	// agreement classification stays available.
	var b1, b2 []float64
	var ok1, ok2 bool
	if hint != nil && *hint == 0 {
		if b2, ok2 = check2(); ok2 {
			return b2, stats, true
		}
		if b1, ok1 = check1(); ok1 {
			return b1, stats, true
		}
	} else {
		if b1, ok1 = check1(); ok1 {
			return b1, stats, true
		}
		if b2, ok2 = check2(); ok2 {
			return b2, stats, true
		}
	}

	// Mixed bottleneck. Nodes that agree across both checks keep that
	// state; the outliers are ordered by how compute-leaning they are at
	// the Check-1 solution and a boundary is searched among them.
	type entry struct {
		node  int // index into idx
		score float64
	}
	var fixedCompute, fixedComm []int
	var outliers []entry
	for j, i := range idx {
		c1 := computeBound(i, b1[j])
		c2 := computeBound(i, b2[j])
		switch {
		case c1 && c2:
			fixedCompute = append(fixedCompute, j)
		case !c1 && !c2:
			fixedComm = append(fixedComm, j)
		default:
			outliers = append(outliers, entry{node: j, score: (1-gamma)*model.Nodes[i].P(b1[j]) - to})
		}
	}
	sort.Slice(outliers, func(a, b int) bool { return outliers[a].score > outliers[b].score })

	trySplit := func(t int) (bs []float64, valid bool, wantMore bool) {
		stats.BoundarySearchSteps++
		for j := range idx {
			ds[j], cs[j] = commD(idx[j])
			cs[j] += to // comm side solves syncStart + To = mu
		}
		assignCompute := make([]bool, k)
		for _, j := range fixedCompute {
			assignCompute[j] = true
		}
		for _, e := range outliers[:t] {
			assignCompute[e.node] = true
		}
		for j := range idx {
			if assignCompute[j] {
				ds[j], cs[j] = computeD(idx[j])
			}
		}
		mu, bs := solveEqual(ds, cs)
		_ = mu
		valid = true
		computeViolated, commViolated := false, false
		for j, i := range idx {
			isComputeSide := assignCompute[j]
			actual := computeBound(i, bs[j])
			if isComputeSide && !actual {
				computeViolated = true
				valid = false
			}
			if !isComputeSide && actual {
				commViolated = true
				valid = false
			}
		}
		// Too many compute-assigned nodes -> shrink t; too few -> grow.
		wantMore = commViolated && !computeViolated
		return bs, valid, wantMore
	}

	lo, hi := 0, len(outliers)
	if hint != nil {
		t := *hint
		if t < lo {
			t = lo
		}
		if t > hi {
			t = hi
		}
		if bs, valid, _ := trySplit(t); valid {
			return bs, stats, true
		}
	}
	for lo <= hi {
		t := (lo + hi) / 2
		bs, valid, wantMore := trySplit(t)
		if valid {
			return bs, stats, true
		}
		if wantMore {
			lo = t + 1
		} else {
			hi = t - 1
		}
	}
	// Exhaustive scan as a last resort before the waterfill fallback.
	for t := 0; t <= len(outliers); t++ {
		if bs, valid, _ := trySplit(t); valid {
			return bs, stats, true
		}
	}
	return nil, stats, false
}

// waterfill equalizes each node's batch-time envelope
// f_i(b) = max(compute path, comm path) by bisection on the target time.
// It is the provably optimal reference solver (each f_i is increasing and
// convex, so equalized times minimize the maximum).
func waterfill(model ClusterModel, idx []int, total float64) []float64 {
	sumAt := func(tau float64) float64 {
		s := 0.0
		for _, i := range idx {
			s += math.Max(model.batchAt(i, tau), 0)
		}
		return s
	}
	lo, hi := 0.0, 1.0
	for sumAt(hi) < total {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if sumAt(mid) < total {
			lo = mid
		} else {
			hi = mid
		}
	}
	out := make([]float64, len(idx))
	for j, i := range idx {
		out[j] = math.Max(model.batchAt(i, hi), 0)
	}
	// Normalize the bisection residue across nodes with slack toward their
	// box bounds. Dumping it all on one node can push that node above its
	// cap or below minLocalBatch when the residue is large (bisection hit
	// its range limit on an extreme model).
	diff := total
	for _, v := range out {
		diff -= v
	}
	distributeResidue(model, idx, out, diff)
	return out
}

// distributeResidue spreads diff over out, adding only up to each node's
// cap and removing only down to minLocalBatch. Any residue that no node
// can absorb is left undistributed for the caller's box-constraint pinning
// to resolve.
func distributeResidue(model ClusterModel, idx []int, out []float64, diff float64) {
	for pass := 0; pass < 4 && math.Abs(diff) > 1e-12; pass++ {
		slacks := make([]float64, len(out))
		var slackSum float64
		unbounded := 0
		for j, i := range idx {
			if diff > 0 {
				slacks[j] = model.Nodes[i].cap() - out[j]
			} else {
				slacks[j] = out[j] - minLocalBatch
			}
			if slacks[j] < 0 {
				slacks[j] = 0
			}
			if math.IsInf(slacks[j], 1) {
				unbounded++
			} else {
				slackSum += slacks[j]
			}
		}
		if diff > 0 && unbounded > 0 {
			// Uncapped nodes absorb a surplus directly.
			share := diff / float64(unbounded)
			for j := range slacks {
				if math.IsInf(slacks[j], 1) {
					out[j] += share
				}
			}
			return
		}
		if slackSum <= 0 {
			return // no node can absorb it; the caller's pinning resolves it
		}
		want := diff
		for j := range out {
			if slacks[j] <= 0 {
				continue
			}
			d := want * slacks[j] / slackSum
			if math.Abs(d) > slacks[j] {
				d = math.Copysign(slacks[j], d)
			}
			out[j] += d
			diff -= d
		}
	}
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
		if t <= 0 {
			return nil, fmt.Errorf("optperf: node %d has non-positive per-sample time %v", i, t)
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
