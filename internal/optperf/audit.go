package optperf

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrAuditFailed is returned (wrapped) when a strict-mode audit finds an
// invariant violation; test with errors.Is.
var ErrAuditFailed = errors.New("optperf: plan audit failed")

// AuditMode selects how much runtime verification a solve performs.
type AuditMode int

// Audit modes.
const (
	// AuditOff disables plan auditing (the default).
	AuditOff AuditMode = iota
	// AuditAdvisory audits every plan and records violations without
	// failing the solve.
	AuditAdvisory
	// AuditStrict audits every plan and turns any violation into an error
	// wrapping ErrAuditFailed.
	AuditStrict
)

// String implements fmt.Stringer.
func (m AuditMode) String() string {
	switch m {
	case AuditOff:
		return "off"
	case AuditAdvisory:
		return "advisory"
	case AuditStrict:
		return "strict"
	default:
		return fmt.Sprintf("AuditMode(%d)", int(m))
	}
}

// Invariant names one optimality or feasibility condition checked by the
// audit (the paper's Appendix A conditions plus solver-pipeline
// consistency).
type Invariant string

// Audited invariants.
const (
	// InvBatchSum: the local batches sum to the requested total batch.
	InvBatchSum Invariant = "batch-sum"
	// InvBox: every local batch respects minLocalBatch and the node cap.
	InvBox Invariant = "box-constraints"
	// InvComputeEqualized: unpinned compute-bottleneck nodes share
	// t_compute within integer-rounding slack (Appendix A.1).
	InvComputeEqualized Invariant = "compute-equalized"
	// InvCommEqualized: unpinned comm-bottleneck nodes share syncStart
	// within integer-rounding slack (Appendix A.2).
	InvCommEqualized Invariant = "comm-equalized"
	// InvTimeConsistent: Plan.Time, Ratios, and States match PredictTime
	// and NodeState at the recorded allocation.
	InvTimeConsistent Invariant = "time-consistent"
	// InvLowerBound: the continuous relaxation time never exceeds the
	// integer plan time (the relaxation is a lower bound).
	InvLowerBound Invariant = "continuous-lower-bound"
	// InvReferenceGap (differential): the continuous solution is no worse
	// than the waterfill reference solver on the same model.
	InvReferenceGap Invariant = "waterfill-reference-gap"
	// InvNeighborhood (differential): no integer allocation in a small
	// neighborhood of the plan beats it (brute-force cross-check on small
	// clusters).
	InvNeighborhood Invariant = "integer-neighborhood"
)

// Tolerances configure the audit's numeric slack. The zero value means
// "use defaults" everywhere (see DefaultTolerances).
type Tolerances struct {
	// EqualizeSamples is the equalization spread allowed inside a
	// bottleneck group, in units of the group's largest per-sample time
	// step — integer rounding shifts each node by at most a few samples.
	EqualizeSamples float64
	// TimeRel is the relative tolerance for recorded-vs-recomputed times.
	TimeRel float64
	// ReferenceRel is the allowed relative excess of the continuous
	// solution over the waterfill reference.
	ReferenceRel float64
	// NeighborhoodRel is the relative margin by which a neighboring
	// integer allocation must win before it counts as a violation.
	NeighborhoodRel float64
	// AbsTime is the absolute epsilon added to every time comparison.
	AbsTime float64
	// MaxBruteNodes bounds the cluster size for the brute-force
	// neighborhood search (its cost is exponential in n). 0 = default.
	MaxBruteNodes int
	// NeighborhoodRadius is how many samples each node may deviate in the
	// brute-force search. 0 = default.
	NeighborhoodRadius int
}

// DefaultTolerances returns the audit defaults.
func DefaultTolerances() Tolerances {
	return Tolerances{
		EqualizeSamples:    4,
		TimeRel:            1e-9,
		ReferenceRel:       1e-6,
		NeighborhoodRel:    1e-9,
		AbsTime:            1e-12,
		MaxBruteNodes:      6,
		NeighborhoodRadius: 2,
	}
}

// withDefaults fills zero fields with the defaults.
func (t Tolerances) withDefaults() Tolerances {
	d := DefaultTolerances()
	if t.EqualizeSamples <= 0 {
		t.EqualizeSamples = d.EqualizeSamples
	}
	if t.TimeRel <= 0 {
		t.TimeRel = d.TimeRel
	}
	if t.ReferenceRel <= 0 {
		t.ReferenceRel = d.ReferenceRel
	}
	if t.NeighborhoodRel <= 0 {
		t.NeighborhoodRel = d.NeighborhoodRel
	}
	if t.AbsTime <= 0 {
		t.AbsTime = d.AbsTime
	}
	if t.MaxBruteNodes <= 0 {
		t.MaxBruteNodes = d.MaxBruteNodes
	}
	if t.NeighborhoodRadius <= 0 {
		t.NeighborhoodRadius = d.NeighborhoodRadius
	}
	return t
}

// Violation is one failed invariant.
type Violation struct {
	Invariant Invariant
	// Node is the offending node, or -1 for a cluster-wide condition.
	Node int
	// Residual is the measured deviation; Limit is what the tolerances
	// allowed.
	Residual, Limit float64
	Detail          string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	where := "cluster"
	if v.Node >= 0 {
		where = fmt.Sprintf("node %d", v.Node)
	}
	return fmt.Sprintf("%s (%s): residual %.3g > limit %.3g: %s",
		v.Invariant, where, v.Residual, v.Limit, v.Detail)
}

// AuditReport is the structured outcome of auditing one plan: every
// invariant that was evaluated, its worst observed residual, and the
// violations (empty when the plan verifies).
type AuditReport struct {
	TotalBatch int
	// Checked lists the invariants that were evaluated (differential
	// checks are skipped when inapplicable, e.g. the brute-force search on
	// large clusters).
	Checked []Invariant
	// Residuals records the worst residual observed per checked invariant,
	// including passing ones.
	Residuals map[Invariant]float64
	// Violations lists every invariant breach.
	Violations []Violation
}

// OK reports whether the plan passed every checked invariant.
func (r AuditReport) OK() bool { return len(r.Violations) == 0 }

// MaxViolationRatio returns the worst residual/limit ratio across the
// violations (0 when the plan verifies).
func (r AuditReport) MaxViolationRatio() float64 {
	worst := 0.0
	for _, v := range r.Violations {
		if v.Limit > 0 {
			if ratio := v.Residual / v.Limit; ratio > worst {
				worst = ratio
			}
		} else if v.Residual > worst {
			worst = v.Residual
		}
	}
	return worst
}

// Err returns nil for a clean report, or an error wrapping ErrAuditFailed
// that lists the violations.
func (r AuditReport) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("%w: B=%d: %s", ErrAuditFailed, r.TotalBatch, strings.Join(msgs, "; "))
}

// auditor accumulates a report.
type auditor struct {
	report AuditReport
	tol    Tolerances
}

func (a *auditor) check(inv Invariant) { a.report.Checked = append(a.report.Checked, inv) }

func (a *auditor) residual(inv Invariant, r float64) {
	if a.report.Residuals == nil {
		a.report.Residuals = make(map[Invariant]float64)
	}
	if r > a.report.Residuals[inv] {
		a.report.Residuals[inv] = r
	} else if _, ok := a.report.Residuals[inv]; !ok {
		a.report.Residuals[inv] = r
	}
}

func (a *auditor) violate(inv Invariant, node int, residual, limit float64, format string, args ...any) {
	a.report.Violations = append(a.report.Violations, Violation{
		Invariant: inv,
		Node:      node,
		Residual:  residual,
		Limit:     limit,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// AuditPlan validates a returned Plan against the paper's optimality
// conditions and the solver pipeline's own bookkeeping: batch sums, box
// constraints, equal t_compute across unpinned compute-bottleneck nodes,
// equal syncStart across unpinned comm-bottleneck nodes, and Time/Ratios/
// States consistency with the model. It also runs the cheap differential
// checks (waterfill reference gap always; brute-force integer neighborhood
// on clusters up to tol.MaxBruteNodes nodes).
func AuditPlan(model ClusterModel, plan Plan, tol Tolerances) AuditReport {
	a := &auditor{report: AuditReport{TotalBatch: plan.TotalBatch}, tol: tol.withDefaults()}
	if err := model.Validate(); err != nil {
		a.check(InvTimeConsistent)
		a.violate(InvTimeConsistent, -1, math.Inf(1), 0, "model invalid: %v", err)
		return a.report
	}
	if len(plan.Batches) != len(model.Nodes) {
		a.check(InvBatchSum)
		a.violate(InvBatchSum, -1, math.Abs(float64(len(plan.Batches)-len(model.Nodes))), 0,
			"%d batches for %d nodes", len(plan.Batches), len(model.Nodes))
		return a.report
	}
	a.auditSum(plan)
	a.auditBox(model, plan)
	a.auditEqualization(model, plan)
	a.auditConsistency(model, plan)
	a.auditReferenceGap(model, plan)
	a.auditNeighborhood(model, plan)
	return a.report
}

// AuditAllocation audits a bare integer allocation (no performance model):
// batch sum and box constraints only. It covers plans produced by the
// bootstrap and re-profiling paths, which have no OptPerf optimality
// conditions to check.
func AuditAllocation(batches []int, totalBatch int, caps []int) AuditReport {
	a := &auditor{report: AuditReport{TotalBatch: totalBatch}, tol: DefaultTolerances()}
	a.check(InvBatchSum)
	sum := 0
	for _, b := range batches {
		sum += b
	}
	a.residual(InvBatchSum, math.Abs(float64(sum-totalBatch)))
	if sum != totalBatch {
		a.violate(InvBatchSum, -1, math.Abs(float64(sum-totalBatch)), 0,
			"batches sum %d != total %d", sum, totalBatch)
	}
	a.check(InvBox)
	worst := 0.0
	for i, b := range batches {
		if b < minLocalBatch {
			short := float64(minLocalBatch - b)
			a.violate(InvBox, i, short, 0, "batch %d below minimum %d", b, minLocalBatch)
			worst = math.Max(worst, short)
		}
		if caps != nil && i < len(caps) && caps[i] > 0 && b > caps[i] {
			over := float64(b - caps[i])
			a.violate(InvBox, i, over, 0, "batch %d above cap %d", b, caps[i])
			worst = math.Max(worst, over)
		}
	}
	a.residual(InvBox, worst)
	return a.report
}

func (a *auditor) auditSum(plan Plan) {
	a.check(InvBatchSum)
	sum := 0
	for _, b := range plan.Batches {
		sum += b
	}
	a.residual(InvBatchSum, math.Abs(float64(sum-plan.TotalBatch)))
	if sum != plan.TotalBatch {
		a.violate(InvBatchSum, -1, math.Abs(float64(sum-plan.TotalBatch)), 0,
			"batches sum %d != total %d", sum, plan.TotalBatch)
	}
}

func (a *auditor) auditBox(model ClusterModel, plan Plan) {
	a.check(InvBox)
	worst := 0.0
	for i, b := range plan.Batches {
		if b < minLocalBatch {
			short := float64(minLocalBatch - b)
			a.violate(InvBox, i, short, 0, "batch %d below minimum %d", b, minLocalBatch)
			worst = math.Max(worst, short)
		}
		if c := model.Nodes[i].cap(); float64(b) > c {
			over := float64(b) - c
			a.violate(InvBox, i, over, 0, "batch %d above cap %v", b, c)
			worst = math.Max(worst, over)
		}
	}
	a.residual(InvBox, worst)
}

// pinned reports whether node i sits on a box constraint, where the
// equalization conditions do not apply (the KKT multiplier absorbs the
// imbalance).
func pinned(model ClusterModel, b int, i int) bool {
	if b <= minLocalBatch {
		return true
	}
	return float64(b) >= model.Nodes[i].cap()
}

// nearStateBoundary reports whether node i's bottleneck state could flip
// within the integer-rounding slack: equalization group membership is
// ambiguous there.
func nearStateBoundary(model ClusterModel, i int, b float64, samples float64) bool {
	margin := (1 - model.Gamma) * model.Nodes[i].K * samples
	return math.Abs((1-model.Gamma)*model.Nodes[i].P(b)-model.To) <= margin
}

func (a *auditor) auditEqualization(model ClusterModel, plan Plan) {
	type member struct {
		node int
		t    float64
		step float64
	}
	var compute, comm []member
	for i, b := range plan.Batches {
		if pinned(model, b, i) || nearStateBoundary(model, i, float64(b), a.tol.EqualizeSamples) {
			continue
		}
		nm := model.Nodes[i]
		if model.NodeState(i, float64(b)) == ComputeBound {
			compute = append(compute, member{i, nm.Compute(float64(b)), nm.Q + nm.K})
		} else {
			comm = append(comm, member{i, model.SyncStart(i, float64(b)), nm.Q + model.Gamma*nm.K})
		}
	}
	groups := []struct {
		inv     Invariant
		members []member
	}{
		{InvComputeEqualized, compute},
		{InvCommEqualized, comm},
	}
	for _, g := range groups {
		if len(g.members) < 2 {
			continue
		}
		a.check(g.inv)
		lo, hi := g.members[0], g.members[0]
		maxStep := 0.0
		for _, m := range g.members {
			if m.t < lo.t {
				lo = m
			}
			if m.t > hi.t {
				hi = m
			}
			maxStep = math.Max(maxStep, m.step)
		}
		spread := hi.t - lo.t
		limit := a.tol.EqualizeSamples*maxStep + a.tol.AbsTime
		a.residual(g.inv, spread)
		if spread > limit {
			a.violate(g.inv, hi.node, spread, limit,
				"group spread %.4g (node %d at %.4g vs node %d at %.4g)",
				spread, hi.node, hi.t, lo.node, lo.t)
		}
	}
}

func (a *auditor) auditConsistency(model ClusterModel, plan Plan) {
	a.check(InvTimeConsistent)
	want := model.PredictTime(plan.Batches)
	diff := math.Abs(plan.Time - want)
	limit := a.tol.TimeRel*want + a.tol.AbsTime
	a.residual(InvTimeConsistent, diff)
	if diff > limit {
		a.violate(InvTimeConsistent, -1, diff, limit,
			"Plan.Time %.6g != PredictTime %.6g", plan.Time, want)
	}
	if len(plan.Ratios) == len(plan.Batches) {
		for i, r := range plan.Ratios {
			wantR := float64(plan.Batches[i]) / float64(plan.TotalBatch)
			if math.Abs(r-wantR) > 1e-12 {
				a.violate(InvTimeConsistent, i, math.Abs(r-wantR), 1e-12,
					"ratio %.6g != batch/total %.6g", r, wantR)
			}
		}
	}
	if len(plan.States) == len(plan.Batches) {
		for i, s := range plan.States {
			if want := model.NodeState(i, float64(plan.Batches[i])); s != want {
				a.violate(InvTimeConsistent, i, 1, 0, "state %v != %v at b=%d", s, want, plan.Batches[i])
			}
		}
	}
	if plan.ContinuousTime > 0 {
		a.check(InvLowerBound)
		excess := plan.ContinuousTime - plan.Time
		limit := a.tol.TimeRel*plan.Time + a.tol.AbsTime
		a.residual(InvLowerBound, math.Max(excess, 0))
		if excess > limit {
			a.violate(InvLowerBound, -1, excess, limit,
				"continuous relaxation %.6g above integer time %.6g", plan.ContinuousTime, plan.Time)
		}
	}
}

// auditReferenceGap differentially verifies the continuous layer: the
// waterfill reference solver is provably optimal on the unconstrained
// envelope, so whenever its solution is box-feasible the Algorithm 1
// pipeline must match it (within tolerance).
func (a *auditor) auditReferenceGap(model ClusterModel, plan Plan) {
	if plan.ContinuousTime <= 0 {
		return
	}
	n := len(model.Nodes)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	ref := waterfill(model, idx, float64(plan.TotalBatch))
	for i, v := range ref {
		if v < minLocalBatch-1e-9 || v > model.Nodes[i].cap()+1e-9 {
			return // reference solution infeasible under box constraints
		}
	}
	a.check(InvReferenceGap)
	refTime := model.PredictTimeFloat(ref)
	gap := plan.ContinuousTime - refTime
	limit := a.tol.ReferenceRel*refTime + a.tol.AbsTime
	a.residual(InvReferenceGap, math.Max(gap, 0))
	if gap > limit {
		a.violate(InvReferenceGap, -1, gap, limit,
			"continuous time %.6g worse than waterfill reference %.6g", plan.ContinuousTime, refTime)
	}
}

// waterfill equalizes each node's batch-time envelope
// f_i(b) = max(compute path, comm path) by bisection on the target time.
// It is the provably optimal reference solver (each f_i is increasing and
// convex, so equalized times minimize the maximum), independent of
// Algorithm 1, and the oracle of auditReferenceGap.
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
// can absorb is left undistributed, and the caller sees a box-infeasible
// reference.
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
			return // no node can absorb it
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

// auditNeighborhood brute-forces every integer allocation within
// NeighborhoodRadius samples of the plan (preserving the total and the box
// constraints) on clusters small enough to enumerate, and flags any
// neighbor that beats the plan beyond tolerance.
func (a *auditor) auditNeighborhood(model ClusterModel, plan Plan) {
	n := len(plan.Batches)
	if n < 2 || n > a.tol.MaxBruteNodes {
		return
	}
	a.check(InvNeighborhood)
	r := a.tol.NeighborhoodRadius
	limit := a.tol.NeighborhoodRel*plan.Time + a.tol.AbsTime
	trial := make([]int, n)
	deltas := make([]int, n-1)
	bestGain, worstResidual := 0.0, 0.0
	var bestAlloc []int
	var walk func(pos, sum int)
	walk = func(pos, sum int) {
		if pos == n-1 {
			last := -sum
			if last < -r || last > r {
				return
			}
			copy(trial, plan.Batches)
			for j, d := range deltas {
				trial[j] += d
			}
			trial[n-1] += last
			for i, b := range trial {
				if b < minLocalBatch || float64(b) > model.Nodes[i].cap() {
					return
				}
			}
			t := model.PredictTime(trial)
			if gain := plan.Time - t; gain > bestGain {
				bestGain = gain
				bestAlloc = append(bestAlloc[:0], trial...)
			}
			return
		}
		for d := -r; d <= r; d++ {
			deltas[pos] = d
			walk(pos+1, sum+d)
		}
	}
	walk(0, 0)
	worstResidual = math.Max(bestGain, 0)
	a.residual(InvNeighborhood, worstResidual)
	if bestGain > limit {
		a.violate(InvNeighborhood, -1, bestGain, limit,
			"neighbor %v beats plan %v by %.4g", bestAlloc, plan.Batches, bestGain)
	}
}
