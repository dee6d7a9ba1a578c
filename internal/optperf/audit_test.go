package optperf

import (
	"errors"
	"strings"
	"testing"
)

// solveAudited is Solve with the opt-in audit mode: the returned plan is
// verified against the paper's optimality conditions (see AuditPlan). In
// AuditStrict mode any violation becomes an error wrapping ErrAuditFailed;
// in AuditAdvisory mode violations are only recorded in the report. A zero
// Tolerances value selects the defaults.
func solveAudited(model ClusterModel, totalBatch int, mode AuditMode, tol Tolerances) (Plan, AuditReport, error) {
	plan, report, _, err := solveWithHintAudited(model, totalBatch, nil, mode, tol)
	return plan, report, err
}

// mustAuditedSolve solves with strict auditing and fails the test on any
// invariant violation: it is the Solve every optperf test goes through, so
// the whole property/fuzz/scalability suite doubles as a continuous solver
// regression test.
func mustAuditedSolve(t testing.TB, m ClusterModel, total int) (Plan, error) {
	t.Helper()
	plan, report, err := solveAudited(m, total, AuditStrict, Tolerances{})
	if errors.Is(err, ErrAuditFailed) {
		t.Fatalf("audit violation at B=%d: %v\nplan: %+v\nresiduals: %v", total, err, plan, report.Residuals)
	}
	return plan, err
}

func TestAuditPlanCleanSolve(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	plan, err := Solve(m, 120)
	if err != nil {
		t.Fatal(err)
	}
	report := AuditPlan(m, plan, Tolerances{})
	if !report.OK() {
		t.Fatalf("clean solve failed audit: %v", report.Err())
	}
	if report.Err() != nil {
		t.Fatal("OK report must have nil Err")
	}
	// All core invariants must have been evaluated with residuals recorded.
	for _, inv := range []Invariant{InvBatchSum, InvBox, InvTimeConsistent, InvLowerBound, InvNeighborhood} {
		found := false
		for _, c := range report.Checked {
			if c == inv {
				found = true
			}
		}
		if !found {
			t.Fatalf("invariant %s not checked (checked: %v)", inv, report.Checked)
		}
		if _, ok := report.Residuals[inv]; !ok {
			t.Fatalf("invariant %s has no recorded residual", inv)
		}
	}
}

func TestAuditPlanCatchesBadSum(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	plan, err := Solve(m, 120)
	if err != nil {
		t.Fatal(err)
	}
	plan.Batches[0]++ // corrupt: sum no longer matches
	report := AuditPlan(m, plan, Tolerances{})
	if report.OK() {
		t.Fatal("corrupted sum passed audit")
	}
	if !hasViolation(report, InvBatchSum) {
		t.Fatalf("missing %s violation: %v", InvBatchSum, report.Violations)
	}
	if err := report.Err(); !errors.Is(err, ErrAuditFailed) {
		t.Fatalf("Err must wrap ErrAuditFailed: %v", err)
	}
}

func TestAuditPlanCatchesCapBreach(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	m.Nodes[0].MaxBatch = 20
	plan, err := Solve(m, 90)
	if err != nil {
		t.Fatal(err)
	}
	plan.Batches[0] = 30 // above cap
	plan.Batches[1] -= 10
	report := AuditPlan(m, plan, Tolerances{})
	if !hasViolation(report, InvBox) {
		t.Fatalf("missing %s violation: %v", InvBox, report.Violations)
	}
}

func TestAuditPlanCatchesSkewedAllocation(t *testing.T) {
	// Move a big chunk of batch from the fast node to the slow node: the
	// equalization invariant (and the neighborhood search) must notice.
	m := threeNodeModel(0, 0.005, 0.25) // To=0: all compute-bottleneck
	plan, err := Solve(m, 300)
	if err != nil {
		t.Fatal(err)
	}
	plan.Batches[0] -= 40
	plan.Batches[2] += 40
	plan.Time = m.PredictTime(plan.Batches)
	for i, b := range plan.Batches {
		plan.States[i] = m.NodeState(i, float64(b))
		plan.Ratios[i] = float64(b) / float64(plan.TotalBatch)
	}
	report := AuditPlan(m, plan, Tolerances{})
	if report.OK() {
		t.Fatal("skewed allocation passed audit")
	}
	if !hasViolation(report, InvComputeEqualized) && !hasViolation(report, InvNeighborhood) {
		t.Fatalf("expected equalization or neighborhood violation: %v", report.Violations)
	}
}

func TestAuditPlanCatchesStaleTime(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	plan, err := Solve(m, 120)
	if err != nil {
		t.Fatal(err)
	}
	plan.Time *= 0.5 // stale/corrupted recorded time
	report := AuditPlan(m, plan, Tolerances{})
	if !hasViolation(report, InvTimeConsistent) {
		t.Fatalf("missing %s violation: %v", InvTimeConsistent, report.Violations)
	}
}

func TestAuditPlanCatchesInflatedContinuousTime(t *testing.T) {
	// A continuous "solution" above the integer time means the continuous
	// layer was suboptimal (e.g. the old waterfill residue dump).
	m := threeNodeModel(0.01, 0.005, 0.25)
	plan, err := Solve(m, 120)
	if err != nil {
		t.Fatal(err)
	}
	plan.ContinuousTime = plan.Time * 1.5
	report := AuditPlan(m, plan, Tolerances{})
	if !hasViolation(report, InvLowerBound) {
		t.Fatalf("missing %s violation: %v", InvLowerBound, report.Violations)
	}
}

func TestAuditAllocation(t *testing.T) {
	report := AuditAllocation([]int{4, 3, 3}, 10, []int{8, 8, 8})
	if !report.OK() {
		t.Fatalf("valid allocation failed: %v", report.Err())
	}
	report = AuditAllocation([]int{9, 0, 3}, 10, []int{8, 8, 8})
	if report.OK() {
		t.Fatal("bad allocation passed")
	}
	if !hasViolation(report, InvBatchSum) || !hasViolation(report, InvBox) {
		t.Fatalf("expected sum+box violations: %v", report.Violations)
	}
}

func TestAuditModeString(t *testing.T) {
	if AuditOff.String() != "off" || AuditAdvisory.String() != "advisory" || AuditStrict.String() != "strict" {
		t.Fatal("AuditMode strings wrong")
	}
	if AuditMode(42).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: InvBox, Node: 2, Residual: 3, Limit: 0, Detail: "batch 13 above cap 10"}
	s := v.String()
	for _, want := range []string{"box-constraints", "node 2", "batch 13"} {
		if !strings.Contains(s, want) {
			t.Fatalf("violation string %q missing %q", s, want)
		}
	}
}

func TestSolveAuditedModes(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	plan, report, err := solveAudited(m, 120, AuditStrict, Tolerances{})
	if err != nil {
		t.Fatalf("strict audit of a correct solve must pass: %v", err)
	}
	if !report.OK() || plan.TotalBatch != 120 {
		t.Fatalf("unexpected report/plan: %+v", report)
	}
	// AuditOff returns an empty report.
	_, report, err = solveAudited(m, 120, AuditOff, Tolerances{})
	if err != nil || len(report.Checked) != 0 {
		t.Fatalf("AuditOff must skip checks: %v %+v", err, report)
	}
}

func TestPlannerAuditAccumulates(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	p, err := NewPlanner(m)
	if err != nil {
		t.Fatal(err)
	}
	p.Audit = AuditAdvisory
	if _, err := p.Plan(60); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlanAll([]int{30, 90}); err != nil {
		t.Fatal(err)
	}
	sum := p.DrainAudit()
	if sum.Plans != 3 {
		t.Fatalf("audited %d plans, want 3", sum.Plans)
	}
	if sum.Violations != 0 || sum.MaxViolationRatio != 0 {
		t.Fatalf("clean model produced violations: %+v", sum)
	}
	// Cache hits are not re-audited.
	if _, err := p.Plan(60); err != nil {
		t.Fatal(err)
	}
	if sum := p.DrainAudit(); sum.Plans != 0 {
		t.Fatalf("cache hit re-audited: %+v", sum)
	}
}

func hasViolation(r AuditReport, inv Invariant) bool {
	for _, v := range r.Violations {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

// TestDifferentialWaterfillAgreement: on models where the unconstrained
// waterfill is box-feasible, the audit's reference-gap check must run and
// agree with the Algorithm 1 pipeline.
func TestDifferentialWaterfillAgreement(t *testing.T) {
	m := threeNodeModel(0.01, 0.005, 0.25)
	plan, report, err := solveAudited(m, 150, AuditStrict, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	for _, c := range report.Checked {
		if c == InvReferenceGap {
			checked = true
		}
	}
	if !checked {
		t.Fatalf("reference gap not checked on a feasible model (plan %v)", plan.Batches)
	}
	if report.Residuals[InvReferenceGap] > 1e-6*plan.ContinuousTime {
		t.Fatalf("continuous solution drifted from waterfill reference by %v", report.Residuals[InvReferenceGap])
	}
}
