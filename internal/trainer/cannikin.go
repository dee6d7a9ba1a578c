package trainer

import (
	"fmt"

	"cannikin/internal/gns"
	"cannikin/internal/goodput"
	"cannikin/internal/optperf"
	"cannikin/internal/perfmodel"
	"cannikin/internal/stats"
)

// Cannikin implements the paper's system (Section 4):
//
//   - Epoch 0 trains with an even split at the initial batch size; epoch 1
//     uses the Eq. 8 inverse-proportional bootstrap, giving every node two
//     distinct local batch sizes to fit its compute model.
//   - From epoch 2 on, the learned cluster model predicts OptPerf for every
//     total-batch-size candidate (cached as OptPerf_init and warm-started,
//     Section 4.5), the goodput-maximizing candidate is selected using the
//     heterogeneous GNS (Theorem 4.1), and the epoch runs with the OptPerf
//     local batch ratios.
//   - Gradients are aggregated with batch-proportional weights (Eq. 9) and
//     the communication constants are combined across nodes by inverse-
//     variance weighting.
type Cannikin struct {
	// UseIVW toggles inverse-variance weighting of the communication
	// constants (disable for the Section 5.3 ablation).
	UseIVW bool
	// UseOptimalGNS toggles the Theorem 4.1 weighted GNS estimator
	// (disable to fall back to naive averaging, for ablations). It is read
	// when the first epoch is planned.
	UseOptimalGNS bool
	// FixedBatch pins the total batch size (the paper's Section 5.2.2
	// fixed-batch evaluation); 0 enables adaptive batch sizing.
	FixedBatch int
	// Audit enables per-solve plan verification: every fresh OptPerf solve
	// (including the re-solves after chaos-triggered re-profiles) is checked
	// against the paper's optimality conditions and the outcome is attached
	// to the epoch plan. In strict mode a violation fails PlanEpoch.
	Audit optperf.AuditMode

	learner *perfmodel.ClusterLearner
	planner *optperf.Planner
	tracker *gns.Tracker
	// estimator holds the GNS combination weights, which depend only on the
	// epoch's local batches, across the epoch's steps.
	estimator *gns.Estimator
	// Per-node per-epoch communication-constant accumulators.
	commGamma, commTo, commTu []stats.Welford
	lastPlan                  optperf.Plan
	// solvesSeen counts the solver operations spent planning (the quantity
	// Table 6's overhead model charges). Nothing in the program reads it:
	// it is kept for TestCannikinPlanningWorkBounded, which bounds it.
	solvesSeen int
	// reprofile lists the nodes whose compute model drifted at the last
	// epoch boundary and therefore need a targeted probe epoch.
	reprofile []int
	// initPlans caches OptPerf_init: each candidate's predicted batch time
	// from the initialization sweep (Section 4.5).
	initPlans []goodput.Candidate
	// overlapSignature tracks the candidate overlap states to detect
	// pattern changes (Section 4.5 "Total batch size selection").
	overlapSignature map[int]int
}

var _ System = (*Cannikin)(nil)

// NewCannikin returns the full system with all optimizations enabled.
func NewCannikin() *Cannikin {
	return &Cannikin{
		UseIVW:           true,
		UseOptimalGNS:    true,
		tracker:          gns.NewTracker(0.05),
		overlapSignature: make(map[int]int),
	}
}

// Name implements System.
func (c *Cannikin) Name() string { return "cannikin" }

// PlanEpoch implements System.
func (c *Cannikin) PlanEpoch(env *Env, epoch int) (Plan, error) {
	n := env.Cluster.N()
	if c.learner == nil {
		c.learner = perfmodel.NewClusterLearner(n)
		c.estimator = gns.NewEstimator(!c.UseOptimalGNS)
		c.commGamma = make([]stats.Welford, n)
		c.commTo = make([]stats.Welford, n)
		c.commTu = make([]stats.Welford, n)
	}
	c.learner.UseIVW = c.UseIVW

	baseTotal := env.MinTotal
	if c.FixedBatch > 0 {
		baseTotal = c.FixedBatch
		if baseTotal < env.MinTotal {
			baseTotal = env.MinTotal
		}
		if baseTotal > env.MaxTotal {
			baseTotal = env.MaxTotal
		}
	}

	switch {
	case epoch == 0:
		// Even split at the initial batch size.
		local, err := env.EvenSplit(baseTotal)
		if err != nil {
			return Plan{}, err
		}
		plan := Plan{TotalBatch: baseTotal, Local: local}
		if err := c.attachAllocationAudit(&plan, env); err != nil {
			return Plan{}, err
		}
		return plan, nil

	case epoch == 1 || !c.learner.HasModel():
		// Targeted re-profiling: when specific nodes drifted mid-run,
		// probe only those, keeping the healthy nodes near their current
		// allocation instead of re-bootstrapping the whole cluster.
		if len(c.reprofile) > 0 && len(c.lastPlan.Batches) == n {
			return c.reprofilePlan(env)
		}
		// Eq. 8 bootstrap: inverse-proportional to measured per-sample
		// time, at a growing batch so every node keeps seeing distinct
		// local sizes until its compute model can be fitted.
		perSample, err := c.learner.PerSampleTimes()
		if err != nil {
			return Plan{}, fmt.Errorf("cannikin bootstrap: %w", err)
		}
		total := baseTotal * (2 + epoch) / 2
		if floor := 2 * env.Cluster.N(); total < floor {
			// With tiny initial batches every node holds a single sample
			// and no second distinct size exists; two samples per node
			// unblocks model fitting.
			total = floor
		}
		if c.FixedBatch > 0 {
			// Fixed-batch mode keeps the total: the Eq. 8 proportional
			// allocation already differs from the even split, and
			// forceDistinct covers any coincidences.
			total = baseTotal
		}
		if total > env.MaxTotal {
			total = env.MaxTotal
		}
		local, err := optperf.ProportionalAllocation(perSample, total, env.Caps)
		if err != nil {
			return Plan{}, fmt.Errorf("cannikin bootstrap: %w", err)
		}
		c.forceDistinct(env, local)
		plan := Plan{TotalBatch: total, Local: local}
		if err := c.attachAllocationAudit(&plan, env); err != nil {
			return Plan{}, err
		}
		return plan, nil
	}

	// Learned-model path.
	model, err := c.learner.Model(env.Caps)
	if err != nil {
		return Plan{}, fmt.Errorf("cannikin model: %w", err)
	}
	if c.planner == nil {
		c.planner, err = optperf.NewPlanner(model)
		if err != nil {
			return Plan{}, err
		}
	} else if err := c.planner.UpdateModel(model); err != nil {
		return Plan{}, err
	}
	c.planner.Audit = c.Audit
	solvesBefore := c.plannerWork()

	if c.FixedBatch > 0 {
		// Fixed-batch mode: predict OptPerf directly for the pinned size.
		chosen, err := c.planner.Plan(baseTotal)
		if err != nil {
			return Plan{}, c.planErr(err)
		}
		c.lastPlan = chosen
		solves := c.plannerWork() - solvesBefore
		c.solvesSeen += solves
		plan := Plan{TotalBatch: chosen.TotalBatch, Local: chosen.Batches, Solves: solves}
		c.attachPlannerAudit(&plan)
		return plan, nil
	}

	// Section 4.5 "Total batch size selection": in the initialization epoch
	// OptPerf_init is computed for every candidate; later epochs select the
	// total batch size from the cached OptPerf_init and only re-determine
	// OptPerf for the chosen candidate, unless the overlap pattern drifted.
	if c.initPlans == nil {
		if err := c.computeInitPlans(env); err != nil {
			return Plan{}, c.planErr(err)
		}
	}
	sel, err := goodput.Select(c.initPlans, c.tracker.Noise(), env.Workload.InitBatch)
	if err != nil {
		return Plan{}, fmt.Errorf("cannikin goodput: %w", err)
	}
	chosen, err := c.planner.Plan(sel.Batch)
	if err != nil {
		return Plan{}, c.planErr(err)
	}
	if prev, ok := c.overlapSignature[chosen.TotalBatch]; ok && prev != chosen.NumComputeBound() {
		// Overlap pattern changed: re-determine every candidate
		// (Section 4.5), then re-select.
		c.planner.InvalidateCache()
		if err := c.computeInitPlans(env); err != nil {
			return Plan{}, c.planErr(err)
		}
		if sel, err = goodput.Select(c.initPlans, c.tracker.Noise(), env.Workload.InitBatch); err != nil {
			return Plan{}, fmt.Errorf("cannikin goodput: %w", err)
		}
		if chosen, err = c.planner.Plan(sel.Batch); err != nil {
			return Plan{}, c.planErr(err)
		}
	} else {
		// Refresh OptPerf_init for the chosen candidate only.
		for i := range c.initPlans {
			if c.initPlans[i].Batch == chosen.TotalBatch {
				c.initPlans[i].Time = chosen.Time
			}
		}
	}
	c.overlapSignature[chosen.TotalBatch] = chosen.NumComputeBound()
	// Reconfiguration stickiness: model refreshes wiggle the optimal
	// allocation by a sample or two; reloading every node's data index for
	// a sub-1% predicted gain costs more than it saves.
	if c.lastPlan.TotalBatch == chosen.TotalBatch && len(c.lastPlan.Batches) == len(chosen.Batches) {
		prevTime := c.planner.Model().PredictTime(c.lastPlan.Batches)
		if prevTime <= chosen.Time*1.01 {
			chosen.Batches = c.lastPlan.Batches
			chosen.Time = prevTime
		}
	}
	c.lastPlan = chosen
	solves := c.plannerWork() - solvesBefore
	c.solvesSeen += solves
	plan := Plan{TotalBatch: chosen.TotalBatch, Local: chosen.Batches, Solves: solves}
	c.attachPlannerAudit(&plan)
	return plan, nil
}

// attachAllocationAudit validates a bootstrap/reprofile allocation against
// the batch-sum and box invariants (no fitted model exists yet, so the
// equalization conditions cannot be checked) and attaches the outcome. In
// strict mode a violation fails the plan.
func (c *Cannikin) attachAllocationAudit(plan *Plan, env *Env) error {
	if c.Audit == optperf.AuditOff {
		return nil
	}
	report := optperf.AuditAllocation(plan.Local, plan.TotalBatch, env.Caps)
	pa := &PlanAudit{}
	pa.Summary.Add(report)
	plan.Audit = pa
	if c.Audit == optperf.AuditStrict {
		if err := report.Err(); err != nil {
			return fmt.Errorf("cannikin bootstrap plan: %w", err)
		}
	}
	return nil
}

// attachPlannerAudit drains the planner's accumulated per-solve audit
// reports into the plan, annotated with the learner's current fit error so
// residuals can be read in context.
func (c *Cannikin) attachPlannerAudit(plan *Plan) {
	if c.Audit == optperf.AuditOff {
		return
	}
	plan.Audit = &PlanAudit{
		Summary:       c.planner.DrainAudit(),
		ModelFitError: c.learner.MaxFitError(),
	}
}

// planErr drains the audit accumulator on a failed solve so a later epoch
// does not double-report the failure, and passes the error through.
func (c *Cannikin) planErr(err error) error {
	if c.planner != nil {
		c.planner.DrainAudit()
	}
	return err
}

// reprofilePlan probes only the drifted nodes (Section 4.5's re-learning,
// made targeted): healthy nodes keep their last-plan batches — their
// models are still valid — while each drifted node is reallocated in
// proportion to its freshly measured per-sample speed, then nudged to an
// unseen batch size so its linear compute model can refit from two
// distinct points. The total batch is preserved by balancing the
// difference across the healthy nodes, and the probe work is charged as
// bounded re-profile overhead.
func (c *Cannikin) reprofilePlan(env *Env) (Plan, error) {
	perSample, err := c.learner.PerSampleTimes()
	if err != nil {
		return Plan{}, fmt.Errorf("cannikin reprofile: %w", err)
	}
	n := env.Cluster.N()
	drifted := make(map[int]bool, len(c.reprofile))
	for _, i := range c.reprofile {
		drifted[i] = true
	}
	probes := len(c.reprofile)
	c.reprofile = nil

	local := append([]int(nil), c.lastPlan.Batches...)
	total := 0
	for _, b := range local {
		total += b
	}
	sumSpeed := 0.0
	for i := 0; i < n; i++ {
		if perSample[i] <= 0 {
			return Plan{}, fmt.Errorf("cannikin reprofile: node %d per-sample time %v", i, perSample[i])
		}
		sumSpeed += 1 / perSample[i]
	}
	for i := range local {
		if !drifted[i] {
			continue
		}
		// Eq. 8 proportional target from the drifted epoch's measurements.
		b := int(float64(total) / (perSample[i] * sumSpeed))
		if b < 1 {
			b = 1
		}
		if b > env.Caps[i] {
			b = env.Caps[i]
		}
		local[i] = b
	}
	// Restore the total on the healthy nodes (every node when the whole
	// cluster drifted).
	sum := 0
	for _, b := range local {
		sum += b
	}
	relaxed := probes >= n
	for sum != total {
		progressed := false
		for i := 0; i < n; i++ {
			if sum == total {
				break
			}
			if drifted[i] && !relaxed {
				continue
			}
			if sum < total && local[i] < env.Caps[i] {
				local[i]++
				sum++
				progressed = true
			} else if sum > total && local[i] > 1 {
				local[i]--
				sum--
				progressed = true
			}
		}
		if !progressed {
			// The healthy nodes alone cannot absorb the difference (caps or
			// floors); spread the remainder over the probed nodes too.
			if !relaxed {
				relaxed = true
				continue
			}
			return Plan{}, fmt.Errorf("cannikin reprofile: cannot rebalance to total %d", total)
		}
	}
	c.forceDistinct(env, local)
	plan := Plan{TotalBatch: total, Local: local, Reprofiled: probes}
	if err := c.attachAllocationAudit(&plan, env); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// forceDistinct perturbs a bootstrap allocation so every node trains at a
// local batch size it has not seen, moving single samples between nodes to
// preserve the total: fitting a node's linear compute model needs two
// distinct sizes. Nodes stuck at the minimum borrow from the richest donor.
func (c *Cannikin) forceDistinct(env *Env, local []int) {
	needsChange := func(i int) bool {
		l := c.learner.Node(i)
		return l.Observations() > 0 && l.DistinctBatches() < 2 && l.SeenBatch(local[i])
	}
	pending := make(map[int]bool)
	for i := range local {
		if needsChange(i) {
			pending[i] = true
		}
	}
	richestDonor := func(exclude int) int {
		best := -1
		for j := range local {
			if j == exclude || pending[j] || local[j] <= 1 {
				continue
			}
			if best < 0 || local[j] > local[best] {
				best = j
			}
		}
		return best
	}
	for i := range local {
		if !pending[i] {
			continue
		}
		switch {
		case local[i] < env.Caps[i]:
			if j := richestDonor(i); j >= 0 {
				local[i]++
				local[j]--
				delete(pending, i)
				continue
			}
		}
		if local[i] > 1 {
			// Give a sample to any non-pending node with headroom.
			for j := range local {
				if j != i && !pending[j] && local[j] < env.Caps[j] {
					local[i]--
					local[j]++
					delete(pending, i)
					break
				}
			}
		}
	}
	// Any still-pending nodes pair among themselves (+1/-1).
	var rest []int
	for i := range local {
		if pending[i] {
			rest = append(rest, i)
		}
	}
	for k := 0; k+1 < len(rest); k += 2 {
		a, b := rest[k], rest[k+1]
		if local[a] < env.Caps[a] && local[b] > 1 {
			local[a]++
			local[b]--
		} else if local[b] < env.Caps[b] && local[a] > 1 {
			local[b]++
			local[a]--
		}
	}
}

// computeInitPlans solves OptPerf for every candidate (the initialization
// sweep of Section 4.5) and records the overlap signatures.
func (c *Cannikin) computeInitPlans(env *Env) error {
	plans, err := c.planner.PlanAll(env.Candidates)
	if err != nil {
		return fmt.Errorf("cannikin optperf init: %w", err)
	}
	c.initPlans = make([]goodput.Candidate, len(plans))
	for i, p := range plans {
		c.initPlans[i] = goodput.Candidate{Batch: p.TotalBatch, Time: p.Time}
		c.overlapSignature[p.TotalBatch] = p.NumComputeBound()
	}
	return nil
}

// plannerWork counts the planner's linear solves. A boundary probe is a
// solve too, and split already counted it, so BoundarySearchSteps adds none.
func (c *Cannikin) plannerWork() int {
	return c.planner.Stats().LinearSolves
}

// ObserveStep implements System: feed the per-node compute and comm
// measurements to the learners, and the gradient norms to the GNS tracker.
func (c *Cannikin) ObserveStep(env *Env, obs StepObs) {
	for i, ns := range obs.Step.PerNode {
		c.learner.Node(i).Observe(ns.Batch, ns.A, ns.P)
		c.commGamma[i].Add(ns.Gamma)
		c.commTo[i].Add(ns.To)
		c.commTu[i].Add(ns.Tu)
	}
	if obs.GNS != nil {
		if est, err := c.estimator.Estimate(*obs.GNS); err == nil {
			c.tracker.Observe(est)
		}
	}
}

// ObserveEpochEnd implements System: each node reports its epoch-level
// communication-constant observation with an honest variance, then the
// accumulators reset.
func (c *Cannikin) ObserveEpochEnd(env *Env) {
	for i := range c.commGamma {
		if c.commGamma[i].N() < 2 {
			continue
		}
		nObs := float64(c.commGamma[i].N())
		c.learner.ObserveComm(perfmodel.CommObservation{
			Gamma: c.commGamma[i].Mean(), GammaVar: c.commGamma[i].Var() / nObs,
			To: c.commTo[i].Mean(), ToVar: c.commTo[i].Var() / nObs,
			Tu: c.commTu[i].Mean(), TuVar: c.commTu[i].Var() / nObs,
		})
		c.commGamma[i] = stats.Welford{}
		c.commTo[i] = stats.Welford{}
		c.commTu[i] = stats.Welford{}
	}
	c.learner.EndEpoch()
	if c.learner.AnyDrifted() {
		// Resources changed — a node's compute share or a network link:
		// every cached OptPerf prediction is stale. Drop them and
		// re-determine from the fresh model, probing the drifted nodes
		// first.
		c.initPlans = nil
		if c.planner != nil {
			c.planner.InvalidateCache()
		}
		c.reprofile = c.learner.DriftedNodes()
	}
}

// Noise exposes the smoothed heterogeneous GNS estimate.
func (c *Cannikin) Noise() float64 { return c.tracker.Noise() }

// LearnedModel returns the current learned cluster model, or an error
// before enough epochs have run.
func (c *Cannikin) LearnedModel(env *Env) (optperf.ClusterModel, error) {
	if c.learner == nil {
		return optperf.ClusterModel{}, fmt.Errorf("cannikin: no observations yet")
	}
	return c.learner.Model(env.Caps)
}
