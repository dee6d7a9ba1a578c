package optperf

import (
	"errors"
	"fmt"
	"sort"
)

// Planner implements Section 4.5's engineering around Algorithm 1:
//
//   - Total batch size selection: after the initial epoch, OptPerf_init is
//     computed once for every candidate total batch size; later epochs
//     reuse the cached values and only re-solve the chosen candidate.
//   - Overlap state searching: candidates are enumerated small-to-large so
//     each solve warm-starts from the previous candidate's overlap state,
//     and later epochs warm-start from the cached state.
//
// A Planner is bound to one cluster model revision; UpdateModel installs a
// newer learned model while retaining warm-start state.
type Planner struct {
	// Audit enables per-solve plan verification: every freshly solved plan
	// is checked against the OptPerf optimality conditions (cache hits were
	// audited when first solved). In AuditStrict mode a violation fails the
	// Plan/PlanAll call with an error wrapping ErrAuditFailed.
	Audit AuditMode
	// AuditTol overrides the audit tolerances; the zero value means
	// defaults.
	AuditTol Tolerances

	model ClusterModel
	cache map[int]Plan
	stats SolveStats
	hits  int
	audit AuditSummary
}

// AuditSummary aggregates the audit outcomes of a batch of solves.
type AuditSummary struct {
	// Plans is how many freshly solved plans were audited.
	Plans int
	// Violations is the total invariant violations across those plans.
	Violations int
	// MaxViolationRatio is the worst residual/limit ratio observed.
	MaxViolationRatio float64
	// Failures retains the failing reports, capped at 4.
	Failures []AuditReport
}

// Add folds one audit report into the summary.
func (s *AuditSummary) Add(r AuditReport) {
	s.Plans++
	if r.OK() {
		return
	}
	s.Violations += len(r.Violations)
	if ratio := r.MaxViolationRatio(); ratio > s.MaxViolationRatio {
		s.MaxViolationRatio = ratio
	}
	if len(s.Failures) < 4 {
		s.Failures = append(s.Failures, r)
	}
}

// NewPlanner returns a planner for the given model.
func NewPlanner(model ClusterModel) (*Planner, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Planner{model: model, cache: make(map[int]Plan)}, nil
}

// Model returns the planner's current cluster model.
func (p *Planner) Model() ClusterModel { return p.model }

// UpdateModel installs a refreshed cluster model. Cached plans are kept as
// warm-start hints but their times are marked stale by re-solving on next
// use.
func (p *Planner) UpdateModel(model ClusterModel) error {
	if err := model.Validate(); err != nil {
		return err
	}
	p.model = model
	// Keep the cache only as hints: times must be recomputed lazily.
	for b, c := range p.cache {
		c.Time = -1
		p.cache[b] = c
	}
	return nil
}

// Plan solves OptPerf for one total batch size, reusing cached results when
// the model has not changed since they were computed.
func (p *Planner) Plan(totalBatch int) (Plan, error) {
	return p.solve(totalBatch, nil)
}

// PlanAll solves OptPerf for every candidate total batch size, enumerating
// small-to-large so each solve warm-starts from its predecessor's overlap
// state (larger batches only push nodes toward compute-bottleneck).
func (p *Planner) PlanAll(candidates []int) ([]Plan, error) {
	sorted := append([]int(nil), candidates...)
	sort.Ints(sorted)
	plans := make([]Plan, 0, len(sorted))
	var prevState *int
	for _, b := range sorted {
		plan, err := p.solve(b, prevState)
		if err != nil {
			return nil, fmt.Errorf("candidate %d: %w", b, err)
		}
		plans = append(plans, plan)
		h := plan.NumComputeBound()
		prevState = &h
	}
	return plans, nil
}

// solve returns the cached plan for totalBatch while its time is current.
// Otherwise it solves, warm-started from a stale cached plan's overlap state
// (how many nodes were compute-bottleneck) or else from hint, and audits and
// caches the result.
func (p *Planner) solve(totalBatch int, hint *int) (Plan, error) {
	c, ok := p.cache[totalBatch]
	if ok && c.Time >= 0 {
		p.hits++
		return c, nil
	}
	if ok {
		h := c.NumComputeBound()
		hint = &h
	}
	plan, report, stats, err := solveWithHintAudited(p.model, totalBatch, hint, p.Audit, p.AuditTol)
	p.stats.add(stats)
	if p.Audit != AuditOff && (err == nil || errors.Is(err, ErrAuditFailed)) {
		p.audit.Add(report)
	}
	if err != nil {
		return Plan{}, err
	}
	p.cache[totalBatch] = plan
	return plan, nil
}

// Stats returns cumulative solver work counters.
func (p *Planner) Stats() SolveStats { return p.stats }

// DrainAudit returns the audit outcomes accumulated since the last drain
// and resets the accumulator.
func (p *Planner) DrainAudit() AuditSummary {
	s := p.audit
	p.audit = AuditSummary{}
	return s
}

// CacheHits returns how many Plan/PlanAll requests were served from cache.
func (p *Planner) CacheHits() int { return p.hits }

// InvalidateCache drops all cached plans (used when the overlap pattern
// changed and Section 4.5 requires re-determining every candidate).
func (p *Planner) InvalidateCache() {
	p.cache = make(map[int]Plan)
}
