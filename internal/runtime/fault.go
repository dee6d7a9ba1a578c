package runtime

import (
	"errors"
	"fmt"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/chaos"
	"cannikin/internal/optperf"
)

// Replan policies for FaultConfig.Replan.
const (
	// ReplanKeep keeps each survivor's current local batch after an
	// eviction (the deterministic default).
	ReplanKeep = "keep"
	// ReplanOptPerf re-solves OptPerf over the survivor cluster using the
	// performance model fitted from the live profile measured so far, and
	// adopts the re-optimized local batches. Falls back to ReplanKeep when
	// the profile cannot be fitted yet.
	ReplanOptPerf = "optperf"
)

// checkReplan is the one check of a replan policy name, wherever one is
// configured: "" (keep), "keep" or "optperf".
func checkReplan(what, name string) error {
	switch name {
	case "", ReplanKeep, ReplanOptPerf:
		return nil
	}
	return fmt.Errorf("runtime: %s: unknown replan policy %q (want keep or optperf)", what, name)
}

// ErrNoSurvivors reports that every worker was evicted: there is no
// cluster left to resume training on.
var ErrNoSurvivors = errors.New("runtime: all workers evicted")

// FaultConfig enables deterministic fault injection and the
// fault-tolerance policy for the live backend. With a FaultConfig set,
// every ring hop runs under a per-hop deadline with bounded retry and
// exponential backoff; on exhaustion the failed step is retried once on a
// rebuilt ring, and persistent failures evict the offending worker:
// survivors checkpoint the last fully-reduced weights, local batches are
// re-planned over the n-1 cluster, Eq. 9 aggregation weights are rescaled,
// and training resumes.
type FaultConfig struct {
	// Schedule is the deterministic fault plan (may be empty: then the
	// config only arms the detection/retry machinery).
	Schedule chaos.FaultSchedule
	// HopTimeout, Retries, Backoff, MaxTimeout parameterize the per-hop
	// retry policy (see allreduce.RetryPolicy; zero fields take its
	// defaults).
	HopTimeout time.Duration
	Retries    int
	Backoff    float64
	MaxTimeout time.Duration
	// StepTimeout is the driver's per-step deadline for collecting every
	// worker's result; a worker that stays silent past it is declared dead
	// (default 4x the per-hop retry budget, at least 2s).
	StepTimeout time.Duration
	// StepRetries is how many times a failed step with no identified dead
	// worker is retried on a rebuilt ring before the most-suspected worker
	// is evicted (default 1).
	StepRetries int
	// Replan picks the survivor batch policy: "keep" (default) or "optperf".
	Replan string
}

func (c *FaultConfig) policy() allreduce.RetryPolicy {
	return allreduce.RetryPolicy{
		HopTimeout: c.HopTimeout,
		Retries:    c.Retries,
		Backoff:    c.Backoff,
		MaxTimeout: c.MaxTimeout,
	}.WithDefaults()
}

func (c *FaultConfig) stepTimeout() time.Duration {
	if c.StepTimeout > 0 {
		return c.StepTimeout
	}
	d := 4 * c.policy().Budget()
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func (c *FaultConfig) stepRetries() int {
	if c.StepRetries > 0 {
		return c.StepRetries
	}
	return 1
}

func (c *FaultConfig) validate(workers int) error {
	if err := c.Schedule.Validate(workers); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	if err := checkReplan("fault", c.Replan); err != nil {
		return err
	}
	if c.HopTimeout < 0 || c.Retries < 0 || c.StepTimeout < 0 || c.StepRetries < 0 {
		return fmt.Errorf("runtime: negative fault-tolerance timing")
	}
	return nil
}

// Eviction records one coordinated worker eviction and the recovery that
// followed. Worker indices are the run's original ranks, stable across
// repeated evictions.
type Eviction struct {
	// Epoch and Step locate the failed step (global step count).
	Epoch, Step int
	// Workers are the evicted original ranks; Reason says why.
	Workers []int
	Reason  string
	// Survivors are the remaining original ranks, in their new rank order.
	Survivors []int
	// SurvivorBatches are the local batches the survivor cluster resumed
	// with (after re-planning).
	SurvivorBatches []int
	// Checkpoint is the flat weight vector training resumed from: the last
	// fully-reduced weights, bitwise-identical on every survivor. A fresh run
	// seeded with InitWeights = Checkpoint on the survivor cluster, drawing
	// from the "recovery-<n>" child stream (n counting evictions from 1),
	// reproduces the post-eviction trajectory bitwise.
	Checkpoint []float64
	// Replanned reports that OptPerf re-planning produced the survivor
	// batches (false = survivors kept their current batches).
	Replanned bool
}

// FaultRecord is one injected fault a worker actually suffered, reported
// in global step order with original worker ranks.
type FaultRecord struct {
	Step, Worker int
	// Stall and SendDelay are the injected delays; SendDrops the dropped
	// send attempts; Killed marks a permanent worker kill.
	Stall, SendDelay time.Duration
	SendDrops        int
	Killed           bool
}

// String renders the record for traces and logs.
func (f FaultRecord) String() string {
	switch {
	case f.Killed:
		return fmt.Sprintf("step %d worker %d killed", f.Step, f.Worker)
	case f.Stall > 0 && (f.SendDelay > 0 || f.SendDrops > 0):
		return fmt.Sprintf("step %d worker %d stalled %v + comm fault", f.Step, f.Worker, f.Stall)
	case f.Stall > 0:
		return fmt.Sprintf("step %d worker %d stalled %v", f.Step, f.Worker, f.Stall)
	case f.SendDrops > 0:
		return fmt.Sprintf("step %d worker %d dropped %d sends", f.Step, f.Worker, f.SendDrops)
	default:
		return fmt.Sprintf("step %d worker %d send delayed %v", f.Step, f.Worker, f.SendDelay)
	}
}

// faultTolerance is the compiled fault-tolerance runtime handed to the
// live executor: the injector, the hop retry policy, the driver-side step
// deadline, and the sink for every injected fault a worker consumed
// (incarnation-relative ranks).
type faultTolerance struct {
	inj         *chaos.FaultInjector
	policy      allreduce.RetryPolicy
	stepTimeout time.Duration
	record      func(FaultRecord)
}

// stepFailure is the driver's view of one failed synchronized step.
type stepFailure struct {
	// dead are the ranks (incarnation-relative) that never responded
	// within the step deadline — crashed or permanently stalled workers.
	dead []int
	// blame tallies, per rank, how often its neighbors' failed hops
	// suspected it.
	blame []int
	// firstErr is one representative hop error for reporting.
	firstErr error
}

// Error renders the failure as the eviction reason it becomes; it is what
// executor.step fails with under fault tolerance.
func (f *stepFailure) Error() string {
	reason := "ring fault"
	if len(f.dead) > 0 {
		reason = "step timeout"
	}
	if f.firstErr != nil {
		reason = fmt.Sprintf("%s: %v", reason, f.firstErr)
	}
	return reason
}

// victims picks who to evict: dead workers if any were identified,
// otherwise the most-blamed rank (ties broken toward the lowest rank so
// the choice is reproducible).
func (f *stepFailure) victims() []int {
	if len(f.dead) > 0 {
		return f.dead
	}
	best, bestN := -1, 0
	for r, n := range f.blame {
		if n > bestN {
			best, bestN = r, n
		}
	}
	if best < 0 {
		return nil
	}
	return []int{best}
}

// replan picks the local batches of the membership that follows a change:
// the incumbents that stay (ranks into current) and, when joinBatch is
// positive, one joiner after them. The default keeps every incumbent's
// current batch and gives the joiner joinBatch; ReplanOptPerf fits the
// paper's performance model to the live profile measured so far, keeps the
// staying incumbents' nodes, appends the joiner's probe model, and re-solves
// OptPerf for the same total — falling back to the default whenever a model
// is missing or the solve is unusable, so re-planning can never break the
// run.
func replan(policy string, prof *Profile, incumbents, current []int, joinBatch int, joinNode *optperf.NodeModel) (batches []int, replanned bool) {
	joining := joinBatch > 0
	total := 0
	for _, r := range incumbents {
		batches = append(batches, current[r])
		total += current[r]
	}
	if joining {
		batches = append(batches, joinBatch)
		total += joinBatch
	}
	if policy != ReplanOptPerf || prof == nil || (joining && joinNode == nil) {
		return batches, false
	}
	model, _, err := prof.FitModel(nil)
	if err != nil {
		return batches, false
	}
	sub := optperf.ClusterModel{Gamma: model.Gamma, To: model.To, Tu: model.Tu}
	for _, r := range incumbents {
		if r >= len(model.Nodes) {
			return batches, false
		}
		sub.Nodes = append(sub.Nodes, model.Nodes[r])
	}
	if joining {
		sub.Nodes = append(sub.Nodes, *joinNode)
	}
	plan, err := optperf.Solve(sub, total)
	if err != nil || len(plan.Batches) != len(batches) {
		return batches, false
	}
	for _, b := range plan.Batches {
		if b < 1 {
			return batches, false
		}
	}
	return plan.Batches, true
}

// evict turns a failed step into the membership change that drops its
// victims: dead workers, or the most-suspected one. The interrupted epoch
// restarts from its beginning on the survivors.
func (d *driver) evict(fail *stepFailure, epoch int) *membershipChange {
	reason := fail.Error()
	return &membershipChange{what: "eviction after " + reason, next: func() (*incarnation, error) {
		victims := fail.victims()
		if len(victims) == 0 {
			if fail.firstErr != nil {
				return nil, fail.firstErr
			}
			return nil, errors.New("runtime: step failed with no identifiable victim")
		}
		return d.survivorIncarnation(victims, reason, epoch, d.cfg.Fault.Replan)
	}}
}

// survivorIncarnation is the commit shared by a fault eviction and a
// voluntary shrink: it checkpoints the weights of the last committed step
// (the two-phase commit guarantees no span of a failed step was applied),
// re-plans the survivor batches, records the Eviction, and builds the
// incarnation that resumes at epoch on its own recovery stream with fresh
// optimizer state — so the trajectory from here is bitwise-identical to a
// fresh run launched from the recorded checkpoint on the survivor cluster.
func (d *driver) survivorIncarnation(victims []int, reason string, epoch int, policy string) (*incarnation, error) {
	inc, res := d.inc, d.res
	evicted := make(map[int]bool, len(victims))
	for _, v := range victims {
		evicted[v] = true
	}
	var survivors []int // incarnation-relative ranks
	for r := range inc.localBatches {
		if !evicted[r] {
			survivors = append(survivors, r)
		}
	}
	if len(survivors) == 0 {
		return nil, ErrNoSurvivors
	}
	checkpoint := d.replicas[0].FlatWeights()
	batches, replanned := replan(policy, d.exec.profile(), survivors, d.localBatches, 0, nil)

	ev := Eviction{
		Epoch:           epoch,
		Step:            res.Steps,
		Reason:          reason,
		SurvivorBatches: batches,
		Checkpoint:      checkpoint,
		Replanned:       replanned,
	}
	for _, v := range victims {
		ev.Workers = append(ev.Workers, inc.origIdx[v])
	}
	for _, s := range survivors {
		ev.Survivors = append(ev.Survivors, inc.origIdx[s])
	}
	res.Evictions = append(res.Evictions, ev)

	return &incarnation{
		localBatches: batches,
		lr:           d.lr,
		src:          d.cfg.Src.Split(fmt.Sprintf("recovery-%d", len(res.Evictions))),
		initWeights:  checkpoint,
		schedule:     inc.schedule.Remap(survivors),
		epochBase:    epoch,
		origIdx:      ev.Survivors,
		pendingJoins: inc.pendingJoins,
	}, nil
}
