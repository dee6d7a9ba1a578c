package runtime

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cannikin/internal/goodput"
	"cannikin/internal/nn"
	"cannikin/internal/optperf"
	"cannikin/internal/perfmodel"
	"cannikin/internal/tensor"
)

// defaultProbeSteps is how many timed probe passes a joining worker runs
// per batch size when Join.ProbeSteps is zero.
const defaultProbeSteps = 3

// Join schedules one worker hot-join: at the given epoch boundary the
// cluster grows by one worker. The join is a two-phase commit on top of
// the incarnation-restart machinery: the driver first verifies every
// incumbent rank stepped from the same reduced gradient at the last
// committed step, then checkpoints the weights and optimizer velocity,
// bootstraps the joiner's compute profile with a few timed probe passes
// (Eq. 8), and only then starts the grown incarnation from that checkpoint
// — the momentum is preserved, and the joiner trains on the very same
// weights and velocity as the incumbents.
type Join struct {
	// Epoch is the epoch boundary the worker joins at (1 ≤ Epoch <
	// Epochs). When an eviction pushes the incarnation past this epoch,
	// the join fires at the next epoch boundary instead. Joins must be
	// scheduled in non-decreasing epoch order.
	Epoch int
	// Batch is the joining worker's local batch (≥ 1). Under OptPerf
	// re-planning it is the joiner's share of the new total before the
	// solve re-balances.
	Batch int
	// ProbeSteps is how many timed probe passes (per batch size) bootstrap
	// the joiner's Eq. 8 compute profile (default 3).
	ProbeSteps int
	// Replan picks the grown cluster's batch policy: "keep" or "" (default —
	// incumbents keep their batches, the joiner adopts Batch) or "optperf"
	// (re-solve OptPerf over incumbents' live profile plus the joiner's
	// probe model; falls back to keep when either model is unavailable).
	Replan string
}

// JoinRecord reports one committed worker hot-join.
type JoinRecord struct {
	// Epoch is the first epoch the grown cluster trained; Step the global
	// committed step count at the join.
	Epoch, Step int
	// Worker is the joiner's original worker index: joins number onward
	// from the run's initial worker count, stable across evictions.
	Worker int
	// Batch is the joiner's adopted local batch; Batches the grown
	// cluster's full plan.
	Batch   int
	Batches []int
	// Checkpoint and Velocity are the weight vector and SGD momentum the
	// grown cluster started from — the incumbents' state at commit time. A
	// fresh run seeded with InitWeights = Checkpoint and InitVelocity =
	// Velocity on LocalBatches = Batches, drawing from the "join-<n>" child
	// stream (n counting joins from 1), reproduces the post-join trajectory
	// bitwise.
	Checkpoint []float64
	Velocity   []float64
	// PerSample is the joiner's Eq. 8 per-sample compute time estimated by
	// the probe (0 when the probe could not measure).
	PerSample float64
	// Replanned reports that OptPerf re-planning produced the grown
	// batches (false = incumbents kept theirs, joiner adopted Batch).
	Replanned bool
	// Reason says why the join happened: "scheduled" or the autoscaler's
	// explanation.
	Reason string
}

// Elastic actions returned by an ElasticController.
const (
	ElasticHold   = "hold"
	ElasticGrow   = "grow"
	ElasticShrink = "shrink"
)

// ElasticDecision is one membership decision at an epoch boundary.
type ElasticDecision struct {
	// Action is ElasticHold, ElasticGrow, or ElasticShrink.
	Action string
	// Batch, ProbeSteps, and Replan parameterize a grow decision exactly
	// like the Join fields of the same names.
	Batch      int
	ProbeSteps int
	Replan     string
	// Victim is the incarnation-relative rank a shrink sheds; negative
	// picks the highest rank (the most recent joiner).
	Victim int
	// Reason annotates the resulting Join or Eviction record.
	Reason string
}

// ElasticController decides cluster membership at epoch boundaries. Decide
// is called after each completed epoch's evaluation (when at least one
// epoch remains) with the epoch's observations and the live profile (nil
// on the sim backend). A grow admits one worker through the hot-join path;
// a shrink sheds one through the eviction path (checkpoint, survivor
// re-plan, fresh optimizer state — the PR 5 recovery semantics).
type ElasticController interface {
	Decide(obs EpochObs, prof *Profile) ElasticDecision
}

// Autoscaler is the built-in goodput-driven ElasticController: at each epoch
// boundary it prices candidate memberships with the goodput model
// (throughput × gradient-noise statistical efficiency, bootstrapped from the
// live profile via Eq. 8) and grows through the hot-join path while the
// marginal worker's predicted contribution exceeds GrowThreshold, or sheds
// the marginal worker through the eviction path when its contribution falls
// below ShrinkThreshold. The pricing reads the live profile, so on the sim
// backend the autoscaler always holds.
type Autoscaler struct {
	// MinWorkers and MaxWorkers bound the membership (defaults 1 and the
	// current size — i.e. never grow unless MaxWorkers is set).
	MinWorkers, MaxWorkers int
	// GrowThreshold is the minimum relative predicted-goodput gain that
	// justifies admitting one more worker (default 0.05).
	GrowThreshold float64
	// ShrinkThreshold, when positive, sheds the marginal worker whenever
	// removing it would cost less than this relative goodput fraction.
	// Zero disables shrinking.
	ShrinkThreshold float64
	// JoinBatch is the admitted worker's local batch; zero derives the
	// mean incumbent batch.
	JoinBatch int
	// BaseBatch is the Eq. 2 reference batch B0 for the efficiency term;
	// zero uses the observed global batch (efficiency 1, pure throughput).
	BaseBatch int
	// ProbeSteps and Replan parameterize the joins a grow decision issues,
	// exactly like the Join fields of the same names.
	ProbeSteps int
	Replan     string
	// price overrides membership pricing: predicted goodput at the given
	// worker count (tests inject a pure function for determinism). Nil
	// uses the Eq. 8 bootstrap over the live profile.
	price func(obs EpochObs, prof *Profile, workers int) float64
}

func (a *Autoscaler) validate() error {
	if a == nil {
		return errors.New("runtime: Elastic is a nil *Autoscaler")
	}
	// !(x >= 0) catches NaN, which would read as a default or as no shrink.
	if a.MinWorkers < 0 || a.MaxWorkers < 0 || !(a.GrowThreshold >= 0) || !(a.ShrinkThreshold >= 0) ||
		math.IsInf(a.GrowThreshold, 1) || math.IsInf(a.ShrinkThreshold, 1) {
		return fmt.Errorf("runtime: autoscale bound negative or not finite (min %d, max %d, grow %v, shrink %v)",
			a.MinWorkers, a.MaxWorkers, a.GrowThreshold, a.ShrinkThreshold)
	}
	return checkReplan("autoscale", a.Replan)
}

func (a *Autoscaler) growThreshold() float64 {
	if a.GrowThreshold > 0 {
		return a.GrowThreshold
	}
	return 0.05
}

// Decide implements ElasticController.
func (a *Autoscaler) Decide(obs EpochObs, prof *Profile) ElasticDecision {
	price := a.price
	if price == nil {
		price = func(obs EpochObs, prof *Profile, workers int) float64 {
			return elasticPrice(obs, prof, workers, a.BaseBatch)
		}
	}
	cur := price(obs, prof, obs.Workers)
	if cur <= 0 {
		return ElasticDecision{Action: ElasticHold}
	}
	maxW := a.MaxWorkers
	if maxW <= 0 {
		maxW = obs.Workers
	}
	minW := a.MinWorkers
	if minW <= 0 {
		minW = 1
	}
	if obs.Workers < maxW {
		grown := price(obs, prof, obs.Workers+1)
		if gain := (grown - cur) / cur; gain >= a.growThreshold() {
			b := a.JoinBatch
			if b <= 0 {
				b = obs.GlobalBatch / obs.Workers
				if b < 1 {
					b = 1
				}
			}
			return ElasticDecision{
				Action:     ElasticGrow,
				Batch:      b,
				ProbeSteps: a.ProbeSteps,
				Replan:     a.Replan,
				Victim:     -1,
				Reason:     fmt.Sprintf("autoscale grow: predicted goodput %+.1f%% at %d workers", gain*100, obs.Workers+1),
			}
		}
	}
	if obs.Workers > minW && a.ShrinkThreshold > 0 {
		shrunk := price(obs, prof, obs.Workers-1)
		if loss := (cur - shrunk) / cur; loss < a.ShrinkThreshold {
			return ElasticDecision{
				Action: ElasticShrink,
				Victim: -1,
				Reason: fmt.Sprintf("autoscale shrink: marginal worker worth %.1f%% goodput at %d workers", loss*100, obs.Workers),
			}
		}
	}
	return ElasticDecision{Action: ElasticHold}
}

// elasticPrice predicts cluster goodput at a candidate membership size
// from the live profile: per-worker speeds come from the Eq. 8 per-sample
// bootstrap, hypothetical joiners run at the mean measured speed, a shrink
// keeps the fastest members, and the communication term scales with the
// ring hop count. Returns 0 (undecidable) without a usable profile.
func elasticPrice(obs EpochObs, prof *Profile, workers int, baseBatch int) float64 {
	if prof == nil || workers < 1 || obs.GlobalBatch < 1 {
		return 0
	}
	l := perfmodel.NewClusterLearner(prof.Workers)
	prof.Feed(l)
	taus, err := l.PerSampleTimes()
	if err != nil || len(taus) == 0 {
		return 0
	}
	speeds := make([]float64, 0, len(taus))
	mean := 0.0
	for _, t := range taus {
		if t <= 0 {
			return 0
		}
		speeds = append(speeds, 1/t)
		mean += 1 / t
	}
	mean /= float64(len(speeds))
	// Fastest members first, so pricing a shrink removes the marginal
	// (slowest) worker.
	for i := 1; i < len(speeds); i++ {
		for j := i; j > 0 && speeds[j] > speeds[j-1]; j-- {
			speeds[j], speeds[j-1] = speeds[j-1], speeds[j]
		}
	}
	sum := 0.0
	for i := 0; i < workers; i++ {
		if i < len(speeds) {
			sum += speeds[i]
		} else {
			sum += mean
		}
	}
	if sum <= 0 {
		return 0
	}
	comm := 0.0
	if model, err := l.Model(nil); err == nil && prof.Workers > 1 {
		comm = (model.To + model.Tu) * float64(workers-1) / float64(prof.Workers-1)
	}
	b := obs.GlobalBatch
	b0 := baseBatch
	if b0 <= 0 {
		b0 = b
	}
	t := float64(b)/sum + comm
	return goodput.Goodput(obs.Noise, b, b0, t)
}

// validateJoins checks a join schedule against the run shape.
func validateJoins(joins []Join, epochs, growthEpoch int) error {
	prev := 0
	for i, j := range joins {
		if j.Epoch < 1 || j.Epoch >= epochs {
			return fmt.Errorf("runtime: join %d epoch %d outside [1, %d)", i, j.Epoch, epochs)
		}
		if j.Epoch < prev {
			return fmt.Errorf("runtime: join %d epoch %d before join %d", i, j.Epoch, i-1)
		}
		if j.Batch < 1 {
			return fmt.Errorf("runtime: join %d batch %d", i, j.Batch)
		}
		if j.ProbeSteps < 0 {
			return fmt.Errorf("runtime: join %d probe steps %d", i, j.ProbeSteps)
		}
		if err := checkReplan(fmt.Sprintf("join %d", i), j.Replan); err != nil {
			return err
		}
		if growthEpoch > 0 && j.Epoch == growthEpoch {
			return fmt.Errorf("runtime: join %d epoch %d collides with the growth epoch", i, j.Epoch)
		}
		prev = j.Epoch
	}
	return nil
}

// probeJoin bootstraps the joining worker's compute profile the way the
// paper admits an unprofiled node (Eq. 8): a few timed forward/backward
// passes on a throwaway replica, at two batch sizes so the linear model
// a(b)+P(b) is fittable. The replica comes from its own split stream and
// the probe batch reads the dataset head directly, so the probe never
// advances the training run's randomness or data order — determinism of
// the committed trajectory survives any probe timing.
func probeJoin(cfg *Config, j Join, seq int) (perSample float64, node *optperf.NodeModel) {
	steps := j.ProbeSteps
	if steps <= 0 {
		steps = defaultProbeSteps
	}
	net := nn.NewMLP(cfg.Sizes, cfg.Src.Split(fmt.Sprintf("probe-%d", seq)))
	b1 := j.Batch
	if n := cfg.Dataset.Len(); b1 > n {
		b1 = n
	}
	if b1 < 1 {
		b1 = 1
	}
	b2 := b1 / 2
	if b2 < 1 {
		b2 = b1 + 1
		if b2 > cfg.Dataset.Len() {
			b2 = b1
		}
	}
	learner := &perfmodel.NodeLearner{}
	var dlogits *tensor.T
	for s := 0; s < steps; s++ {
		for _, b := range []int{b1, b2} {
			x, labels := cfg.Dataset.Batch(identity(b))
			start := time.Now()
			net.ZeroGrad()
			logits := net.Forward(x)
			forward := time.Since(start).Seconds()
			start = time.Now()
			dlogits = tensor.Reuse(dlogits, logits.Rows(), logits.Cols())
			nn.SoftmaxCrossEntropyInto(dlogits, logits, labels)
			net.Backward(dlogits)
			backward := time.Since(start).Seconds()
			// Sub-nanosecond phases round to zero on coarse clocks; clamp so
			// the observation still counts.
			if forward <= 0 {
				forward = 1e-9
			}
			if backward <= 0 {
				backward = 1e-9
			}
			learner.Observe(b, forward, backward)
		}
	}
	perSample, err := learner.PerSampleTime()
	if err != nil {
		perSample = 0
	}
	if m, err := learner.Fit(); err == nil {
		node = &m
	}
	return perSample, node
}

// checkpointState is the two-phase commit's prepare: it returns the weights
// and the optimizer velocity of the last committed step as an owned
// checkpoint. On the sim backend it first verifies every replica reduced
// the same last gradient; a divergence aborts the membership change before
// anything is mutated.
func (d *driver) checkpointState() (weights, velocity []float64, err error) {
	weights, err = d.exec.finalWeights()
	if err != nil {
		return nil, nil, err
	}
	return weights, d.sgd.FlatVelocity(d.replicas[0].Params()), nil
}

// grow is the membership change that commits one worker hot-join; the
// grown incarnation starts at startEpoch. The join is recorded in
// res.Joins; the incarnation's source is the join's own split stream, so a
// fresh run launched from the recorded checkpoint (weights + velocity) on
// the grown cluster reproduces the post-join trajectory bitwise.
func (d *driver) grow(j Join, reason string, startEpoch int, remaining []Join) *membershipChange {
	return &membershipChange{what: "join (" + reason + ")", next: func() (*incarnation, error) {
		cfg, inc, res := d.cfg, d.inc, d.res
		if j.Batch < 1 {
			j.Batch = 1
		}
		checkpoint, velocity, err := d.checkpointState()
		if err != nil {
			return nil, err
		}
		seq := len(res.Joins) + 1
		perSample, joinNode := probeJoin(cfg, j, seq)
		batches, replanned := replan(j.Replan, d.exec.profile(), identity(len(d.localBatches)), d.localBatches, j.Batch, joinNode)
		joinerOrig := len(cfg.LocalBatches) + len(res.Joins)
		res.Joins = append(res.Joins, JoinRecord{
			Epoch:      startEpoch,
			Step:       res.Steps,
			Worker:     joinerOrig,
			Batch:      batches[len(batches)-1],
			Batches:    append([]int(nil), batches...),
			Checkpoint: checkpoint,
			Velocity:   velocity,
			PerSample:  perSample,
			Replanned:  replanned,
			Reason:     reason,
		})
		return &incarnation{
			localBatches: batches,
			lr:           d.lr,
			src:          cfg.Src.Split(fmt.Sprintf("join-%d", seq)),
			initWeights:  checkpoint,
			initVelocity: velocity,
			schedule:     inc.schedule,
			epochBase:    startEpoch,
			origIdx:      append(append([]int(nil), inc.origIdx...), joinerOrig),
			pendingJoins: remaining,
		}, nil
	}}
}

// shrink is the membership change that sheds one worker voluntarily at an
// epoch boundary through the eviction commit (survivors keep their
// batches). A victim outside the cluster picks the highest rank.
func (d *driver) shrink(victim int, reason string, startEpoch int) *membershipChange {
	return &membershipChange{what: "shrink (" + reason + ")", next: func() (*incarnation, error) {
		if n := len(d.inc.localBatches); victim < 0 || victim >= n {
			victim = n - 1
		}
		return d.survivorIncarnation([]int{victim}, reason, startEpoch, ReplanKeep)
	}}
}
