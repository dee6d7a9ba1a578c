package cannikin

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"cannikin/internal/runtime"
)

// JoinSpec schedules one worker hot-join: at the given epoch boundary the
// live cluster grows by one worker. The join is a two-phase commit — every
// incumbent replica's weights and optimizer momentum are verified bitwise
// identical and checkpointed, the joiner's compute profile is bootstrapped
// with a few timed probe passes (the paper's Eq. 8 admission), and only
// then does the grown cluster start training. Incumbents keep their
// momentum; the joiner receives the identical checkpoint, so the replicas
// never diverge.
type JoinSpec struct {
	// Epoch is the epoch boundary the worker joins at (1 ≤ Epoch < Epochs).
	// When an eviction pushes training past this epoch, the join fires at
	// the next epoch boundary instead. Joins must be listed in
	// non-decreasing epoch order.
	Epoch int
	// Batch is the joining worker's local batch size (≥ 1).
	Batch int
	// ProbeSteps is how many timed probe passes (per batch size) bootstrap
	// the joiner's compute profile (default 3).
	ProbeSteps int
	// Replan picks the grown cluster's batch policy: "keep" or "" (default
	// — incumbents keep their batches, the joiner adopts Batch) or
	// "optperf" (re-solve OptPerf over the incumbents' live profile plus
	// the joiner's probe model; falls back to keep when a model is
	// missing).
	Replan string
}

// JoinRecord reports one committed worker hot-join of an elastic run.
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
	// Checkpoint and Velocity are the flat weight vector and SGD momentum
	// the grown cluster started from. A fresh run seeded
	// with InitWeights = Checkpoint, InitVelocity = Velocity,
	// LocalBatches = Batches, and Resume = "join-<n>" (n counting joins
	// from 1) reproduces the post-join trajectory bitwise.
	Checkpoint []float64
	Velocity   []float64
	// PerSample is the joiner's Eq. 8 per-sample compute time measured by
	// the admission probe (0 when the probe could not measure).
	PerSample float64
	// Replanned reports that OptPerf re-planning produced the grown
	// batches.
	Replanned bool
	// Reason says why the join happened: "scheduled" or the autoscaler's
	// explanation.
	Reason string
}

// AutoscaleConfig enables the goodput-driven autoscaler: at each epoch
// boundary it prices candidate memberships with the goodput model
// (throughput × gradient-noise statistical efficiency, bootstrapped from
// the live profile via Eq. 8) and grows through the hot-join path while
// the marginal worker's predicted contribution exceeds GrowThreshold, or
// sheds the marginal worker through the eviction path when its
// contribution falls below ShrinkThreshold. Live backend only.
type AutoscaleConfig struct {
	// MinWorkers and MaxWorkers bound the membership (defaults 1 and the
	// current size — the autoscaler never grows unless MaxWorkers says so).
	MinWorkers, MaxWorkers int
	// GrowThreshold is the minimum relative predicted-goodput gain that
	// justifies admitting one more worker (default 0.05).
	GrowThreshold float64
	// ShrinkThreshold, when positive, sheds the marginal worker whenever
	// removing it costs less than this relative goodput fraction. Zero
	// disables shrinking.
	ShrinkThreshold float64
	// JoinBatch is an admitted worker's local batch; zero derives the mean
	// incumbent batch.
	JoinBatch int
	// BaseBatch is the reference batch B0 for the statistical-efficiency
	// term; zero uses the observed global batch (pure throughput).
	BaseBatch int
	// ProbeSteps and Replan parameterize the joins the autoscaler issues,
	// exactly like the JoinSpec fields of the same names.
	ProbeSteps int
	Replan     string
}

// replanOf maps a public replan policy name to the runtime's.
func replanOf(name string) (string, error) {
	switch name {
	case "", "keep":
		return runtime.ReplanKeep, nil
	case "optperf":
		return runtime.ReplanOptPerf, nil
	default:
		return "", fmt.Errorf("cannikin: unknown replan policy %q", name)
	}
}

// lowerJoins converts the public join schedule to the runtime's.
func lowerJoins(joins []JoinSpec) ([]runtime.Join, error) {
	if len(joins) == 0 {
		return nil, nil
	}
	out := make([]runtime.Join, len(joins))
	for i, j := range joins {
		replan, err := replanOf(j.Replan)
		if err != nil {
			return nil, err
		}
		out[i] = runtime.Join{Epoch: j.Epoch, Batch: j.Batch, ProbeSteps: j.ProbeSteps, Replan: replan}
	}
	return out, nil
}

// lowerAutoscale converts the public autoscaler config to the runtime's
// controller.
func (a *AutoscaleConfig) lower() (runtime.ElasticController, error) {
	if a == nil {
		return nil, nil
	}
	replan, err := replanOf(a.Replan)
	if err != nil {
		return nil, err
	}
	if a.MinWorkers < 0 || a.MaxWorkers < 0 || a.GrowThreshold < 0 || a.ShrinkThreshold < 0 {
		return nil, fmt.Errorf("cannikin: negative autoscale bound in %+v", *a)
	}
	return &runtime.Autoscaler{
		MinWorkers:      a.MinWorkers,
		MaxWorkers:      a.MaxWorkers,
		GrowThreshold:   a.GrowThreshold,
		ShrinkThreshold: a.ShrinkThreshold,
		JoinBatch:       a.JoinBatch,
		BaseBatch:       a.BaseBatch,
		ProbeSteps:      a.ProbeSteps,
		Replan:          replan,
	}, nil
}

// checkpointFile is the on-disk checkpoint: weights and SGD velocity as
// base64 little-endian IEEE-754 bits, so the round trip is bitwise exact by
// construction rather than by decimal-formatting care.
type checkpointFile struct {
	Dim      int    `json:"dim"`
	Weights  string `json:"weights"`
	Velocity string `json:"velocity,omitempty"`
}

// packFloats encodes a float vector as base64 little-endian float64 bits.
func packFloats(xs []float64) string {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// unpackFloats reverses packFloats.
func unpackFloats(s string) ([]float64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("length %d is not a multiple of 8", len(buf))
	}
	if len(buf) == 0 {
		return nil, nil
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// SaveCheckpoint writes weights and optimizer velocity to path in the
// checkpoint format the cannikin tools hand between process generations of
// an elastic run. The encoding round-trips every float64 bitwise.
func SaveCheckpoint(path string, weights, velocity []float64) error {
	if len(velocity) != 0 && len(velocity) != len(weights) {
		return fmt.Errorf("cannikin: checkpoint velocity dim %d, want %d", len(velocity), len(weights))
	}
	cf := checkpointFile{Dim: len(weights), Weights: packFloats(weights)}
	if len(velocity) > 0 {
		cf.Velocity = packFloats(velocity)
	}
	data, err := json.MarshalIndent(&cf, "", "  ")
	if err != nil {
		return fmt.Errorf("cannikin: encode checkpoint: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("cannikin: write checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. Velocity is
// nil when the file carries none (a post-eviction checkpoint).
func LoadCheckpoint(path string) (weights, velocity []float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("cannikin: read checkpoint: %w", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, nil, fmt.Errorf("cannikin: decode checkpoint %s: %w", path, err)
	}
	if weights, err = unpackFloats(cf.Weights); err != nil {
		return nil, nil, fmt.Errorf("cannikin: checkpoint %s weights: %w", path, err)
	}
	if len(weights) != cf.Dim {
		return nil, nil, fmt.Errorf("cannikin: checkpoint %s dim %d, want %d", path, len(weights), cf.Dim)
	}
	if cf.Velocity != "" {
		if velocity, err = unpackFloats(cf.Velocity); err != nil {
			return nil, nil, fmt.Errorf("cannikin: checkpoint %s velocity: %w", path, err)
		}
		if len(velocity) != len(weights) {
			return nil, nil, fmt.Errorf("cannikin: checkpoint %s velocity dim %d, want %d", path, len(velocity), len(weights))
		}
	}
	return weights, velocity, nil
}

// joinRecordOf converts the internal join record to the public one.
func joinRecordOf(jr runtime.JoinRecord) JoinRecord {
	return JoinRecord{
		Epoch:      jr.Epoch,
		Step:       jr.Step,
		Worker:     jr.Worker,
		Batch:      jr.Batch,
		Batches:    append([]int(nil), jr.Batches...),
		Checkpoint: jr.Checkpoint,
		Velocity:   jr.Velocity,
		PerSample:  jr.PerSample,
		Replanned:  jr.Replanned,
		Reason:     jr.Reason,
	}
}
