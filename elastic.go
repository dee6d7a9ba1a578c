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

// JoinSpec schedules one worker hot-join (MLPConfig.Joins): at the given
// epoch boundary the live cluster grows by one worker through a two-phase
// commit — the incumbents' weights and optimizer momentum are checkpointed,
// the joiner's compute profile is bootstrapped with timed probe passes (the
// paper's Eq. 8 admission), and the grown cluster starts from that
// checkpoint. Fields: Epoch, Batch, ProbeSteps, Replan ("keep" or
// "optperf").
type JoinSpec = runtime.Join

// JoinRecord reports one committed worker hot-join of an elastic run
// (MLPResult.Joins). Its Checkpoint, Velocity and Batches, with Resume =
// "join-<n>", are a complete recipe for reproducing the post-join
// trajectory bitwise.
type JoinRecord = runtime.JoinRecord

// AutoscaleConfig enables the goodput-driven autoscaler
// (MLPConfig.Autoscale), which grows the cluster through the hot-join path
// and shrinks it through the eviction path at epoch boundaries. Live
// backend only.
type AutoscaleConfig = runtime.Autoscaler

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
