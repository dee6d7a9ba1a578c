package allreduce

import "fmt"

// Algorithm names one collective schedule. Every algorithm computes the
// same mathematical sum but fixes a different association order for the
// IEEE additions, so each one is bitwise-deterministic on its own terms:
// the result depends only on (algorithm, n, dim, partition), never on the
// transport, scheduling, or GOMAXPROCS. Mixing algorithms across ranks of
// one reduce is a protocol error; all ranks must pass the same Options.
type Algorithm string

const (
	// AlgoRing is the bandwidth-optimal ring reduce-scatter + all-gather:
	// 2(n-1) serialized neighbor hops of dim/n elements. The default and
	// the reference every golden test pins (the zero value "" means ring).
	AlgoRing Algorithm = "ring"
	// AlgoHD is recursive halving-doubling: ⌈log₂ n⌉ exchange rounds for
	// the reduce-scatter (vector halving, distance n/2 → 1) mirrored by a
	// doubling all-gather. Latency-optimal: 2·log₂(n) hops instead of
	// 2(n-1), the right choice for small payloads where per-hop cost
	// dominates. Non-power-of-2 rings fold the first n-2^⌊log₂n⌋ odd ranks
	// into their even neighbors in a pre/post step. Needs a PeerTransport
	// (non-neighbor links).
	AlgoHD Algorithm = "hd"
	// AlgoAuto picks hd or ring per call (per bucket, when bucketed) by
	// payload size alone — see Selector.Pick. The choice is a pure function
	// of (n, payload), never of scheduling state or a measurement, so auto
	// runs stay reproducible across backends, transports, and processes.
	AlgoAuto Algorithm = "auto"
)

// ParseAlgorithm validates a user-facing algorithm name ("" means ring).
func ParseAlgorithm(s string) (Algorithm, error) {
	switch a := Algorithm(s); a {
	case "", AlgoRing:
		return AlgoRing, nil
	case AlgoHD, AlgoAuto:
		return a, nil
	default:
		return "", fmt.Errorf("allreduce: unknown algorithm %q (want ring, hd, or auto)", s)
	}
}

// Selector resolves AlgoAuto: one size rule, no state.
type Selector struct{}

// hdSmallBytes is the payload size at or below which auto takes
// halving-doubling: such payloads are latency-bound, and hd's 2·log₂(n)
// hops beat the ring's 2(n-1). 128 KiB sits where the measured per-hop cost
// (~1-2µs on loopback/channels) stops dominating the per-byte cost.
const hdSmallBytes = 128 << 10

// Pick returns the algorithm auto runs for an n-way reduce of dim float64s:
// hd at or below hdSmallBytes, else ring.
func (Selector) Pick(n, dim int) Algorithm {
	if n < 2 || dim <= 0 || 8*dim > hdSmallBytes {
		return AlgoRing
	}
	return AlgoHD
}

// Resolve maps an algorithm option to the concrete schedule for one call:
// auto is picked per payload, the zero value means ring.
func (s Selector) Resolve(a Algorithm, n, dim int) Algorithm {
	switch a {
	case AlgoAuto:
		return s.Pick(n, dim)
	case "":
		return AlgoRing
	default:
		return a
	}
}
