// Package chaos is the one perturbation vocabulary of the repo: the
// "sudden changes of resources" the paper's introduction motivates —
// clusters with dynamic resource allocation where a tenant arriving or
// leaving reshapes the performance landscape Cannikin has learned — and the
// faults a real cluster adds on top. Every perturbation kind is one Kind;
// two executors apply them:
//
//   - Event schedules perturb the *simulated* cluster at epoch boundaries:
//     compute-share changes (GPU sharing churn), per-link bandwidth shifts,
//     and transient stragglers that recover after a few epochs. An Injector
//     binds a Schedule to one cluster, applies the due events at each epoch
//     boundary and restores the pre-event state when a transient expires.
//   - Fault schedules perturb the *live* goroutine runtime at step
//     boundaries: compute stalls, delayed or dropped ring messages, and
//     worker kills. A FaultInjector compiles a FaultSchedule into pure
//     (worker, step) lookups, so a fault scenario replays exactly: the same
//     schedule against the same training config produces the same stalls,
//     timeouts and eviction decisions.
//
// Both schedule kinds are deterministic: either written explicitly or
// generated from a seeded stream, so every perturbed run is exactly
// reproducible.
package chaos

import (
	"fmt"
	"sort"

	"cannikin/internal/rng"
)

// Kind names a perturbation type.
type Kind string

// Perturbation kinds. The first three are Event kinds for the simulated
// cluster, the last four Fault kinds for the live runtime.
const (
	// KindComputeShare sets a node's compute share to Value (absolute
	// fraction in (0, 1]) — a co-located tenant arriving or leaving.
	KindComputeShare Kind = "compute-share"
	// KindBandwidth multiplies a node's ring link bandwidth by Value (> 0)
	// — congestion or a routing change on that link.
	KindBandwidth Kind = "bandwidth"
	// KindStraggler multiplies a node's current compute share by Value
	// (in (0, 1)) for Duration epochs, then restores it — a transient
	// slowdown such as thermal throttling or a noisy neighbour burst.
	KindStraggler Kind = "straggler"
	// KindStallCompute stalls the worker's compute goroutine for Delay at
	// the start of each of Steps consecutive steps — a GC pause, a
	// preempted VM, or (with a long Delay) a permanently hung process.
	KindStallCompute Kind = "stall-compute"
	// KindDelayMsg delays the worker's first ring send of the step by
	// Delay — transient network congestion on one link.
	KindDelayMsg Kind = "delay-msg"
	// KindDropMsg drops the first Count attempts of the worker's first
	// ring send of the step; each lost attempt is retransmitted after a
	// timeout — packet loss on one link.
	KindDropMsg Kind = "drop-msg"
	// KindKillWorker kills the worker at the step: it stops responding
	// permanently, as a crashed process would.
	KindKillWorker Kind = "kill-worker"
)

// Event is one scheduled perturbation of the simulated cluster.
type Event struct {
	// Epoch is when the event takes effect (before that epoch is planned).
	Epoch int
	// Node is the affected node index.
	Node int
	Kind Kind
	// Value is interpreted per Kind: the new absolute compute share
	// (KindComputeShare), the link bandwidth multiplier (KindBandwidth),
	// or the transient compute-share multiplier (KindStraggler).
	Value float64
	// Duration, when positive, reverts the event after that many epochs.
	// Stragglers default to a single epoch; other kinds default to
	// permanent.
	Duration int
}

// Validate checks the event against a cluster of the given size.
func (e Event) Validate(nodes int) error {
	if e.Epoch < 0 {
		return fmt.Errorf("chaos: event epoch %d", e.Epoch)
	}
	if e.Node < 0 || e.Node >= nodes {
		return fmt.Errorf("chaos: event node %d of %d", e.Node, nodes)
	}
	if e.Duration < 0 {
		return fmt.Errorf("chaos: event duration %d", e.Duration)
	}
	switch e.Kind {
	case KindComputeShare:
		if e.Value <= 0 || e.Value > 1 {
			return fmt.Errorf("chaos: compute share %v outside (0, 1]", e.Value)
		}
	case KindBandwidth:
		if e.Value <= 0 {
			return fmt.Errorf("chaos: bandwidth factor %v", e.Value)
		}
	case KindStraggler:
		if e.Value <= 0 || e.Value >= 1 {
			return fmt.Errorf("chaos: straggler factor %v outside (0, 1)", e.Value)
		}
	default:
		return fmt.Errorf("chaos: unknown event kind %q", e.Kind)
	}
	return nil
}

// Schedule is an epoch-ordered perturbation plan.
type Schedule struct {
	Events []Event
}

// Validate checks every event against a cluster of the given size.
func (s Schedule) Validate(nodes int) error {
	for i, e := range s.Events {
		if err := e.Validate(nodes); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// sorted returns the events ordered by epoch (stable, so same-epoch events
// keep their declaration order).
func (s Schedule) sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// Profile tunes the seeded schedule generator.
type Profile struct {
	// Intensity is the per-epoch probability of one generated event,
	// in (0, 1].
	Intensity float64
	// FirstEpoch is the first epoch eligible for events (default 4, so the
	// run establishes a steady state before the churn starts).
	FirstEpoch int
	// Horizon is the last epoch eligible for events (default 32).
	Horizon int
}

func (p Profile) defaults() Profile {
	if p.FirstEpoch <= 0 {
		p.FirstEpoch = 4
	}
	if p.Horizon <= 0 {
		p.Horizon = 32
	}
	return p
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if err := validIntensity(p.Intensity); err != nil {
		return err
	}
	p = p.defaults()
	if p.Horizon < p.FirstEpoch {
		return fmt.Errorf("chaos: horizon %d before first epoch %d", p.Horizon, p.FirstEpoch)
	}
	return nil
}

// validIntensity checks a generator's per-boundary event probability; NaN
// is outside (0, 1] too.
func validIntensity(x float64) error {
	if !(x > 0 && x <= 1) {
		return fmt.Errorf("chaos: intensity %v outside (0, 1]", x)
	}
	return nil
}

// Generate builds a deterministic schedule for a cluster of the given size
// from the profile and a seeded stream: compute-share churn, bandwidth
// shifts, and transient stragglers, mixed roughly 2:1:1. The same source
// state always yields the same schedule.
func Generate(p Profile, nodes int, src *rng.Source) (Schedule, error) {
	if err := p.Validate(); err != nil {
		return Schedule{}, err
	}
	if nodes < 1 {
		return Schedule{}, fmt.Errorf("chaos: %d nodes", nodes)
	}
	p = p.defaults()
	gs := src.Split("chaos/generate")
	var s Schedule
	for epoch := p.FirstEpoch; epoch <= p.Horizon; epoch++ {
		if gs.Float64() >= p.Intensity {
			continue
		}
		e := Event{Epoch: epoch, Node: gs.Intn(nodes)}
		switch roll := gs.Float64(); {
		case roll < 0.5:
			e.Kind = KindComputeShare
			// Mostly losses (tenant arrives), occasionally back to full.
			if gs.Float64() < 0.25 {
				e.Value = 1.0
			} else {
				e.Value = 0.25 + 0.65*gs.Float64()
			}
		case roll < 0.75:
			e.Kind = KindBandwidth
			// Between a heavy squeeze and a modest improvement.
			e.Value = 0.3 + 1.0*gs.Float64()
		default:
			e.Kind = KindStraggler
			e.Value = 0.3 + 0.3*gs.Float64()
			e.Duration = 1 + gs.Intn(3)
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}
