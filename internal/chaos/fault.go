package chaos

import (
	"fmt"
	"sort"
	"time"

	"cannikin/internal/rng"
)

// maxStallSteps bounds a single stall event's expansion so a schedule
// cannot precompute an unbounded per-step table.
const maxStallSteps = 1 << 16

// Fault is one scheduled fault against the live runtime.
type Fault struct {
	// Step is the global training step at which the fault fires.
	Step int
	// Worker is the affected rank.
	Worker int
	Kind   Kind
	// Delay is the stall or message delay (KindStallCompute, KindDelayMsg).
	Delay time.Duration
	// Steps is how many consecutive steps a stall lasts (KindStallCompute
	// only; default 1).
	Steps int
	// Count is how many send attempts are dropped (KindDropMsg only;
	// default 1).
	Count int
}

// Validate checks the fault against a cluster of the given worker count.
func (e Fault) Validate(workers int) error {
	if e.Step < 0 {
		return fmt.Errorf("chaos: fault step %d", e.Step)
	}
	if e.Worker < 0 || e.Worker >= workers {
		return fmt.Errorf("chaos: fault worker %d of %d", e.Worker, workers)
	}
	switch e.Kind {
	case KindStallCompute:
		if e.Delay <= 0 {
			return fmt.Errorf("chaos: stall delay %v", e.Delay)
		}
		if e.Steps < 0 || e.Steps > maxStallSteps {
			return fmt.Errorf("chaos: stall over %d steps", e.Steps)
		}
	case KindDelayMsg:
		if e.Delay <= 0 {
			return fmt.Errorf("chaos: message delay %v", e.Delay)
		}
	case KindDropMsg:
		if e.Count < 0 {
			return fmt.Errorf("chaos: drop count %d", e.Count)
		}
	case KindKillWorker:
	default:
		return fmt.Errorf("chaos: unknown fault kind %q", e.Kind)
	}
	return nil
}

// String renders the fault for traces and logs.
func (e Fault) String() string {
	switch e.Kind {
	case KindStallCompute:
		steps := e.Steps
		if steps < 1 {
			steps = 1
		}
		return fmt.Sprintf("worker %d %s %v x%d steps @ step %d", e.Worker, e.Kind, e.Delay, steps, e.Step)
	case KindDelayMsg:
		return fmt.Sprintf("worker %d %s %v @ step %d", e.Worker, e.Kind, e.Delay, e.Step)
	case KindDropMsg:
		count := e.Count
		if count < 1 {
			count = 1
		}
		return fmt.Sprintf("worker %d %s x%d @ step %d", e.Worker, e.Kind, count, e.Step)
	default:
		return fmt.Sprintf("worker %d %s @ step %d", e.Worker, e.Kind, e.Step)
	}
}

// FaultSchedule is a step-ordered fault plan.
type FaultSchedule struct {
	Events []Fault
}

// Validate checks every event against a cluster of the given worker count.
func (s FaultSchedule) Validate(workers int) error {
	for i, e := range s.Events {
		if err := e.Validate(workers); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// sorted returns the events ordered by step (stable, so same-step events
// keep their declaration order).
func (s FaultSchedule) sorted() []Fault {
	out := append([]Fault(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// Remap rewrites the schedule for a cluster of the listed old worker
// indices, in their new rank order: the survivors after an eviction, or
// the identity over an incarnation's ranks. Events targeting unlisted
// workers are dropped; the rest are renumbered.
func (s FaultSchedule) Remap(survivors []int) FaultSchedule {
	newRank := make(map[int]int, len(survivors))
	for rank, old := range survivors {
		newRank[old] = rank
	}
	var out FaultSchedule
	for _, e := range s.Events {
		if rank, ok := newRank[e.Worker]; ok {
			e.Worker = rank
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// FaultProfile tunes the seeded fault schedule generator.
type FaultProfile struct {
	// Intensity is the per-step probability of one generated event,
	// in (0, 1].
	Intensity float64
	// FirstStep is the first step eligible for faults (default 1).
	FirstStep int
	// Horizon is the last step eligible for faults (default 32).
	Horizon int
	// Kill permits generated kill-worker events; without it only transient
	// faults (stalls, delays, drops) are generated.
	Kill bool
	// MaxDelay caps generated stall and message delays (default 10ms —
	// sized so retry budgets in tests comfortably cover them).
	MaxDelay time.Duration
}

func (p FaultProfile) defaults() FaultProfile {
	if p.FirstStep <= 0 {
		p.FirstStep = 1
	}
	if p.Horizon <= 0 {
		p.Horizon = 32
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 10 * time.Millisecond
	}
	return p
}

// Validate checks the profile.
func (p FaultProfile) Validate() error {
	if err := validIntensity(p.Intensity); err != nil {
		return err
	}
	p = p.defaults()
	if p.Horizon < p.FirstStep {
		return fmt.Errorf("chaos: horizon %d before first step %d", p.Horizon, p.FirstStep)
	}
	return nil
}

// GenerateFaults builds a deterministic fault schedule for a cluster of the
// given worker count from the profile and a seeded stream. The same source
// state always yields the same schedule. At most one kill is generated per
// schedule, never against worker 0's lone survivor: a generated schedule
// always leaves at least one worker alive.
func GenerateFaults(p FaultProfile, workers int, src *rng.Source) (FaultSchedule, error) {
	if err := p.Validate(); err != nil {
		return FaultSchedule{}, err
	}
	if workers < 1 {
		return FaultSchedule{}, fmt.Errorf("chaos: %d workers", workers)
	}
	p = p.defaults()
	// The split label names the stream every generated fault schedule is
	// drawn from: renaming it would change all of them.
	gs := src.Split("faultinject/generate")
	var s FaultSchedule
	killed := false
	for step := p.FirstStep; step <= p.Horizon; step++ {
		if gs.Float64() >= p.Intensity {
			continue
		}
		e := Fault{Step: step, Worker: gs.Intn(workers)}
		delay := time.Duration(1+gs.Intn(int(p.MaxDelay/time.Millisecond))) * time.Millisecond
		switch roll := gs.Float64(); {
		case roll < 0.4:
			e.Kind = KindStallCompute
			e.Delay = delay
			e.Steps = 1 + gs.Intn(3)
		case roll < 0.7:
			e.Kind = KindDelayMsg
			e.Delay = delay
		case roll < 0.9 || !p.Kill || killed || workers < 2:
			e.Kind = KindDropMsg
			e.Count = 1 + gs.Intn(2)
		default:
			e.Kind = KindKillWorker
			killed = true
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}
