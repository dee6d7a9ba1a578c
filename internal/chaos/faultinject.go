package chaos

import (
	"fmt"
	"math"
	"time"
)

// StepFaults is everything the injector asks one worker to suffer at one
// step. The zero value means "run cleanly".
type StepFaults struct {
	// Stall is how long the compute goroutine sleeps at step start.
	Stall time.Duration
	// SendDelay delays the worker's first ring send of the step.
	SendDelay time.Duration
	// SendDrops drops that many attempts of the worker's first ring send;
	// each lost attempt costs the sender one retransmit timeout.
	SendDrops int
	// Kill marks the worker permanently dead from this step on: it stops
	// responding, as a crashed process would.
	Kill bool
}

// Any reports whether the step carries any fault.
func (f StepFaults) Any() bool {
	return f.Stall > 0 || f.SendDelay > 0 || f.SendDrops > 0 || f.Kill
}

// FaultInjector is a compiled fault schedule: pure, allocation-free
// (worker, step) lookups that are safe to call concurrently from every
// worker's compute and comm goroutines. All state is written at
// construction and only read afterwards.
type FaultInjector struct {
	workers  int
	byStep   map[int64]StepFaults
	killStep []int
}

// neverKilled marks a worker with no kill event.
const neverKilled = math.MaxInt

// NewFaultInjector validates the schedule against a cluster of the given
// worker count and compiles it for lookup.
func NewFaultInjector(s FaultSchedule, workers int) (*FaultInjector, error) {
	if workers < 1 {
		return nil, fmt.Errorf("chaos: %d workers", workers)
	}
	if err := s.Validate(workers); err != nil {
		return nil, err
	}
	in := &FaultInjector{
		workers:  workers,
		byStep:   make(map[int64]StepFaults),
		killStep: make([]int, workers),
	}
	for i := range in.killStep {
		in.killStep[i] = neverKilled
	}
	// Later events accumulate onto earlier ones at the same (worker, step):
	// a stall and a drop can coexist, repeated delays add up.
	for _, e := range s.sorted() {
		switch e.Kind {
		case KindStallCompute:
			steps := e.Steps
			if steps < 1 {
				steps = 1
			}
			for k := 0; k < steps; k++ {
				key := in.key(e.Worker, e.Step+k)
				f := in.byStep[key]
				f.Stall += e.Delay
				in.byStep[key] = f
			}
		case KindDelayMsg:
			key := in.key(e.Worker, e.Step)
			f := in.byStep[key]
			f.SendDelay += e.Delay
			in.byStep[key] = f
		case KindDropMsg:
			count := e.Count
			if count < 1 {
				count = 1
			}
			key := in.key(e.Worker, e.Step)
			f := in.byStep[key]
			f.SendDrops += count
			in.byStep[key] = f
		case KindKillWorker:
			if e.Step < in.killStep[e.Worker] {
				in.killStep[e.Worker] = e.Step
			}
		}
	}
	return in, nil
}

func (in *FaultInjector) key(worker, step int) int64 {
	return int64(worker)<<40 | int64(step)
}

// Workers returns the cluster size the injector was compiled for.
func (in *FaultInjector) Workers() int { return in.workers }

// At returns the faults the worker must suffer at the step. Kill is sticky:
// once a worker's kill step has passed, every later step reports Kill.
func (in *FaultInjector) At(worker, step int) StepFaults {
	f := in.byStep[in.key(worker, step)]
	if step >= in.killStep[worker] {
		f.Kill = true
	}
	return f
}
