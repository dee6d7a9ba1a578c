// Package simtime provides the virtual clock and discrete-event engine that
// drives the cluster simulator. All batch-step and epoch timings in the
// reproduction are simulated durations, so experiments that take hours on a
// 16-GPU testbed replay in milliseconds, deterministically.
package simtime

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Duration is a span of simulated time. It reuses time.Duration semantics
// (nanosecond resolution) but is a distinct type so simulated and wall-clock
// durations cannot be mixed accidentally.
type Duration time.Duration

// Second is one simulated second.
const Second = Duration(time.Second)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return time.Duration(d).Seconds() }

// String formats the duration like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// FromSeconds converts seconds to a Duration, saturating at the
// representable range (about ±292 years); NaN converts to 0.
func FromSeconds(s float64) Duration {
	ns := s * float64(time.Second)
	switch {
	case ns >= math.MaxInt64: // 2⁶³ as a float64
		return math.MaxInt64
	case ns <= math.MinInt64:
		return math.MinInt64
	case math.IsNaN(ns):
		return 0
	}
	return Duration(ns)
}

// Time is an instant on the simulated timeline, measured from the start of
// the simulation.
type Time Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as seconds since simulation start.
func (t Time) Seconds() float64 { return Duration(t).Seconds() }

// String formats the instant as an offset duration.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for equal timestamps
	call func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; the simulation is single-threaded by design so event order
// is fully deterministic.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule enqueues fn to run after delay. Negative delays are treated as
// zero (run at the current instant, after already-queued events at that
// instant).
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now.Add(delay), fn)
}

// ScheduleAt enqueues fn to run at instant at. Instants in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if fn == nil {
		panic("simtime: ScheduleAt with nil callback")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, call: fn})
}

// Step runs the next pending event, advancing the clock to its timestamp.
// It reports whether an event ran.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	ev.call()
	return true
}

// Run executes events until the queue empties and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// Advance moves the clock forward by d without running events. It panics if
// an event would be skipped, which would indicate a simulation bug.
func (e *Engine) Advance(d Duration) {
	if d < 0 {
		panic("simtime: Advance with negative duration")
	}
	target := e.now.Add(d)
	if len(e.queue) > 0 && e.queue[0].at < target {
		panic(fmt.Sprintf("simtime: Advance(%v) would skip event at %v", d, e.queue[0].at))
	}
	e.now = target
}
