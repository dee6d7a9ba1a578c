package jobs

import (
	"time"

	"cannikin/internal/simtime"
)

// Clock is the scheduler's time source: Now is the current instant, and Go
// runs a granted job and calls settle with the run's result at the instant
// the job hands its devices back. The scheduler calls Go with its lock
// held, so neither run nor settle may execute inside Go.
type Clock interface {
	Now() time.Time
	Go(run func() (*Outcome, error), settle func(*Outcome, error))
}

// wallClock is the default Clock: real time, each run on its own
// goroutine, settled the moment it returns.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Go(run func() (*Outcome, error), settle func(*Outcome, error)) {
	go func() { settle(run()) }()
}

// eventEpoch is the instant simulated time zero maps to. Any non-zero time
// serves: a JobStatus reads a zero Started as "never started".
var eventEpoch = time.Unix(0, 0).UTC()

// EventClock is simulated time on a discrete-event engine: a granted run
// executes as an event at its grant instant, and the job settles
// Outcome.TotalTime simulated seconds later (at once if the run failed).
// Runs and settlements happen, one at a time, as the engine is stepped.
type EventClock struct {
	Engine *simtime.Engine
}

// Now maps the engine's current instant onto a wall time.
func (c EventClock) Now() time.Time { return eventEpoch.Add(time.Duration(c.Engine.Now())) }

func (c EventClock) Go(run func() (*Outcome, error), settle func(*Outcome, error)) {
	c.Engine.Schedule(0, func() {
		out, err := run()
		var took simtime.Duration
		if err == nil && out != nil {
			took = simtime.FromSeconds(out.TotalTime)
		}
		c.Engine.Schedule(took, func() { settle(out, err) })
	})
}
