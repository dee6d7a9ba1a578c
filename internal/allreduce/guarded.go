package allreduce

import (
	"errors"
	"fmt"
	"time"
)

// ErrHopTimeout reports that one ring hop (a single send or receive)
// exhausted its retry budget without completing. Test with errors.Is.
var ErrHopTimeout = errors.New("allreduce: ring hop timed out")

// RetryPolicy bounds every hop of a guarded reduce: each send and receive
// must complete within a deadline that starts at HopTimeout and grows by
// Backoff per retry (capped at MaxTimeout), for at most Retries retries.
// Because sends and receives are idempotent until they succeed, "retry" is
// simply another bounded wait on the same operation — what makes the whole
// collective deadlock-free by construction: every blocked hop unblocks
// within the policy's finite total budget.
type RetryPolicy struct {
	// HopTimeout is the first attempt's deadline (default 20ms).
	HopTimeout time.Duration
	// Retries is how many additional attempts follow a timeout (default 6).
	Retries int
	// Backoff multiplies the deadline after each timeout (default 2; values
	// below 1 take the default).
	Backoff float64
	// MaxTimeout caps the grown deadline (default 1s).
	MaxTimeout time.Duration
}

// WithDefaults fills unset fields.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.HopTimeout <= 0 {
		p.HopTimeout = 20 * time.Millisecond
	}
	if p.Retries <= 0 {
		p.Retries = 6
	}
	if p.Backoff < 1 {
		p.Backoff = 2
	}
	if p.MaxTimeout <= 0 {
		p.MaxTimeout = time.Second
	}
	return p
}

// Budget is the worst-case total wait of one hop under the policy: the sum
// of every attempt's deadline. A stalled neighbor that resumes within the
// budget is tolerated; one that does not forces the hop to fail.
func (p RetryPolicy) Budget() time.Duration {
	p = p.WithDefaults()
	total := time.Duration(0)
	d := p.HopTimeout
	for a := 0; a <= p.Retries; a++ {
		total += d
		d = time.Duration(float64(d) * p.Backoff)
		if d > p.MaxTimeout {
			d = p.MaxTimeout
		}
	}
	return total
}

// RingFault is the error of a failed guarded reduce: which rank gave up,
// on which operation, and which neighbor it therefore suspects. Cause
// carries the underlying failure — ErrHopTimeout for an exhausted retry
// budget, or the transport error for a broken link (a reset socket, say) —
// and is exposed through Unwrap, so errors.Is(err, ErrHopTimeout)
// distinguishes starvation from breakage.
type RingFault struct {
	// Rank is the caller that exhausted its retry budget.
	Rank int
	// Suspect is the neighbor the failed hop depends on: the predecessor
	// for a starved receive, the successor for a blocked send.
	Suspect int
	// Op is "send" or "recv"; Hop is the 0-based hop index within the
	// reduce (reduce-scatter hops first, then all-gather hops).
	Op  string
	Hop int
	// Cause is the underlying hop failure (ErrHopTimeout when the retry
	// budget ran out).
	Cause error
}

func (f *RingFault) Error() string {
	cause := f.Cause
	if cause == nil {
		cause = ErrHopTimeout
	}
	return fmt.Sprintf("allreduce: rank %d %s hop %d failed (suspect rank %d): %v",
		f.Rank, f.Op, f.Hop, f.Suspect, cause)
}

func (f *RingFault) Unwrap() error {
	if f.Cause == nil {
		return ErrHopTimeout
	}
	return f.Cause
}

func nextDeadline(d time.Duration, p RetryPolicy) time.Duration {
	d = time.Duration(float64(d) * p.Backoff)
	if d > p.MaxTimeout {
		d = p.MaxTimeout
	}
	return d
}
