package allreduce

import (
	"errors"
	"sync"
	"testing"
	"time"

	"cannikin/internal/rng"
)

// fastPolicy keeps guarded-ring tests quick: worst-case hop budget ~35ms.
var fastPolicy = RetryPolicy{HopTimeout: 5 * time.Millisecond, Retries: 2, Backoff: 2, MaxTimeout: 50 * time.Millisecond}

func TestRetryPolicyDefaultsAndBudget(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.HopTimeout != 20*time.Millisecond || p.Retries != 6 || p.Backoff != 2 || p.MaxTimeout != time.Second {
		t.Fatalf("defaults = %+v", p)
	}
	// Budget sums every attempt's deadline: 5 + 10 + 20 = 35ms.
	if got := fastPolicy.Budget(); got != 35*time.Millisecond {
		t.Fatalf("Budget() = %v, want 35ms", got)
	}
	// Backoff below 1 takes the default of 2: 1 + 2 + 4 + 8 = 15ms.
	flat := RetryPolicy{HopTimeout: time.Millisecond, Retries: 3, Backoff: 0.5, MaxTimeout: time.Second}
	if got := flat.Budget(); got != 15*time.Millisecond {
		t.Fatalf("flat Budget() = %v, want 15ms", got)
	}
}

// TestGuardedReduceMatchesUnguarded pins the core determinism contract: a
// guarded reduce that completes is bitwise-identical to the unguarded one
// on the same inputs — same chunking, same summation order — including
// under injected delays and drops that stay within the retry budget.
func TestGuardedReduceMatchesUnguarded(t *testing.T) {
	src := rng.New(29)
	for _, tc := range []struct {
		name   string
		n, dim int
		opts   func(n int) []Options
	}{
		{"clean", 3, 103, func(n int) []Options {
			return make([]Options, n)
		}},
		{"delayed sender", 4, 64, func(n int) []Options {
			g := make([]Options, n)
			g[1].SendDelay = 3 * time.Millisecond
			return g
		}},
		{"dropped sends", 3, 50, func(n int) []Options {
			g := make([]Options, n)
			g[2].SendDrops = 1
			return g
		}},
		{"delay and drop together", 5, 31, func(n int) []Options {
			g := make([]Options, n)
			g[0].SendDelay = 2 * time.Millisecond
			g[3].SendDrops = 1
			return g
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := src.Split(tc.name)
			vectors := make([][]float64, tc.n)
			for i := range vectors {
				vectors[i] = make([]float64, tc.dim)
				for j := range vectors[i] {
					vectors[i][j] = s.Norm(0, 1)
				}
			}
			want := cloneAll(vectors)
			ringA, err := NewRing(tc.n, 4)
			if err != nil {
				t.Fatal(err)
			}
			runRing(t, tc.n, func(rank int) error {
				return ringA.ReduceWith(rank, want[rank], Options{})
			})

			got := cloneAll(vectors)
			ringB, err := NewRing(tc.n, 4)
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts(tc.n)
			// Drops cost the receiver extra waiting; give hops a budget that
			// comfortably covers one retransmit timeout.
			for i := range opts {
				opts[i].Guard = true
				opts[i].Policy = RetryPolicy{HopTimeout: 20 * time.Millisecond, Retries: 4, Backoff: 2, MaxTimeout: 200 * time.Millisecond}
			}
			runRing(t, tc.n, func(rank int) error {
				return ringB.ReduceWith(rank, got[rank], opts[rank])
			})

			for i := range got {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("rank %d elem %d: guarded %v != unguarded %v", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}

// TestGuardedReduceSilentRank: when one rank never joins the collective,
// every participating rank must fail within its bounded budget — no
// deadlock — with a RingFault wrapping ErrHopTimeout, and the silent
// rank's successor must name it as the suspect.
func TestGuardedReduceSilentRank(t *testing.T) {
	const n, dim, silent = 3, 30, 0
	ring, err := NewRing(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for rank := 1; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			seg := make([]float64, dim)
			errs[rank] = ring.ReduceWith(rank, seg, Options{Guard: true, Policy: fastPolicy})
		}(rank)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("guarded reduce deadlocked with a silent rank")
	}
	for rank := 1; rank < n; rank++ {
		var rf *RingFault
		if !errors.As(errs[rank], &rf) {
			t.Fatalf("rank %d error = %v, want *RingFault", rank, errs[rank])
		}
		if !errors.Is(errs[rank], ErrHopTimeout) {
			t.Fatalf("rank %d error does not wrap ErrHopTimeout", rank)
		}
		if rf.Rank != rank {
			t.Fatalf("rank %d fault blames caller %d", rank, rf.Rank)
		}
	}
	// The silent rank's direct successor starves on its first receive.
	var rf *RingFault
	errors.As(errs[(silent+1)%n], &rf)
	if rf.Op != "recv" || rf.Suspect != silent {
		t.Fatalf("successor fault = %+v, want recv suspecting rank %d", rf, silent)
	}
}

// TestGuardedReduceDropBeyondBudget: a sender that drops more attempts
// than its neighbors' budgets cover forces a fault somewhere in the ring,
// and everyone still returns.
func TestGuardedReduceDropBeyondBudget(t *testing.T) {
	const n, dim = 3, 30
	ring, err := NewRing(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := make([]Options, n)
	for i := range opts {
		opts[i].Guard = true
		opts[i].Policy = fastPolicy
	}
	opts[1].SendDrops = 100 // 100 retransmit timeouts ≫ any hop budget
	errs := make([]error, n)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			seg := make([]float64, dim)
			errs[rank] = ring.ReduceWith(rank, seg, opts[rank])
		}(rank)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("guarded reduce deadlocked under excess drops")
	}
	faults := 0
	for _, e := range errs {
		if e != nil {
			if !errors.Is(e, ErrHopTimeout) {
				t.Fatalf("unexpected error type: %v", e)
			}
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no rank reported a fault despite drops beyond every budget")
	}
}

// runRing runs fn on every rank concurrently and fails the test on error
// or on a 5s hang.
func runRing(t *testing.T, n int, fn func(rank int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(rank)
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ring collective hung")
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
