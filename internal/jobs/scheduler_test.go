package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cannikin/internal/runspec"
)

// fakeRunner is a controllable Runner: it reports epochs epochs (with the
// configured noise), sleeping delay between them, and honors ctx.
type fakeRunner struct {
	epochs int
	delay  time.Duration
	noise  float64
	// fail makes every run return this error after its epochs.
	fail error
	// gate, when non-nil, blocks each run until the gate closes (or ctx).
	gate chan struct{}

	started atomic.Int32
	active  atomic.Int32
	peak    atomic.Int32
}

func (f *fakeRunner) Run(ctx context.Context, spec *runspec.Spec, _ []int, onEpoch func(Epoch) error) (*Outcome, error) {
	f.started.Add(1)
	n := f.active.Add(1)
	for {
		p := f.peak.Load()
		if n <= p || f.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer f.active.Add(-1)
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, fmt.Errorf("fake: %w", ctx.Err())
		}
	}
	for e := 0; e < f.epochs; e++ {
		if f.delay > 0 {
			select {
			case <-time.After(f.delay):
			case <-ctx.Done():
				return nil, fmt.Errorf("fake: %w", ctx.Err())
			}
		} else if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fake: %w", err)
		}
		if err := onEpoch(Epoch{Epoch: e, Batch: 32, Noise: f.noise, Metric: float64(e)}); err != nil {
			return nil, err
		}
	}
	if f.fail != nil {
		return nil, f.fail
	}
	return &Outcome{Epochs: f.epochs, FinalMetric: float64(f.epochs - 1)}, nil
}

func mlpSpec(workers int) *runspec.Spec {
	s := runspec.Default()
	s.MLP = true
	s.MLPBatches = make([]int, workers)
	for i := range s.MLPBatches {
		s.MLPBatches[i] = 8
	}
	return s
}

func newScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitTerminal polls until the job settles or the deadline passes.
func waitTerminal(t *testing.T, s *Scheduler, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return nil
}

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := gort.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := gort.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", gort.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 4, Seed: 1},
		Runner: &fakeRunner{epochs: 3, noise: 40},
	})
	id, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	if st.Outcome == nil || st.Outcome.Epochs != 3 {
		t.Fatalf("outcome = %+v", st.Outcome)
	}
	if len(st.Epochs) != 3 || st.EpochsDone != 3 {
		t.Fatalf("epoch trace = %d entries, done = %d", len(st.Epochs), st.EpochsDone)
	}
	if len(st.Devices) != 2 {
		t.Fatalf("devices = %v, want 2 held", st.Devices)
	}
	if st.Noise <= 0 {
		t.Fatalf("noise estimate never fed back: %v", st.Noise)
	}
	if st.AdmissionLatency < 0 {
		t.Fatalf("admission latency = %v", st.AdmissionLatency)
	}
	stats := s.Stats()
	if stats.Done != 1 || stats.Busy != 0 || stats.PoolNoise <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestSpecEchoedFieldIdentical: the Status snapshot echoes the submitted
// spec without mutation — the server round-trip depends on it.
func TestSpecEchoedFieldIdentical(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 4, Seed: 1},
		Runner: &fakeRunner{epochs: 1},
	})
	spec := mlpSpec(2)
	spec.Seed = 99
	spec.Faults = []runspec.Fault{{Kind: "stall", Worker: 0, Step: 3, Delay: 40 * time.Millisecond}}
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	if st.Spec.Seed != 99 || len(st.Spec.Faults) != 1 || st.Spec.Faults[0].Delay != 40*time.Millisecond {
		t.Fatalf("spec not echoed: %+v", st.Spec)
	}
	// The scheduler holds a copy: mutating the caller's spec after Submit
	// must not leak in.
	spec.Seed = 1
	if st2, _ := s.Status(id); st2.Spec.Seed != 99 {
		t.Fatal("scheduler aliases the caller's spec")
	}
}

func TestBadSpecRejected(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 2, Seed: 1},
		Runner: &fakeRunner{epochs: 1},
	})
	if _, err := s.Submit(nil); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil spec: err = %v", err)
	}
	// Wider than the whole pool.
	if _, err := s.Submit(mlpSpec(3)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("oversized spec: err = %v", err)
	}
	bad := runspec.Default()
	bad.Cluster = "z"
	if _, err := s.Submit(bad); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown preset: err = %v", err)
	}
	if st := s.Stats(); st.Rejected != 3 || st.Submitted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestElasticAdmission: the run decides when it grows, so the pool accounts
// for an elastic MLP job at the widest membership the run can reach — it is
// granted that many devices for its whole life, and a ceiling wider than the
// pool is rejected at the door. The "both" rows pin the ceiling's shape: a
// scheduled join commits whether or not the autoscaler already grew the run
// to autoscale_max, so the two add.
func TestElasticAdmission(t *testing.T) {
	joins := []runspec.JoinEntry{{Epoch: 1, Batch: 4}, {Epoch: 2, Batch: 4}}
	cases := []struct {
		name         string
		joins        []runspec.JoinEntry
		autoscaleMax int
		ceiling      int
	}{
		{"no elasticity", nil, 0, 2},
		{"joins", joins, 0, 4},
		{"autoscale_max", nil, 4, 4},
		{"autoscale_max below the start", nil, 1, 2},
		{"both", joins[:1], 3, 4},
	}
	for _, tc := range cases {
		spec := mlpSpec(2)
		spec.Backend = "live"
		spec.Joins, spec.AutoscaleMax = tc.joins, tc.autoscaleMax
		t.Run(tc.name+"/fits", func(t *testing.T) {
			gate := make(chan struct{})
			s := newScheduler(t, Config{
				Pool:   PoolConfig{Devices: tc.ceiling, Seed: 1},
				Runner: &fakeRunner{epochs: 1, gate: gate},
			})
			id, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateRunning || st.Workers != tc.ceiling || len(st.Devices) != tc.ceiling {
				t.Fatalf("running status = %+v, want %d workers on %d devices", st, tc.ceiling, tc.ceiling)
			}
			if busy := s.Stats().Busy; busy != tc.ceiling {
				t.Fatalf("busy = %d while running, want the ceiling %d", busy, tc.ceiling)
			}
			close(gate)
			if st := waitTerminal(t, s, id); st.State != StateDone || st.Workers != tc.ceiling {
				t.Fatalf("settled status = %+v", st)
			}
			if busy := s.Stats().Busy; busy != 0 {
				t.Fatalf("busy = %d after the job settled", busy)
			}
		})
		t.Run(tc.name+"/too wide", func(t *testing.T) {
			r := &fakeRunner{epochs: 1}
			s := newScheduler(t, Config{Pool: PoolConfig{Devices: tc.ceiling - 1, Seed: 1}, Runner: r})
			if _, err := s.Submit(spec); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ceiling %d on a %d-device pool: err = %v, want ErrBadSpec", tc.ceiling, tc.ceiling-1, err)
			}
			if st := s.Stats(); st.Rejected != 1 || st.Submitted != 0 || r.started.Load() != 0 {
				t.Fatalf("stats = %+v, runs started = %d", st, r.started.Load())
			}
		})
	}
}

// TestQueueBackpressure: once MaxQueue jobs wait, Submit rejects with a
// *QueueFullError carrying the retry hint.
func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	r := &fakeRunner{epochs: 1, gate: gate}
	s := newScheduler(t, Config{
		Pool:       PoolConfig{Devices: 2, Seed: 1},
		Runner:     r,
		MaxQueue:   3,
		RetryAfter: 250 * time.Millisecond,
	})
	// One job holds the whole pool; the next three fill the queue.
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(mlpSpec(2)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(mlpSpec(2))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Depth != 3 || qf.RetryAfter != 250*time.Millisecond {
		t.Fatalf("queue-full detail = %+v", qf)
	}
	if st := s.Stats(); st.Queued != 3 || st.MaxQueueDepth != 3 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
	close(gate)
	for _, j := range s.List() {
		waitTerminal(t, s, j.ID)
	}
	if st := s.Stats(); st.Done != 4 || st.Queued != 0 {
		t.Fatalf("after drain of queue: %+v", st)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 2, Seed: 1},
		Runner: &fakeRunner{epochs: 1, gate: gate},
	})
	running, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(queued); st.State != StateQueued || st.QueuePos != 0 {
		t.Fatalf("second job = %+v", st)
	}
	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(queued); st.State != StateCanceled {
		t.Fatalf("canceled queued job = %s", st.State)
	}
	if err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, running)
	if st.State != StateCanceled {
		t.Fatalf("canceled running job = %s (err %q)", st.State, st.Error)
	}
	// Idempotent on terminal jobs; ErrNotFound on unknowns.
	if err := s.Cancel(running); err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
	if st := s.Stats(); st.Canceled != 2 || st.Busy != 0 {
		t.Fatalf("stats = %+v", st)
	}
	close(gate)
}

func TestRunnerFailureSettlesFailed(t *testing.T) {
	boom := errors.New("boom")
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 2, Seed: 1},
		Runner: &fakeRunner{epochs: 2, fail: boom},
	})
	id, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	if st.State != StateFailed || st.Error != "boom" {
		t.Fatalf("status = %+v", st)
	}
	// The failure freed the devices for the next tenant.
	next, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, next)
}

// TestReplanOnFinish: a queued job starts as soon as a finishing job frees
// its devices — the event-driven re-planning path.
func TestReplanOnFinish(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 2, Seed: 1},
		Runner: &fakeRunner{epochs: 2, delay: 5 * time.Millisecond},
	})
	first, _ := s.Submit(mlpSpec(2))
	second, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(second); st.State != StateQueued {
		t.Fatalf("second job should queue behind a full pool, got %s", st.State)
	}
	if waitTerminal(t, s, first).State != StateDone {
		t.Fatal("first job failed")
	}
	if waitTerminal(t, s, second).State != StateDone {
		t.Fatal("second job failed")
	}
	if st := s.Stats(); st.PlanEvents < 3 {
		t.Fatalf("plan events = %d, want at least submit+submit+finish", st.PlanEvents)
	}
}

func TestWatchStreamsAndReplays(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 2, Seed: 1},
		Runner: &fakeRunner{epochs: 3, delay: 2 * time.Millisecond},
	})
	id, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []int
	var final State
	for ev := range ch {
		switch ev.Type {
		case "epoch":
			epochs = append(epochs, ev.Epoch.Epoch)
		case "state":
			final = ev.State
		}
	}
	if final != StateDone {
		t.Fatalf("final state = %s", final)
	}
	if len(epochs) != 3 {
		t.Fatalf("streamed %d epochs, want 3: %v", len(epochs), epochs)
	}
	for i, e := range epochs {
		if e != i {
			t.Fatalf("epochs out of order: %v", epochs)
		}
	}
	// Watching a settled job replays the trace then closes.
	ch2, err := s.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ev := range ch2 {
		if ev.Type == "epoch" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("replay streamed %d epochs, want 3", n)
	}
	if _, err := s.Watch("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown watch: %v", err)
	}
}

func TestDrainGraceful(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 2, Seed: 1},
		Runner: &fakeRunner{epochs: 3, delay: 3 * time.Millisecond},
	})
	running, _ := s.Submit(mlpSpec(2))
	queued, _ := s.Submit(mlpSpec(2))
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(running); st.State != StateDone {
		t.Fatalf("running job under graceful drain = %s (err %q)", st.State, st.Error)
	}
	if st, _ := s.Status(queued); st.State != StateCanceled {
		t.Fatalf("queued job under drain = %s", st.State)
	}
	if _, err := s.Submit(mlpSpec(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v", err)
	}
	if !s.Stats().Draining {
		t.Fatal("stats do not report draining")
	}
}

func TestDrainDeadlineCancelsSurvivors(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 2, Seed: 1},
		Runner: &fakeRunner{epochs: 1, gate: gate},
	})
	id, _ := s.Submit(mlpSpec(2))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v", err)
	}
	if st, _ := s.Status(id); st.State != StateCanceled {
		t.Fatalf("survivor after deadline = %s", st.State)
	}
}

// TestManyConcurrentJobs is the scale test: 120 jobs over a 12-device
// pool through a 4-deep queue, every rejected submission retried after the
// RetryAfter hint, no deadlock, no leaked goroutines, every job settles,
// devices all return, and the goodput allocator's accumulated grants price
// at least what the equal-split baseline would have managed at the same
// decision points.
func TestManyConcurrentJobs(t *testing.T) {
	baseline := gort.NumGoroutine()
	r := &fakeRunner{epochs: 2, noise: 80, delay: time.Millisecond}
	const maxQueue = 4
	s := newScheduler(t, Config{
		Pool:       PoolConfig{Devices: 12, Seed: 3, Jitter: 0.05},
		Runner:     r,
		MaxQueue:   maxQueue,
		RetryAfter: 2 * time.Millisecond,
	})
	const jobs = 120
	ids := make([]string, 0, jobs)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var retries atomic.Int32
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				id, err := s.Submit(mlpSpec(1 + i%4))
				var qf *QueueFullError
				switch {
				case err == nil:
					mu.Lock()
					ids = append(ids, id)
					mu.Unlock()
					return
				case !errors.As(err, &qf):
					t.Errorf("submit %d: %v", i, err)
					return
				case time.Now().After(deadline):
					t.Errorf("submit %d still rejected at the deadline", i)
					return
				}
				retries.Add(1)
				time.Sleep(qf.RetryAfter)
			}
		}(i)
	}
	wg.Wait()
	if len(ids) != jobs {
		t.Fatalf("%d of %d jobs admitted", len(ids), jobs)
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s = %s (err %q)", id, st.State, st.Error)
		}
	}
	st := s.Stats()
	if st.Done != jobs || st.Busy != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxQueueDepth > maxQueue || st.Rejected == 0 || st.Rejected != int(retries.Load()) {
		t.Fatalf("backpressure: queue high-water %d (cap %d), %d rejected, %d retries",
			st.MaxQueueDepth, maxQueue, st.Rejected, retries.Load())
	}
	if int(r.started.Load()) != jobs {
		t.Fatalf("runner ran %d jobs, want %d", r.started.Load(), jobs)
	}
	if r.peak.Load() < 2 {
		t.Fatalf("peak concurrency %d — jobs never overlapped", r.peak.Load())
	}
	if st.GoodputGranted < st.GoodputEqualSplit {
		t.Fatalf("allocator lost to equal-split: %.4f < %.4f",
			st.GoodputGranted, st.GoodputEqualSplit)
	}
	if st.GoodputGranted <= 0 {
		t.Fatal("no goodput accounted")
	}
	waitGoroutines(t, baseline)
}

// TestHomogeneousPolicyAdmission: under the homogeneous policy a job wider
// than the pool's largest model group can never be placed, so admission
// rejects it instead of letting it block the FIFO queue for good; a job
// that fits is granted the fastest model's devices.
func TestHomogeneousPolicyAdmission(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 8, Seed: 1}, // the default mix, two of each model
		Runner: &fakeRunner{epochs: 1},
		Policy: PolicyHomogeneous,
	})
	if _, err := s.Submit(mlpSpec(3)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("3 workers on two devices per model: err = %v, want ErrBadSpec", err)
	}
	id, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id); st.State != StateDone || fmt.Sprint(st.Devices) != "[3 7]" {
		t.Fatalf("job = %s on devices %v, want done on the A100s [3 7]", st.State, st.Devices)
	}
}

// TestNaNGNSAlphaTakesDefault: a NaN smoothing factor falls back to the
// default, so noise reports keep the pool noise finite and a job submitted
// after them is granted the idle pool.
func TestNaNGNSAlphaTakesDefault(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:     PoolConfig{Devices: 2, Seed: 1},
		Runner:   &fakeRunner{epochs: 3, noise: 40},
		GNSAlpha: math.NaN(),
	})
	for i := 0; i < 2; i++ {
		id, err := s.Submit(mlpSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %d = %s", i, st.State)
		}
	}
	if noise := s.Stats().PoolNoise; math.IsNaN(noise) || noise <= 0 {
		t.Fatalf("pool noise %v after reports of 40", noise)
	}
}

// TestEqualSplitPolicySelectable: the baseline policy is runnable end to
// end (the load-test harness races it against the default).
func TestEqualSplitPolicySelectable(t *testing.T) {
	s := newScheduler(t, Config{
		Pool:   PoolConfig{Devices: 4, Seed: 1, Jitter: 0.05},
		Runner: &fakeRunner{epochs: 1},
		Policy: PolicyEqualSplit,
	})
	id, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	if st.State != StateDone {
		t.Fatalf("state = %s", st.State)
	}
	// Under the baseline policy granted == counterfactual by definition.
	stats := s.Stats()
	if stats.GoodputGranted != stats.GoodputEqualSplit {
		t.Fatalf("equal policy accounting diverged: %v vs %v",
			stats.GoodputGranted, stats.GoodputEqualSplit)
	}
	if _, err := NewScheduler(Config{Pool: PoolConfig{Devices: 1}, Runner: &fakeRunner{}, Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := NewScheduler(Config{Pool: PoolConfig{Devices: 1}}); err == nil {
		t.Fatal("nil runner accepted")
	}
}
