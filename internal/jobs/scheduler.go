package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"cannikin/internal/gns"
	"cannikin/internal/runspec"
)

// Allocation policies accepted by Config.Policy.
const (
	// PolicyGoodput is the marginal-goodput allocator (default).
	PolicyGoodput = "goodput"
	// PolicyEqualSplit is the naive speed-blind FIFO baseline: the first
	// free devices by ID.
	PolicyEqualSplit = "equal"
	// PolicyHeterogeneous is FIFO over the fastest free devices of any
	// model — the mixed allocations Cannikin can train on (Section 6).
	PolicyHeterogeneous = "heterogeneous"
	// PolicyHomogeneous is FIFO over the fastest model with enough free
	// devices — the single-model slices existing schedulers carve.
	PolicyHomogeneous = "homogeneous"
)

// defaultNoisePrior prices statistical efficiency for a job that has not
// yet reported any gradient-noise estimate and before the pool has one
// either. It is deliberately large-ish: an unknown job is assumed to
// tolerate its batch size reasonably well, and real estimates take over
// from the first epoch report.
const defaultNoisePrior = 256

// Config configures a Scheduler.
type Config struct {
	// Pool sizes the shared device pool (required).
	Pool PoolConfig
	// Runner executes admitted jobs (required).
	Runner Runner
	// MaxQueue bounds the number of waiting jobs; submissions beyond it are
	// rejected with a *QueueFullError. Default 64.
	MaxQueue int
	// Policy selects the allocator: PolicyGoodput (default),
	// PolicyEqualSplit, PolicyHeterogeneous or PolicyHomogeneous.
	Policy string
	// RetryAfter is the back-off hint carried by queue-full rejections.
	// Default 500ms.
	RetryAfter time.Duration
	// GNSAlpha is the EMA smoothing factor for the pool-level and per-job
	// noise trackers. Default 0.3.
	GNSAlpha float64
	// Clock is the time source and decides when a granted run hands its
	// devices back. Nil means the wall clock.
	Clock Clock
}

// job is the scheduler's internal record of one submission.
type job struct {
	id       string
	index    int
	spec     *runspec.Spec
	workers  int
	batch    int
	base     int
	state    State
	canceled bool // Cancel was requested while running

	submitted time.Time
	started   time.Time
	finished  time.Time

	devices []int
	goodput float64
	profile []float64
	tracker *gns.Tracker

	epochs   []Epoch
	outcome  *Outcome
	err      error
	cancel   context.CancelFunc
	watchers []chan Event
}

// Scheduler is the multi-tenant job service: one goodput-driven allocator,
// many concurrent jobs. All state is guarded by one mutex; dispatch is
// event-driven (submission, completion, failure, cancellation each trigger
// one re-planning round), so there is no polling loop to leak.
type Scheduler struct {
	cfg    Config
	pool   *Pool
	runner Runner
	clock  Clock

	mu       sync.Mutex
	jobs     map[string]*job
	all      []*job // every job in submission order
	queue    []*job // waiting jobs in submission order
	nextID   int
	draining bool
	tracker  *gns.Tracker // pool-level noise, fed by every job's epochs
	wg       sync.WaitGroup

	stats        Stats
	admitted     int           // jobs that reached running
	admittedWait time.Duration // sum of their admission latencies
}

// NewScheduler validates the config and builds the service. No goroutines
// run until the first job is granted devices.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.Runner == nil {
		return nil, errors.New("jobs: config needs a Runner")
	}
	switch cfg.Policy {
	case "":
		cfg.Policy = PolicyGoodput
	case PolicyGoodput, PolicyEqualSplit, PolicyHeterogeneous, PolicyHomogeneous:
	default:
		return nil, fmt.Errorf("jobs: unknown policy %q (want %q, %q, %q or %q)", cfg.Policy,
			PolicyGoodput, PolicyEqualSplit, PolicyHeterogeneous, PolicyHomogeneous)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 500 * time.Millisecond
	}
	if !(cfg.GNSAlpha > 0 && cfg.GNSAlpha <= 1) { // NaN takes the default too
		cfg.GNSAlpha = 0.3
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock{}
	}
	pool, err := NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	return &Scheduler{
		cfg:     cfg,
		pool:    pool,
		runner:  cfg.Runner,
		clock:   cfg.Clock,
		jobs:    map[string]*job{},
		tracker: gns.NewTracker(cfg.GNSAlpha),
	}, nil
}

// Workers returns the device count a spec needs, mirroring how the run
// commands size their clusters: simulated jobs one per cluster node
// (explicit model list, else the preset sizes of the paper's Tables 3/4 and
// Section 6), MLP jobs one per worker at the run's elastic ceiling. The run
// itself decides when it grows (its scheduled joins and its autoscaler), so
// the pool grants the widest membership it can reach up front: every
// scheduled join adds a worker unconditionally, and the autoscaler may
// already have grown the run to autoscale_max before the joins commit.
func Workers(spec *runspec.Spec) (int, error) {
	if spec == nil {
		return 0, errors.New("nil spec")
	}
	if spec.MLP {
		if len(spec.MLPBatches) == 0 {
			return 0, errors.New("mlp spec has no local batches")
		}
		return max(len(spec.MLPBatches), spec.AutoscaleMax) + len(spec.Joins), nil
	}
	if len(spec.Models) > 0 {
		return len(spec.Models), nil
	}
	switch spec.Cluster {
	case "a", "A":
		return 3, nil
	case "b", "B", "c", "C":
		return 16, nil
	default:
		return 0, fmt.Errorf("unknown cluster preset %q", spec.Cluster)
	}
}

// batchOf returns the (scheduling-only) global batch and base batch used
// to price a spec's goodput. These drive allocation decisions, never the
// job's training arithmetic, so they cannot perturb determinism.
func batchOf(spec *runspec.Spec, workers int) (batch, base int) {
	switch {
	case spec.Batch > 0:
		batch = spec.Batch
	case spec.MLP:
		for _, b := range spec.MLPBatches {
			batch += b
		}
	default:
		batch = 32 * workers
	}
	return batch, min(32, batch)
}

// Submit runs admission control and enqueues the job, returning its ID.
// Rejections: ErrDraining after Drain began, ErrBadSpec for specs the
// service can never place (wider than the whole pool, or under the
// homogeneous policy than its largest model group), and a
// *QueueFullError (errors.Is ErrQueueFull) once MaxQueue jobs are waiting
// — the backpressure path; clients should retry after its hint.
func (s *Scheduler) Submit(spec *runspec.Spec) (string, error) {
	workers, err := Workers(spec)
	if err == nil {
		specCopy := *spec
		spec = &specCopy
	}
	return s.admit(spec, workers, err)
}

// admit is Submit's admission control for a spec that needs workers
// devices, or that Workers rejected with bad. Simulate enters here with
// each job's explicit width; the spec is stored as given, so it reaches
// Runner.Run as the same pointer.
func (s *Scheduler) admit(spec *runspec.Spec, workers int, bad error) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", ErrDraining
	}
	if widest := s.pool.widest(s.cfg.Policy); bad == nil && (workers < 1 || workers > widest) {
		bad = fmt.Errorf("spec needs %d devices, the pool can grant at most %d", workers, widest)
	}
	if bad != nil {
		s.stats.Rejected++
		return "", fmt.Errorf("%w: %v", ErrBadSpec, bad)
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.stats.Rejected++
		return "", &QueueFullError{Depth: len(s.queue), RetryAfter: s.cfg.RetryAfter}
	}
	id := fmt.Sprintf("job-%d", s.nextID)
	s.nextID++
	batch, base := batchOf(spec, workers)
	j := &job{
		id:        id,
		index:     s.stats.Submitted,
		spec:      spec,
		workers:   workers,
		batch:     batch,
		base:      base,
		state:     StateQueued,
		submitted: s.clock.Now(),
		profile:   s.pool.Profile(id),
		tracker:   gns.NewTracker(s.cfg.GNSAlpha),
	}
	s.jobs[id] = j
	s.all = append(s.all, j)
	s.queue = append(s.queue, j)
	s.stats.Submitted++
	if len(s.queue) > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = len(s.queue)
	}
	s.dispatchLocked()
	return id, nil
}

// askOf is the job's request as the allocator prices it. Its noise is the
// job's own smoothed estimate once it has reported epochs, else the
// pool-level estimate aggregated across every tenant, else the prior.
func (s *Scheduler) askOf(j *job) ask {
	a := ask{id: j.id, index: j.index, workers: j.workers, batch: j.batch, base: j.base, noise: defaultNoisePrior, profile: j.profile}
	if j.tracker.Steps() > 0 {
		a.noise = j.tracker.Noise()
	} else if s.tracker.Steps() > 0 {
		a.noise = s.tracker.Noise()
	}
	return a
}

// dispatchLocked is one cluster-level re-planning round, run on every
// membership event (arrival, finish, failure, cancellation). It plans
// grants for the waiting queue under the configured policy, always prices
// the equal-split counterfactual on the identical pool state for the
// Stats comparison, and starts the granted jobs.
func (s *Scheduler) dispatchLocked() {
	if s.draining {
		return
	}
	s.stats.PlanEvents++
	if len(s.queue) == 0 || s.pool.FreeCount() == 0 {
		return
	}
	asks := make([]ask, len(s.queue))
	for i, j := range s.queue {
		asks[i] = s.askOf(j)
	}
	free := s.pool.freeDevices()
	var grants []grant
	if s.cfg.Policy == PolicyGoodput {
		grants = planGoodput(free, asks)
	} else {
		grants = planFIFO(free, asks, s.cfg.Policy)
	}
	if len(grants) == 0 {
		return
	}
	// Counterfactual: what the naive baseline would have extracted from the
	// same free devices and the same queue, at the same instant.
	s.stats.GoodputGranted += totalGoodput(grants)
	s.stats.GoodputEqualSplit += totalGoodput(planFIFO(free, asks, PolicyEqualSplit))
	for _, g := range grants {
		s.startLocked(s.jobs[g.id], g)
	}
}

// startLocked transitions a queued job to running on its granted devices.
func (s *Scheduler) startLocked(j *job, g grant) {
	s.dequeueLocked(j)
	s.pool.acquire(g.devices, j.id)
	j.state = StateRunning
	j.started = s.clock.Now()
	j.devices = g.devices
	j.goodput = g.goodput
	wait := j.started.Sub(j.submitted)
	s.admitted++
	s.admittedWait += wait
	s.stats.AdmissionMax = max(s.stats.AdmissionMax, wait)
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	s.notifyLocked(j, Event{Job: j.id, Type: "state", State: StateRunning})
	s.wg.Add(1)
	s.clock.Go(func() (*Outcome, error) {
		return s.runner.Run(ctx, j.spec, j.devices, func(e Epoch) error {
			s.observeEpoch(j, e)
			return nil
		})
	}, func(outcome *Outcome, err error) { s.settle(j, outcome, err) })
}

// settle records a finished run's terminal state, hands its devices back
// and re-plans.
func (s *Scheduler) settle(j *job, outcome *Outcome, err error) {
	defer s.wg.Done()
	defer j.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.release(j.id)
	j.finished = s.clock.Now()
	j.outcome, j.err = outcome, err
	switch {
	case err == nil:
		j.state = StateDone
		s.stats.Done++
	case j.canceled || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		s.stats.Canceled++
	default:
		j.state = StateFailed
		s.stats.Failed++
	}
	s.settleLocked(j)
	s.dispatchLocked()
}

// observeEpoch records one epoch report: the per-epoch trace, the job's
// noise tracker, the pool-level tracker, and the watcher fan-out.
func (s *Scheduler) observeEpoch(j *job, e Epoch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.epochs = append(j.epochs, e)
	if e.Noise > 0 {
		est := gns.Estimate{GradSq: 1, TraceVar: e.Noise, Noise: e.Noise}
		j.tracker.Observe(est)
		s.tracker.Observe(est)
	}
	ec := e
	s.notifyLocked(j, Event{Job: j.id, Type: "epoch", Epoch: &ec})
}

// notifyLocked fans an event out to the job's watchers without ever
// blocking the training goroutine: a watcher that stopped draining its
// buffer loses events, not the job.
func (s *Scheduler) notifyLocked(j *job, ev Event) {
	for _, ch := range j.watchers {
		select {
		case ch <- ev:
		default:
		}
	}
}

// dequeueLocked removes a job from the waiting queue.
func (s *Scheduler) dequeueLocked(j *job) {
	s.queue = slices.DeleteFunc(s.queue, func(q *job) bool { return q == j })
}

// cancelQueuedLocked settles a job that never started as canceled.
func (s *Scheduler) cancelQueuedLocked(j *job) {
	j.state = StateCanceled
	j.finished = s.clock.Now()
	s.stats.Canceled++
	s.settleLocked(j)
}

// settleLocked emits the terminal state event and closes every watcher.
func (s *Scheduler) settleLocked(j *job) {
	ev := Event{Job: j.id, Type: "state", State: j.state}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	for _, ch := range j.watchers {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	j.watchers = nil
}

// Cancel cancels a job. A queued job is removed immediately and frees its
// slot for re-planning; a running job has its context canceled and settles
// as canceled when the runner unwinds. Canceling a terminal job is a no-op.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		s.dequeueLocked(j)
		s.cancelQueuedLocked(j)
		s.dispatchLocked()
	case StateRunning:
		j.canceled = true
		j.cancel()
	}
	return nil
}

// Status returns the job's full snapshot, including its epoch trace.
func (s *Scheduler) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	st := s.snapshotLocked(j)
	st.Epochs = append([]Epoch(nil), j.epochs...)
	return st, nil
}

// List returns every job's snapshot (without epoch traces), in submission
// order.
func (s *Scheduler) List() []*JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobStatus, 0, len(s.all))
	for _, j := range s.all {
		out = append(out, s.snapshotLocked(j))
	}
	return out
}

func (s *Scheduler) snapshotLocked(j *job) *JobStatus {
	st := &JobStatus{
		ID:         j.id,
		Spec:       j.spec,
		State:      j.state,
		QueuePos:   -1,
		Workers:    j.workers,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
		Devices:    append([]int(nil), j.devices...),
		Goodput:    j.goodput,
		EpochsDone: len(j.epochs),
		Outcome:    j.outcome,
	}
	if j.tracker.Steps() > 0 {
		st.Noise = j.tracker.Noise()
	}
	if j.state == StateQueued {
		for i, q := range s.queue {
			if q == j {
				st.QueuePos = i
			}
		}
	}
	if !j.started.IsZero() {
		st.AdmissionLatency = j.started.Sub(j.submitted)
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Watch returns a stream of the job's events: a replay of every epoch so
// far, then live epochs and state transitions until the job settles, when
// the channel closes. The stream is lossy under sustained backpressure
// (slow consumers drop events rather than stalling training).
func (s *Scheduler) Watch(id string) (<-chan Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	ch := make(chan Event, len(j.epochs)+256)
	for i := range j.epochs {
		ec := j.epochs[i]
		ch <- Event{Job: j.id, Type: "epoch", Epoch: &ec}
	}
	if j.state.Terminal() {
		ev := Event{Job: j.id, Type: "state", State: j.state}
		if j.err != nil {
			ev.Error = j.err.Error()
		}
		ch <- ev
		close(ch)
		return ch, nil
	}
	j.watchers = append(j.watchers, ch)
	return ch, nil
}

// Stats returns the scheduler's aggregate accounting, including the live
// aggregate goodput of running jobs under their current noise estimates.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Devices = s.pool.Size()
	st.Busy = s.pool.Size() - s.pool.FreeCount()
	st.Queued = len(s.queue)
	st.Draining = s.draining
	if s.tracker.Steps() > 0 {
		st.PoolNoise = s.tracker.Noise()
	}
	if s.admitted > 0 {
		st.AdmissionMean = s.admittedWait / time.Duration(s.admitted)
	}
	for _, j := range s.jobs {
		if j.state != StateRunning {
			continue
		}
		st.Running++
		devs := make([]*Device, 0, len(j.devices))
		for _, id := range j.devices {
			devs = append(devs, s.pool.devices[id])
		}
		st.AggregateGoodput += predictGoodput(devs, s.askOf(j))
	}
	return st
}

// Drain begins graceful shutdown: no further submissions are admitted,
// still-queued jobs are canceled (they never started; clients may resubmit
// elsewhere), and running jobs are left to finish. Drain returns when the
// last running job settles, or — if ctx expires first — cancels the
// survivors, waits for them to unwind, and returns ctx's error.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.stats.PlanEvents++
		for _, j := range s.queue {
			s.cancelQueuedLocked(j)
		}
		s.queue = nil
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.state == StateRunning {
				j.canceled = true
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
