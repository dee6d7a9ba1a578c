package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"cannikin"
	"cannikin/internal/data"
	"cannikin/internal/jobs"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/runspec"
	"cannikin/internal/server"
)

const (
	serveClients  = 2 // closed loop: a client's next job waits for its previous one
	serveDevices  = 3
	serveMaxQueue = 16
	// serveRound is how many jobs each client runs between two speed
	// probes: two turns of the job cycle, about half a second.
	serveRound = 12
)

// serveInstance is the multi-tenant service on a real loopback listener,
// mounted the way cmd/cannikin-serve mounts it.
type serveInstance struct {
	env    *env
	srv    *server.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	next   int // next job index of the seeded stream
}

func setupServe(e *env) (instance, error) {
	srv, err := server.New(server.Config{
		Pool:     jobs.PoolConfig{Devices: serveDevices, Seed: e.seed, Jitter: 0.05},
		MaxQueue: serveMaxQueue,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveInstance{
		env: e, srv: srv, http: &http.Server{Handler: srv}, served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	go func() { s.served <- s.http.Serve(ln) }()

	// Pre-check and warm-up in one: five sampled jobs through the service
	// must report the weights a direct TrainMLP of the same spec produces.
	samples := 5
	if e.quick {
		samples = 1
	}
	for i := 0; i < samples; i++ {
		body := jobBody(e.seed, s.next)
		s.next++
		job, err := s.submitAndStream(body, true, nil, 0, 0)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("sampled job %d: %w", i, err)
		}
		direct, err := directWeights(body)
		if err != nil {
			s.close()
			return nil, err
		}
		e.check(job.weights == direct, "served job %s weights %s, direct TrainMLP %s", job.id, job.weights, direct)
	}
	return s, nil
}

func (s *serveInstance) traceRoot() string { return "job" }

func (s *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx)     // best effort: the process is done with the service
	_ = s.http.Shutdown(ctx) // ditto
	<-s.served               // Serve has returned
	s.client.CloseIdleConnections()
}

// directWeights trains a job body's spec directly, the way TrainRunner
// lowers it, and returns the weights hash.
func directWeights(body []byte) (string, error) {
	spec, err := runspec.Decode(bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	res, err := cannikin.TrainMLP(cannikin.MLPConfig{
		LocalBatches: spec.MLPBatches, Backend: spec.Backend, Seed: spec.Seed, Epochs: spec.Epochs,
	})
	if err != nil {
		return "", fmt.Errorf("direct TrainMLP: %w", err)
	}
	return server.WeightsHash(res.FinalWeights), nil
}

// servedJob is one closed-loop exchange, timed from the client side.
type servedJob struct {
	id      string
	state   jobs.State
	weights string
	// All instants are relative to the POST being sent.
	admit, firstEpoch, done time.Duration
	epochGaps               []time.Duration
	respBytes, steps        int
}

// submitAndStream POSTs one job and follows its NDJSON stream to the
// terminal event. With a tracer it records the client-side spans of the
// exchange and asks the service for the job's own timestamps afterwards.
func (s *serveInstance) submitAndStream(body []byte, wantOutcome bool, tr *tracer, trace, lane int) (*servedJob, error) {
	job := &servedJob{}
	sent := time.Now()
	root := tr.begin("job", -1, trace, lane)
	defer tr.end(root)
	sp := tr.begin("server.admit", root, trace, lane)
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	job.admit = time.Since(sent)
	job.respBytes = len(raw)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var st jobs.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("POST /jobs response: %w", err)
	}
	job.id = st.ID

	sp = tr.begin("server.stream", root, trace, lane)
	defer tr.end(sp)
	stream, err := s.client.Get(s.base + "/jobs/" + job.id + "/stream")
	if err != nil {
		return nil, err
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET stream: %s", stream.Status)
	}
	sc := bufio.NewScanner(stream.Body)
	// An epoch's duration is read off the service's own clock — the
	// cumulative "elapsed" each epoch event carries — because a stream that
	// attaches late replays the epochs it missed in one burst. When the
	// lines arrive is only used for the first one and the last.
	var lastAt time.Time
	lastElapsed := -1.0
	for sc.Scan() {
		now := time.Now()
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("stream line: %w", err)
		}
		switch {
		case ev.Type == "epoch" && ev.Epoch != nil:
			if lastElapsed < 0 {
				job.firstEpoch = now.Sub(sent)
			} else {
				job.epochGaps = append(job.epochGaps, time.Duration((ev.Epoch.Elapsed-lastElapsed)*float64(time.Second)))
				tr.add("runtime.epoch", sp, trace, lane, lastAt, now)
			}
			lastAt, lastElapsed = now, ev.Epoch.Elapsed
		case ev.Type == "state" && ev.State.Terminal():
			job.state = ev.State
			job.done = now.Sub(sent)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if job.state == "" {
		return nil, errors.New("stream ended without a terminal state")
	}
	if !wantOutcome && tr == nil {
		return job, nil
	}
	// The outcome is not on the stream; one status read fetches it and,
	// traced, the scheduler's own timestamps for the job.
	final, err := s.status(job.id)
	if err != nil {
		return nil, err
	}
	if final.Outcome != nil {
		job.weights = final.Outcome.WeightsSHA256
		job.steps = final.Outcome.Steps
	}
	if tr != nil && !final.Started.IsZero() {
		tr.add("jobs.queue_wait", root, trace, lane, final.Submitted, final.Started)
		tr.add("runtime.train", sp, trace, lane, final.Started, final.Finished)
	}
	return job, nil
}

// getJSON reads one JSON document from the service.
func (s *serveInstance) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (s *serveInstance) status(id string) (*jobs.JobStatus, error) {
	var st jobs.JobStatus
	err := s.getJSON("/jobs/"+id, &st)
	return &st, err
}

func (s *serveInstance) run(seconds float64, tr *tracer) (*window, error) {
	win := &window{native: map[string]float64{}}
	before := s.srv.Scheduler().Stats()
	var mu sync.Mutex
	var done []*servedJob
	nextJob := func() int {
		mu.Lock()
		defer mu.Unlock()
		id := s.next
		s.next++
		return id
	}
	mem := markMem()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// The window is a series of rounds: both clients run serveRound jobs
	// each, closed loop, then park while the host's speed is probed.
	var lastRound time.Duration
	for first := true; first || time.Now().Before(deadline); first = false {
		win.probe(lastRound)
		roundStart := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < serveRound; k++ {
					id := nextJob()
					job, err := s.submitAndStream(jobBody(s.env.seed, id), false, tr, id, c)
					mu.Lock()
					win.attempted++
					switch {
					case err != nil:
						win.failed++
						win.note("job stream index %d: %v", id, err)
					case job.state != jobs.StateDone:
						win.failed++
						win.note("job %s ended %s", job.id, job.state)
					default:
						done = append(done, job)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		lastRound = time.Since(roundStart)
		win.wall += lastRound.Seconds()
	}
	win.probe(lastRound)
	mem.finish(win)

	var admit, jobMS []float64
	respBytes := 0
	for _, j := range done {
		win.epochs += 1 + len(j.epochGaps)
		win.steps += j.steps
		win.firstEpochMS = append(win.firstEpochMS, ms(j.firstEpoch))
		for _, g := range j.epochGaps {
			win.epochGapMS = append(win.epochGapMS, ms(g))
		}
		win.targetS = append(win.targetS, j.done.Seconds())
		admit = append(admit, ms(j.admit))
		jobMS = append(jobMS, ms(j.done))
		respBytes = j.respBytes
	}

	// /stats must account for every job and show the allocator no worse
	// than its equal-split counterfactual.
	var after jobs.Stats
	if err := s.getJSON("/stats", &after); err != nil {
		return nil, err
	}
	win.check(after.Done == after.Submitted, "/stats: done %d != submitted %d", after.Done, after.Submitted)
	win.check(after.GoodputGranted >= after.GoodputEqualSplit, "/stats: goodput granted %.4f < equal split %.4f", after.GoodputGranted, after.GoodputEqualSplit)

	win.native["serve.jobs_per_s"] = float64(len(done)) / win.wall
	win.native["serve.admit_ms_p50"] = median(admit)
	win.native["serve.admit_ms_p95"] = percentile(sorted(admit), 95)
	win.native["serve.first_epoch_ms_p95"] = percentile(sorted(win.firstEpochMS), 95)
	win.native["serve.job_ms_p50"] = median(jobMS)
	win.native["server.submit_resp_bytes"] = float64(respBytes)
	win.native["jobs.queue_depth_max"] = float64(after.MaxQueueDepth)
	if n := after.Submitted - before.Submitted; n > 0 {
		win.native["jobs.plan_events_per_job"] = float64(after.PlanEvents-before.PlanEvents) / float64(n)
	}
	if after.GoodputEqualSplit > 0 {
		win.native["jobs.goodput_edge"] = after.GoodputGranted / after.GoodputEqualSplit
	}
	return win, nil
}

// layers measures the service path from outside: queue waits from the
// scheduler's own JobStatus timestamps, then direct calls of the decoder,
// the scheduler and the HTTP handlers, each on a private scheduler so the
// served one is left alone.
func (s *serveInstance) layers(budget float64, traced *window, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	slice := time.Duration(budget / 10 * float64(time.Second))

	// Queue waits of every settled job, from the service's job list.
	var waits []float64
	for _, st := range s.srv.Scheduler().List() {
		if !st.Started.IsZero() {
			waits = append(waits, ms(st.Started.Sub(st.Submitted)))
		}
	}
	out["jobs.queue_wait_ms_p50"] = median(waits)
	out["jobs.queue_wait_ms_p95"] = percentile(sorted(waits), 95)

	body := jobBody(s.env.seed, 0)
	out["runspec.decode_us"] = tr.timed("runspec.decode", slice, func() { _, _ = runspec.Decode(bytes.NewReader(body)) })
	spec, err := runspec.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}

	// Scheduler alone, with a runner that does nothing.
	entered := make(chan time.Time, 1)
	noop := jobs.RunnerFunc(func(ctx context.Context, _ *runspec.Spec, _ func(jobs.Epoch) error) (*jobs.Outcome, error) {
		select {
		case entered <- time.Now():
		default:
		}
		return &jobs.Outcome{}, nil
	})
	pool := jobs.PoolConfig{Devices: serveDevices, Seed: s.env.seed}
	sched, err := jobs.NewScheduler(jobs.Config{Pool: pool, Runner: noop, MaxQueue: 1 << 20})
	if err != nil {
		return nil, err
	}
	var dispatch []float64
	out["jobs.submit_us"] = timeSelf(slice, func() time.Duration {
		start := time.Now()
		id, err := sched.Submit(spec)
		took := time.Since(start)
		if len(dispatch) < microSpans {
			tr.add("jobs.submit", -1, 0, 0, start, start.Add(took))
		}
		if err != nil {
			return took
		}
		// Idle pool: wait for the runner so every submit dispatches at once.
		at := <-entered
		dispatch = append(dispatch, us(at.Sub(start)))
		waitSettled(sched, id)
		return took
	})
	out["jobs.dispatch_us"] = median(dispatch)
	if err := sched.Drain(context.Background()); err != nil {
		return nil, err
	}

	// Handlers on a recorder: the HTTP layer without a socket.
	hsrv, err := server.New(server.Config{Pool: pool, MaxQueue: 1 << 20, Runner: noop})
	if err != nil {
		return nil, err
	}
	var lastID string
	out["server.submit_handler_us"] = timeSelf(slice, func() time.Duration {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		start := time.Now()
		hsrv.ServeHTTP(rec, req)
		took := time.Since(start)
		if lastID == "" {
			tr.add("server.submit_handler", -1, 0, 0, start, start.Add(took))
		}
		var st jobs.JobStatus
		if json.Unmarshal(rec.Body.Bytes(), &st) == nil && st.ID != "" {
			lastID = st.ID
			<-entered
			waitSettled(hsrv.Scheduler(), lastID)
		}
		return took
	})
	out["server.status_handler_us"] = tr.timed("server.status_handler", slice, func() {
		hsrv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/jobs/"+lastID, nil))
	})
	// A settled job's stream replays its events and ends; the handler's
	// time over the lines it wrote is the cost of one NDJSON event.
	lines := 1
	out["server.stream_event_us"] = tr.timed("server.stream_handler", slice, func() {
		rec := httptest.NewRecorder()
		hsrv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+lastID+"/stream", nil))
		lines = max(1, bytes.Count(rec.Body.Bytes(), []byte("\n")))
	})
	out["server.stream_event_us"] /= float64(lines)
	if err := hsrv.Drain(context.Background()); err != nil {
		return nil, err
	}

	// The same status read over the loopback socket; the difference to the
	// recorder is what HTTP itself costs.
	doneID := ""
	if list := s.srv.Scheduler().List(); len(list) > 0 {
		doneID = list[0].ID
	}
	loop := tr.timed("server.http_status", slice, func() { _, _ = s.status(doneID) })
	rec := timeOp(slice, func() {
		r := httptest.NewRecorder()
		s.srv.ServeHTTP(r, httptest.NewRequest(http.MethodGet, "/jobs/"+doneID, nil))
	})
	out["server.http_tax_us"] = loop - rec

	// The served model's evaluation and GNS estimate, the per-epoch and
	// per-step work the driver adds around a 420-parameter model.
	out["nn.eval_ms"] = servedEvalMS(slice)
	out["gns.estimate_us"] = gnsEstimateUS(tr, slice/2, []int{12, 8, 4})
	return out, nil
}

// waitSettled blocks until the job has left the running state, so timed
// submits never pile up behind each other.
func waitSettled(sched *jobs.Scheduler, id string) {
	ch, err := sched.Watch(id)
	if err != nil {
		return
	}
	for range ch {
	}
}

// servedEvalMS times the full-dataset evaluation the runtime performs after
// every epoch of a served job: TrainRunner leaves the model at MLPConfig's
// defaults (8 inputs, one hidden layer of 32, 4 classes, 4096 samples).
func servedEvalMS(budget time.Duration) float64 {
	ds, err := data.SyntheticBlobs(4096, 8, 4, 0.6, rng.New(1))
	if err != nil {
		return 0
	}
	net := nn.NewMLP([]int{8, 32, 4}, rng.New(2))
	return timeOp(budget, func() { nn.Accuracy(net.Forward(ds.X), ds.Labels) }) / 1e3
}
