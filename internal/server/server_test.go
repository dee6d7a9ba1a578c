package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cannikin"

	"cannikin/internal/jobs"
	"cannikin/internal/runspec"
)

// slowRunner is a controllable fake for HTTP-layer tests.
type slowRunner struct {
	epochs int
	delay  time.Duration
	gate   chan struct{}
}

func (r *slowRunner) Run(ctx context.Context, spec *runspec.Spec, _ []int, onEpoch func(jobs.Epoch) error) (*jobs.Outcome, error) {
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for e := 0; e < r.epochs; e++ {
		if r.delay > 0 {
			select {
			case <-time.After(r.delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err := onEpoch(jobs.Epoch{Epoch: e, Batch: 32, Metric: float64(e)}); err != nil {
			return nil, err
		}
	}
	return &jobs.Outcome{Epochs: r.epochs}, nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSpec(t *testing.T, ts *httptest.Server, body string) (*http.Response, *jobs.JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp, &jobs.JobStatus{Error: e.Error}
	}
	var st jobs.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp, &st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) *jobs.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", id, resp.StatusCode)
	}
	var st jobs.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) *jobs.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return nil
}

// TestSubmitStatusRoundTrip is the spec round-trip guarantee: a JSON spec
// posted to the server comes back from /jobs/{id} field-identical —
// defaults applied exactly as a -spec file would get them, fault mini-DSL
// events included.
func TestSubmitStatusRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:   jobs.PoolConfig{Devices: 4, Seed: 1},
		Runner: &slowRunner{epochs: 1},
	})
	body := `{
		"mlp": true,
		"mlp_batches": [8, 4],
		"epochs": 3,
		"seed": 99,
		"backend": "live",
		"bucket_bytes": 4096,
		"faults": [
			{"kind": "stall", "worker": 0, "step": 3, "delay": 40000000},
			{"kind": "kill", "worker": 1, "step": 8}
		],
		"fault_replan": "optperf"
	}`
	want, err := runspec.Decode(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, st := postSpec(t, ts, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs = %d (%s)", resp.StatusCode, st.Error)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	if !reflect.DeepEqual(st.Spec, want) {
		t.Fatalf("submit echo diverged:\n got %+v\nwant %+v", st.Spec, want)
	}
	got := getStatus(t, ts, st.ID)
	if !reflect.DeepEqual(got.Spec, want) {
		t.Fatalf("status echo diverged:\n got %+v\nwant %+v", got.Spec, want)
	}
	// The mini-DSL itself round-trips through the echoed events.
	dsl := runspec.FormatFaults(got.Spec.Faults)
	back, err := runspec.ParseFaults(dsl)
	if err != nil || !reflect.DeepEqual(back, want.Faults) {
		t.Fatalf("fault DSL round-trip: %q → %+v (err %v)", dsl, back, err)
	}
}

func TestSubmitRejectsBadBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:   jobs.PoolConfig{Devices: 2, Seed: 1},
		Runner: &slowRunner{epochs: 1},
	})
	cases := []struct {
		name, body string
		code       int
	}{
		{"malformed json", `{"mlp": `, http.StatusBadRequest},
		{"unknown field", `{"no_such_field": 1}`, http.StatusBadRequest},
		{"too wide", `{"mlp": true, "mlp_batches": [1,1,1]}`, http.StatusBadRequest},
		{"bad preset", `{"cluster": "z"}`, http.StatusBadRequest},
		{"tcp transport", `{"mlp": true, "mlp_batches": [4,4], "transport": "tcp"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := postSpec(t, ts, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code = %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
}

// TestSubmitOversizedBody413: a spec body over the 1 MiB cap is refused with
// 413 and the JSON error body, before it is read in full, and admits
// nothing — /stats counts no submission.
func TestSubmitOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:   jobs.PoolConfig{Devices: 2, Seed: 1},
		Runner: &slowRunner{epochs: 1},
	})
	body := `{"mlp": true, "resume": "` + strings.Repeat("a", maxSpecBytes) + `"}`
	resp, st := postSpec(t, ts, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("code = %d, want 413", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" || st.Error == "" {
		t.Fatalf("413 body: content type %q, error %q", ct, st.Error)
	}
	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var got jobs.Stats
	if err := json.NewDecoder(stats.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Submitted != 0 || got.Queued != 0 || got.Running != 0 {
		t.Fatalf("oversized body admitted something: %+v", got)
	}
}

// TestQueueFull429: admission backpressure surfaces as HTTP 429 with both
// a Retry-After header and a machine-readable hint in the body.
func TestQueueFull429(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, ts := newTestServer(t, Config{
		Pool:       jobs.PoolConfig{Devices: 2, Seed: 1},
		Runner:     &slowRunner{epochs: 1, gate: gate},
		MaxQueue:   1,
		RetryAfter: 2 * time.Second,
	})
	spec := `{"mlp": true, "mlp_batches": [4, 4]}`
	for i := 0; i < 2; i++ { // one runs, one queues
		if resp, st := postSpec(t, ts, spec); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d = %d (%s)", i, resp.StatusCode, st.Error)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	var body struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RetryAfterMS != 2000 || body.Error == "" {
		t.Fatalf("body = %+v", body)
	}
}

func TestCancelAndNotFound(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, ts := newTestServer(t, Config{
		Pool:   jobs.PoolConfig{Devices: 2, Seed: 1},
		Runner: &slowRunner{epochs: 1, gate: gate},
	})
	_, st := postSpec(t, ts, `{"mlp": true, "mlp_batches": [4, 4]}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	if got := waitDone(t, ts, st.ID); got.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %s", got.State)
	}
	for _, path := range []string{"/jobs/nope", "/jobs/nope/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d, want 404", resp.StatusCode)
	}
}

// TestStreamNDJSON: the stream endpoint delivers every epoch in order as
// one JSON object per line and closes after the terminal state event.
func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:   jobs.PoolConfig{Devices: 2, Seed: 1},
		Runner: &slowRunner{epochs: 4, delay: 2 * time.Millisecond},
	})
	_, st := postSpec(t, ts, `{"mlp": true, "mlp_batches": [4, 4]}`)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var epochs []int
	var final jobs.State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "epoch":
			epochs = append(epochs, ev.Epoch.Epoch)
		case "state":
			final = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final != jobs.StateDone {
		t.Fatalf("final state = %s", final)
	}
	if len(epochs) != 4 {
		t.Fatalf("streamed %d epochs: %v", len(epochs), epochs)
	}
	for i, e := range epochs {
		if e != i {
			t.Fatalf("epochs out of order: %v", epochs)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Pool:   jobs.PoolConfig{Devices: 2, Seed: 1},
		Runner: &slowRunner{epochs: 1},
	})
	_, st := postSpec(t, ts, `{"mlp": true, "mlp_batches": [4, 4]}`)
	waitDone(t, ts, st.ID)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats jobs.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Done != 1 || stats.Devices != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", resp2.StatusCode)
	}
	// Submissions during drain are 503.
	resp3, _ := postSpec(t, ts, `{"mlp": true, "mlp_batches": [4, 4]}`)
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d", resp3.StatusCode)
	}
}

// TestDeterminismUnderMultiTenancy is the acceptance differential: a job
// submitted to the busy service produces bitwise-identical final weights
// (same sha256 fingerprint) as the same spec run directly through the
// public TrainMLP API, concurrent tenants notwithstanding. The scheduler
// only decides placement — capacity tokens — and never touches the
// training arithmetic.
func TestDeterminismUnderMultiTenancy(t *testing.T) {
	// Direct run of the reference spec through the library.
	ref := cannikin.MLPConfig{
		LocalBatches: []int{8, 4},
		Epochs:       2,
		Seed:         77,
		Backend:      "live",
	}
	direct, err := cannikin.TrainMLP(ref)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := WeightsHash(direct.FinalWeights)

	// Same spec through the service, racing three other tenants with
	// different seeds and shapes (the real TrainRunner, no fakes).
	_, ts := newTestServer(t, Config{
		Pool: jobs.PoolConfig{Devices: 8, Seed: 5, Jitter: 0.1},
	})
	refBody := `{"mlp": true, "mlp_batches": [8, 4], "epochs": 2, "seed": 77, "backend": "live"}`
	others := []string{
		`{"mlp": true, "mlp_batches": [4, 4], "epochs": 2, "seed": 1}`,
		`{"mlp": true, "mlp_batches": [8], "epochs": 2, "seed": 2, "backend": "live"}`,
		`{"mlp": true, "mlp_batches": [2, 2, 2], "epochs": 2, "seed": 3}`,
	}
	var wg sync.WaitGroup
	ids := make([]string, len(others))
	for i, body := range others {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, st := postSpec(t, ts, body)
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("tenant %d = %d (%s)", i, resp.StatusCode, st.Error)
				return
			}
			ids[i] = st.ID
		}(i, body)
	}
	resp, st := postSpec(t, ts, refBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("reference submit = %d (%s)", resp.StatusCode, st.Error)
	}
	wg.Wait()
	got := waitDone(t, ts, st.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("reference job = %s (err %q)", got.State, got.Error)
	}
	if got.Outcome == nil || got.Outcome.WeightsSHA256 != wantHash {
		t.Fatalf("weights diverged under multi-tenancy:\n server %+v\n direct %s", got.Outcome, wantHash)
	}
	if got.Outcome.Steps != direct.Steps || got.Outcome.FinalAccuracy != direct.FinalAccuracy {
		t.Fatalf("outcome diverged: server %+v vs direct steps=%d acc=%v",
			got.Outcome, direct.Steps, direct.FinalAccuracy)
	}
	for i, id := range ids {
		if id == "" {
			continue
		}
		if st := waitDone(t, ts, id); st.State != jobs.StateDone {
			t.Fatalf("tenant %d = %s (err %q)", i, st.State, st.Error)
		}
	}
}

// TestSimJobThroughService: a simulated-cluster spec runs end to end and
// reports convergence metrics through the unified epoch shape.
func TestSimJobThroughService(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool: jobs.PoolConfig{Devices: 4, Seed: 2},
	})
	resp, st := postSpec(t, ts, `{"cluster": "a", "workload": "cifar10", "system": "pytorch-ddp", "seed": 3, "epochs": 4}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d (%s)", resp.StatusCode, st.Error)
	}
	got := waitDone(t, ts, st.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("sim job = %s (err %q)", got.State, got.Error)
	}
	if got.Outcome == nil || got.Outcome.Epochs == 0 {
		t.Fatalf("outcome = %+v", got.Outcome)
	}
	if len(got.Epochs) != got.Outcome.Epochs {
		t.Fatalf("trace %d entries for %d epochs", len(got.Epochs), got.Outcome.Epochs)
	}
	if got.Epochs[0].Metric == 0 && got.Epochs[0].Batch == 0 {
		t.Fatalf("sim epoch not populated: %+v", got.Epochs[0])
	}
}

// TestNegativeChaosJobFails: a sim spec whose churn lies outside (0, 1]
// fails with the intensity error instead of training unperturbed.
func TestNegativeChaosJobFails(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool: jobs.PoolConfig{Devices: 4, Seed: 2},
	})
	resp, st := postSpec(t, ts, `{"cluster": "a", "workload": "cifar10", "system": "pytorch-ddp", "seed": 3, "epochs": 4, "chaos": -0.5}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d (%s)", resp.StatusCode, st.Error)
	}
	got := waitDone(t, ts, st.ID)
	if got.State != jobs.StateFailed || !strings.Contains(got.Error, "intensity -0.5 outside (0, 1]") {
		t.Fatalf("job = %s (err %q), want failed with the intensity error", got.State, got.Error)
	}
}

// TestElasticJobGrantedCeiling is the admission differential for elastic
// specs. The run decides when it grows (its joins, its autoscaler); the pool
// grants its ceiling up front, so the wide membership is never invisible to
// the pool: a ceiling wider than the pool is a 400, and a ceiling within it
// holds that many devices at every epoch, reports it as workers, and trains
// bitwise what a direct TrainMLP of the same spec trains. (The autoscale row
// sets a grow threshold no predicted gain can clear: the default pricing
// reads measured step times, and a differential needs the same decisions on
// both sides.)
func TestElasticJobGrantedCeiling(t *testing.T) {
	const pool = 3
	var srv *Server
	busy := make(chan int, 16) // one sample per epoch of the <=3-epoch jobs below
	srv, ts := newTestServer(t, Config{
		Pool: jobs.PoolConfig{Devices: pool, Seed: 4},
		Runner: jobs.RunnerFunc(func(ctx context.Context, spec *runspec.Spec, onEpoch func(jobs.Epoch) error) (*jobs.Outcome, error) {
			return TrainRunner{}.Run(ctx, spec, nil, func(e jobs.Epoch) error {
				busy <- srv.Scheduler().Stats().Busy
				return onEpoch(e)
			})
		}),
	})

	resp, st := postSpec(t, ts, `{"mlp": true, "backend": "live", "mlp_batches": [8, 8], "autoscale_max": 8}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ceiling 8 on a %d-device pool = %d (%+v), want 400", pool, resp.StatusCode, st)
	}

	for name, body := range map[string]string{
		"joins":         `{"mlp": true, "backend": "live", "mlp_batches": [8, 8], "epochs": 3, "seed": 11, "joins": [{"epoch": 1, "batch": 4}]}`,
		"autoscale_max": `{"mlp": true, "backend": "live", "mlp_batches": [8, 8], "epochs": 2, "seed": 11, "autoscale_max": 3, "autoscale_grow": 1e9}`,
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := runspec.Decode(strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := cannikin.TrainMLP(MLPConfigOf(spec))
			if err != nil {
				t.Fatal(err)
			}
			resp, st := postSpec(t, ts, body)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("submit = %d (%s)", resp.StatusCode, st.Error)
			}
			if st.Workers != pool || len(st.Devices) != pool {
				t.Fatalf("admitted with %d workers on devices %v, want the ceiling %d", st.Workers, st.Devices, pool)
			}
			got := waitDone(t, ts, st.ID)
			if got.State != jobs.StateDone || got.Workers != pool {
				t.Fatalf("job = %s with %d workers (err %q)", got.State, got.Workers, got.Error)
			}
			for e := 0; e < got.EpochsDone; e++ {
				if b := <-busy; b != pool {
					t.Fatalf("epoch %d: %d devices held, want the ceiling %d", e, b, pool)
				}
			}
			if want := WeightsHash(direct.FinalWeights); got.Outcome.WeightsSHA256 != want {
				t.Fatalf("weights diverged from the direct run:\n server %s\n direct %s", got.Outcome.WeightsSHA256, want)
			}
			if name == "joins" && len(direct.Joins) != 1 {
				t.Fatalf("the reference run never grew: %+v", direct.Joins)
			}
		})
	}
}

// TestKernelShardsSpecRejected400: the kernel pool's width is the host's,
// so no spec field sets it — a spec that still names kernel_shards fails
// runspec.Decode's unknown-field check like any other unknown field: HTTP
// 400 naming the field, and nothing admitted.
func TestKernelShardsSpecRejected400(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:   jobs.PoolConfig{Devices: 2, Seed: 1},
		Runner: &slowRunner{epochs: 1},
	})
	resp, st := postSpec(t, ts, `{"mlp": true, "mlp_batches": [4, 4], "epochs": 1, "kernel_shards": 4}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(st.Error, "kernel_shards") {
		t.Fatalf("submit = %d (%q), want 400 naming kernel_shards", resp.StatusCode, st.Error)
	}
	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var got jobs.Stats
	if err := json.NewDecoder(stats.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Submitted != 0 || got.Queued != 0 || got.Running != 0 {
		t.Fatalf("a kernel_shards spec admitted something: %+v", got)
	}
}
