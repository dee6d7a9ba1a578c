// Package server exposes the multi-tenant job scheduler (internal/jobs)
// as an HTTP/JSON service — the cannikin-serve binary's engine.
//
// API (all JSON):
//
//	POST   /jobs             submit a runspec.Spec body → 201 + job status
//	GET    /jobs             list every job (no epoch traces)
//	GET    /jobs/{id}        one job's full status, epoch trace included
//	DELETE /jobs/{id}        cancel (idempotent on settled jobs)
//	GET    /jobs/{id}/stream NDJSON event stream: epochs, then final state
//	GET    /stats            scheduler aggregates (goodput, queue, latency)
//	GET    /healthz          liveness (503 while draining)
//
// Backpressure surfaces as HTTP 429 with a Retry-After header when the
// bounded queue is full; specs the pool cannot place are 400; submissions
// during drain are 503; a spec body over 1 MiB is 413.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"cannikin/internal/jobs"
	"cannikin/internal/runspec"
)

// Config configures a Server.
type Config struct {
	// Pool sizes the scheduler's device pool (required).
	Pool jobs.PoolConfig
	// MaxQueue, Policy, RetryAfter, GNSAlpha pass through to jobs.Config.
	MaxQueue   int
	Policy     string
	RetryAfter time.Duration
	GNSAlpha   float64
	// Runner overrides the default TrainRunner (tests inject fakes).
	Runner jobs.Runner
}

// Server is the HTTP front end over one jobs.Scheduler.
type Server struct {
	sched *jobs.Scheduler
	mux   *http.ServeMux
}

// New builds the service. No listener is opened: the caller mounts the
// Server as an http.Handler.
func New(cfg Config) (*Server, error) {
	runner := cfg.Runner
	if runner == nil {
		runner = TrainRunner{}
	}
	sched, err := jobs.NewScheduler(jobs.Config{
		Pool:       cfg.Pool,
		Runner:     runner,
		MaxQueue:   cfg.MaxQueue,
		Policy:     cfg.Policy,
		RetryAfter: cfg.RetryAfter,
		GNSAlpha:   cfg.GNSAlpha,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler exposes the underlying scheduler (the load-test harness reads
// its stats directly).
func (s *Server) Scheduler() *jobs.Scheduler { return s.sched }

// Drain gracefully shuts the scheduler down; see jobs.Scheduler.Drain.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// errorBody is the uniform JSON error shape.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 responses.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	var qf *jobs.QueueFullError
	switch {
	case errors.As(err, &qf):
		w.Header().Set("Retry-After", strconv.Itoa(int((qf.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:        qf.Error(),
			RetryAfterMS: qf.RetryAfter.Milliseconds(),
		})
	case errors.Is(err, jobs.ErrBadSpec):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, jobs.ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, jobs.ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// maxSpecBytes caps a submitted spec body: a spec is a few hundred bytes, so
// a larger body is refused (413) before it is read in full.
const maxSpecBytes = 1 << 20

// handleSubmit parses the request body with runspec.Decode — the same
// defaults-plus-strict-fields semantics as a -spec file — and admits it.
// The response echoes the admitted job's status, spec included, so clients
// can verify the round-trip field for field.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := runspec.Decode(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	if spec.Transport == runspec.TransportTCP {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: "transport \"tcp\" jobs are not supported: the service runs workers in-process",
		})
		return
	}
	id, err := s.sched.Submit(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	st, err := s.sched.Status(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+id)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []*jobs.JobStatus `json:"jobs"`
	}{s.sched.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Status(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		s.writeError(w, err)
		return
	}
	st, err := s.sched.Status(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream replays the job's epochs so far and then follows it live as
// newline-delimited JSON, one jobs.Event per line, ending with the
// terminal state event. The connection closes when the job settles or the
// client goes away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ch, err := s.sched.Watch(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	if st.Draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
