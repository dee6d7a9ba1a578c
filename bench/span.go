package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. The layer is the part of
// the name before the first dot ("nn.forward" belongs to layer "nn").
// Spans of one step, job or run share a trace id; parent is the span that
// caused this one (-1 for a root).
type span struct {
	Name       string
	ID, Parent int
	Trace      int
	Lane       int // worker, client or rank the span ran on
	Start, End time.Duration
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer is
// tracing off: every method is a no-op, so the measured code path is the
// same with and without it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; pass it to end.
func (t *tracer) begin(name string, parent, trace, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Trace: trace, Lane: lane, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose boundaries were observed as wall-clock instants
// (an epoch callback, an NDJSON line) rather than around a call.
func (t *tracer) add(name string, parent, trace, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Trace: trace, Lane: lane, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// layerRow is one line of the layers table.
type layerRow struct {
	Layer  string
	Calls  int
	BusyMS float64 // sum of span durations
	SelfMS float64 // busy minus the part children cover
	Share  float64 // self time over the roots' total duration
}

// selfTimes returns each span's self time: its duration minus the length
// of the union of its children's intervals, clipped to the span. Children
// that overlap each other (parallel workers under one step) are counted
// once, so a parent never goes negative.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// layerTable aggregates the spans of the trees rooted at spans called
// root (one step, job or run each) by layer: call count, busy time, self
// time, and self time as a share of all self time in those trees. Workers
// run in parallel under one step, so the shares partition the time spent,
// not the wall clock.
func layerTable(spans []span, root string) []layerRow {
	self := selfTimes(spans)
	inTree := make([]bool, len(spans))
	rows := map[string]*layerRow{}
	total := time.Duration(0)
	for i, s := range spans {
		// Parents are recorded before their children, so one pass settles
		// membership.
		inTree[i] = (s.Parent < 0 && s.Name == root) || (s.Parent >= 0 && inTree[s.Parent])
		if !inTree[i] || s.End < s.Start {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		r := rows[layer]
		if r == nil {
			r = &layerRow{Layer: layer}
			rows[layer] = r
		}
		r.Calls++
		r.BusyMS += ms(s.End - s.Start)
		r.SelfMS += ms(self[i])
		total += self[i]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if total > 0 {
			r.Share = r.SelfMS / ms(total)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// microSpans is how many calls of one timed micro-measurement are kept as
// spans; the rest are timed without being recorded.
const microSpans = 16

// timed measures f like timeOp and records its first few calls as root
// spans called name, so the direct layer calls appear in the trace file
// without flooding it.
func (t *tracer) timed(name string, budget time.Duration, f func()) float64 {
	calls := 0
	return timeOp(budget, func() {
		if calls++; t == nil || calls > microSpans {
			f()
			return
		}
		id := t.begin(name, -1, 0, 0)
		f()
		t.end(id)
	})
}

// spanUS is a closed span's duration in microseconds; with tracing off
// (or an unknown id) it is 0.
func (t *tracer) spanUS(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	return us(t.spans[id].End - t.spans[id].Start)
}

// busyUS is the mean duration in microseconds of the spans with this name
// on one lane.
func (t *tracer) busyUS(name string, lane int) float64 {
	n, sum := 0, time.Duration(0)
	for _, s := range t.spans {
		if s.Name == name && s.Lane == lane && s.End >= s.Start {
			n++
			sum += s.End - s.Start
		}
	}
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeChrome writes the spans in Chrome trace-event format (open in
// chrome://tracing or https://ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
