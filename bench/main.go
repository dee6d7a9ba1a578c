// Command bench is the repository's performance ledger: five named
// workloads, one set of end-to-end metrics every workload reports, and a
// traced pass that decomposes each workload into per-layer numbers.
//
//	go run ./bench --workload mlp_comm --seed 1 --seconds 12 --trace 0
//	go run ./bench --workload mlp_comm --seed 1 --seconds 12 --trace 1
//	go run ./bench -out a.json            # every workload, untraced + traced
//	go run ./bench -compare a.json b.json # verdict per workload x metric
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (see BENCHMARK.json and README.md).
// Layers are measured from outside: spans the benchmark records around its
// own calls into each layer's exported functions, plus counters the public
// API already returns. Nothing outside this directory is instrumented.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// DefaultSeed drives every generator unless -seed says otherwise;
// HoldoutSeed is reserved for confirming a claim on inputs not used while
// a change was written (choosing-metrics guide, section 6).
const (
	DefaultSeed uint64 = 1
	HoldoutSeed uint64 = 7919
)

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string // trace files
	setFile  string // result set to append to ("" = none)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", `workload name, or "all"`)
	seed := fs.Uint64("seed", DefaultSeed, "generator seed (job stream, dataset seeds, sim run list)")
	seconds := fs.Float64("seconds", 12, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	quick := fs.Bool("quick", false, "smoke shape: one set-up, tiny calls, no target check")
	outDir := fs.String("trace-dir", filepath.Join("bench", "out"), "directory for trace-<workload>.json")
	setFile := fs.String("out", "", "result set file to append this invocation's runs to")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result set files")
		}
		return compareFiles(w, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v", *seconds)
	}
	opts := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		quick: *quick, outDir: *outDir, setFile: *setFile,
	}
	host := hostShape()
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d %s %s\n", host.NProc, host.GoMaxProcs, host.GoVersion, host.CPUModel)

	if opts.workload != "all" {
		res, err := runWorkload(w, opts)
		if err != nil {
			return err
		}
		return finish(w, host, opts, []*result{res})
	}
	// One invocation, every workload: the untraced pass, then the traced
	// pass at a third of the length.
	var all []*result
	for _, traced := range []bool{false, true} {
		for _, wl := range workloads {
			o := opts
			o.workload, o.trace = wl.name, traced
			if traced {
				o.seconds = opts.seconds / 3
			}
			res, err := runWorkload(w, o)
			if err != nil {
				return err
			}
			all = append(all, res)
		}
	}
	return finish(w, host, opts, all)
}

// finish appends the runs to the result set, prints each run's JSON line
// (the contract's last line of output), and fails the process when any
// output check failed.
func finish(w io.Writer, host Host, opts options, results []*result) error {
	if opts.setFile != "" {
		if err := appendResults(opts.setFile, host, results); err != nil {
			return err
		}
	}
	bad := 0
	for _, r := range results {
		line, err := json.Marshal(r.line())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
		if !r.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d runs failed an output check", bad, len(results))
	}
	return nil
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the sample count behind each timing (not gated).
	Samples map[string]int `json:"samples,omitempty"`
	// Slowdown is the host slowdown the end-to-end figures were calibrated
	// by; a figure times it (a rate over it) is the raw wall-clock reading.
	Slowdown float64 `json:"host_slowdown,omitempty"`
	// Problems lists failed output checks and failed operations; empty
	// when Correct.
	Problems []string `json:"problems,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the driver-facing view: exactly correct, attempted, failed and
// metrics.
func (r *result) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// runWorkload sets one workload up, measures it, and prints its metrics by
// name. Untraced: set-up is repeated setupReps times (setup_s is the
// median) and the timed window yields every end-to-end metric. Traced: a
// third of the time runs untraced as the overhead reference, a third runs
// traced, and the rest is spent on the per-layer measurements.
func runWorkload(w io.Writer, opts options) (*result, error) {
	wl, ok := workloadByName(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opts.workload, workloadNames())
	}
	fmt.Fprintf(w, "\n== %s (seed %d, %.1fs, trace=%v) — %s\n", wl.name, opts.seed, opts.seconds, opts.trace, wl.why)
	res := &result{
		Workload: wl.name, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		Metrics: map[string]metric{}, Samples: map[string]int{},
	}
	env := &env{workload: wl.name, seed: opts.seed, quick: opts.quick}

	reps := setupReps
	if opts.quick || opts.trace {
		reps = 1
	}
	var setups []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		// A probe on either side calibrates the set-up like a window.
		var sp speed
		sp.probe(time.Second)
		start := time.Now()
		var err error
		if inst, err = wl.setup(env); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		took := time.Since(start)
		sp.probe(took)
		setups = append(setups, took.Seconds()/sp.slowdown())
	}
	defer inst.close()
	res.absorb(0, 0, env.checks)

	if !opts.trace {
		win, err := inst.run(opts.seconds, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		res.absorb(win.attempted, win.failed, win.checks)
		res.endToEnd(win, median(setups), len(setups))
		printMetrics(w, res, endToEndSpecs)
		return res, nil
	}

	// Two untraced and two traced windows, interleaved so that drift over
	// the run falls on both sides of the overhead figure alike. Windows end
	// on call boundaries and so run over; an eighth each leaves the whole
	// traced pass near -seconds.
	part := opts.seconds / 8
	tr := newTracer()
	var ref, win *window
	windows := 4
	if opts.quick {
		windows = 2
	}
	for i := 0; i < windows; i++ {
		side, t := &ref, (*tracer)(nil)
		if i%2 == 1 {
			side, t = &win, tr
		}
		got, err := inst.run(part, t)
		if err != nil {
			return nil, fmt.Errorf("%s window %d: %w", wl.name, i, err)
		}
		res.absorb(got.attempted, got.failed, got.checks)
		*side = mergeWindows(*side, got)
	}
	layers, err := inst.layers(opts.seconds/3, win, tr)
	if err != nil {
		return nil, fmt.Errorf("%s layers: %w", wl.name, err)
	}
	for name, v := range win.native {
		layers[name] = v
	}
	if win.steps > 0 {
		layers["runtime.alloc_bytes_per_step"] = float64(win.allocBytes) / float64(win.steps)
	}
	layers["runtime.gc_pause_ms"] = win.gcPauseMS
	if r := ref.epochsPerSec(); r > 0 {
		layers["trace_overhead_pct"] = 100 * (r - win.epochsPerSec()) / r
	}
	layers["host.slowdown"] = win.slowdown()
	for name := range layers {
		if _, ok := perLayerByName[name]; !ok {
			return nil, fmt.Errorf("%s emitted undeclared per-layer metric %q", wl.name, name)
		}
	}
	for _, spec := range perLayerSpecs {
		res.Metrics[spec.Name] = metric{Value: layers[spec.Name], Unit: spec.Unit}
	}
	printMetrics(w, res, perLayerSpecs)
	printLayerTable(w, inst.traceRoot(), layerTable(tr.spans, inst.traceRoot()))
	path := filepath.Join(opts.outDir, "trace-"+wl.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "trace: %s (%d spans)\n", path, len(tr.spans))
	return res, nil
}

// absorb folds operation counts and output checks into the run: a failed
// check counts as a failed operation, and any failure makes the run
// incorrect.
func (r *result) absorb(attempted, failed int, c checks) {
	r.Attempted += attempted + c.made
	r.Failed += failed + c.bad
	r.Problems = append(r.Problems, c.problems...)
	r.Correct = r.Failed == 0
}

// endToEnd derives every end-to-end metric from the timed window. The
// definitions are the same on every workload; README.md says what an
// epoch, a call and a target are on each. Every figure is calibrated by
// the window's host slowdown (see calibrate.go): timings are divided by
// it, the rate multiplied.
func (r *result) endToEnd(win *window, setup float64, setupN int) {
	slow := win.slowdown()
	r.Slowdown = slow
	put := func(name string, v float64, n int) {
		r.Metrics[name] = metric{Value: v, Unit: endToEndByName[name].Unit}
		r.Samples[name] = n
	}
	put("setup_s", setup, setupN)
	put("epochs_per_s", win.epochsPerSec(), win.epochs)
	gaps := sorted(win.epochGapMS)
	put("epoch_ms_p50", percentile(gaps, 50)/slow, len(gaps))
	put("epoch_ms_p90", percentile(gaps, 90)/slow, len(gaps))
	put("first_epoch_ms_p50", median(win.firstEpochMS)/slow, len(win.firstEpochMS))
	put("time_to_target_s", mean(win.targetS)/slow, len(win.targetS))
}

func printMetrics(w io.Writer, r *result, specs []metricSpec) {
	zero := 0
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			continue
		}
		if r.Trace && m.Value == 0 {
			zero++ // a layer that is not on this workload's path
			continue
		}
		n := ""
		if c, ok := r.Samples[s.Name]; ok {
			n = fmt.Sprintf("  n=%d", c)
			if p := tailPercentile(c); s.Name == "epoch_ms_p90" && p < 90 {
				n += fmt.Sprintf(" (rule: p%g has 10 beyond)", p)
			}
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", s.Name, m.Value, m.Unit, n)
	}
	if !r.Trace {
		fmt.Fprintf(w, "  calibrated by host slowdown %.3f (raw wall clock = timings x it, rate / it)\n", r.Slowdown)
	}
	if zero > 0 {
		fmt.Fprintf(w, "  (%d per-layer metrics read 0: their layer is not on this workload's path)\n", zero)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", r.Attempted, r.Failed)
}

func printLayerTable(w io.Writer, root string, rows []layerRow) {
	fmt.Fprintf(w, "  layers of one %s:\n", root)
	fmt.Fprintf(w, "  %-12s %8s %12s %12s %7s\n", "layer", "calls", "busy_ms", "self_ms", "share")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-12s %8d %12.3f %12.3f %6.1f%%\n", row.Layer, row.Calls, row.BusyMS, row.SelfMS, 100*row.Share)
	}
}

// resultSet is the on-disk form -out appends to and -compare reads: the
// host shape once, then every run.
type resultSet struct {
	Host Host      `json:"host"`
	Runs []*result `json:"runs"`
}

func appendResults(path string, host Host, results []*result) error {
	set := resultSet{Host: host}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if set.Host != host {
			return fmt.Errorf("%s: %w: file has %+v, this host is %+v", path, ErrHostMismatch, set.Host, host)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	set.Runs = append(set.Runs, results...)
	out, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}
