package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	rt "cannikin/internal/runtime"
)

// The percentile rule: report the highest percentile that still has at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileAndSpread(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(asc, 50); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(asc, 90); got < 9.09 || got > 9.11 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got, want := spread(asc), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 || percentile(nil, 50) != 0 {
		t.Error("degenerate inputs must read 0")
	}
}

// A parent's self time subtracts the union of its children, so children
// that overlap each other (parallel workers) are counted once and children
// that stick out of the parent are clipped.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	u := time.Millisecond
	spans := []span{
		{Name: "step", ID: 0, Parent: -1, Start: 0, End: 100 * u},
		{Name: "nn.forward", ID: 1, Parent: 0, Start: 10 * u, End: 50 * u},
		{Name: "nn.forward", ID: 2, Parent: 0, Start: 30 * u, End: 70 * u},        // overlaps span 1
		{Name: "allreduce.reduce", ID: 3, Parent: 0, Start: 90 * u, End: 120 * u}, // sticks out
		{Name: "tensor.matmul", ID: 4, Parent: 1, Start: 20 * u, End: 30 * u},
		{Name: "open", ID: 5, Parent: 0, Start: 5 * u, End: -1}, // never closed
	}
	self := selfTimes(spans)
	// Children cover [10,70] and [90,100]: 70 of the parent's 100.
	for id, want := range []time.Duration{30 * u, 30 * u, 40 * u, 30 * u, 10 * u, 0} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
	rows := layerTable(spans, "step")
	byLayer := map[string]layerRow{}
	share := 0.0
	for _, r := range rows {
		byLayer[r.Layer] = r
		share += r.Share
	}
	if r := byLayer["nn"]; r.Calls != 2 || r.BusyMS != 80 || r.SelfMS != 70 {
		t.Errorf("nn row = %+v", r)
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("shares sum to %v, want 1", share)
	}
	if rows := layerTable(spans, "job"); len(rows) != 0 {
		t.Errorf("no tree is rooted at a job, got %+v", rows)
	}
}

func TestCommExposedFloors(t *testing.T) {
	hidden := rt.Sample{Pre: 1, Backprop: 4, LastBucketDone: 4.5}
	if got := commExposed(hidden); got != 0 {
		t.Errorf("communication that ends inside backprop is hidden, got %v", got)
	}
	late := rt.Sample{Pre: 1, Backprop: 4, LastBucketDone: 5.25}
	if got := commExposed(late); got != 0.25 {
		t.Errorf("exposed = %v, want 0.25", got)
	}
}

// Calibration divides timings by the mean probe time over nominal; a
// window without probes is left alone.
func TestSlowdown(t *testing.T) {
	if got := (&speed{}).slowdown(); got != 1 {
		t.Errorf("no probes: slowdown %v, want 1", got)
	}
	s := &speed{probes: 4, probeSum: 4 * probeNominal * 12 / 10}
	if got := s.slowdown(); got < 1.199 || got > 1.201 {
		t.Errorf("probes 20%% slower than nominal: slowdown %v, want 1.2", got)
	}
	w := &window{wall: 2, epochs: 10, speed: *s}
	if got := w.epochsPerSec(); got < 5.99 || got > 6.01 {
		t.Errorf("10 epochs in 2 s on a host running 1.2x slow: %v epochs/s, want 6", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "epoch_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "epochs_per_s", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"slower inside bound", lower, steady(100), steady(109), verdictOK},
		{"slower past bound", lower, steady(100), steady(111), verdictWorse},
		{"faster is never worse", lower, steady(100), steady(50), verdictOK},
		{"throughput drop past bound", higher, steady(100), steady(89), verdictWorse},
		{"throughput gain", higher, steady(100), steady(150), verdictOK},
		{"spread wider than bound", lower, []float64{80, 90, 100, 110, 120, 130}, steady(100), verdictUnresolved},
	} {
		if got, _ := judge(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host Host) string {
		path := filepath.Join(dir, name)
		run := &result{Workload: "plan_sim", Correct: true, Metrics: map[string]metric{"epochs_per_s": {Value: 90, Unit: "1/s"}}}
		if err := appendResults(path, host, []*result{run, run}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := Host{NProc: 2, GoMaxProcs: 2, GoVersion: "go1.24.0", CPUModel: "x"}
	a, b := write("a.json", here), write("b.json", here)
	if err := compareFiles(io.Discard, a, b); err != nil {
		t.Errorf("same host, same numbers: %v", err)
	}
	other := here
	other.NProc = 8
	c := write("c.json", other)
	if err := compareFiles(io.Discard, a, c); !errors.Is(err, ErrHostMismatch) {
		t.Errorf("compare across host shapes: got %v, want ErrHostMismatch", err)
	}
	if err := appendResults(a, other, nil); !errors.Is(err, ErrHostMismatch) {
		t.Errorf("append across host shapes: got %v, want ErrHostMismatch", err)
	}
}

// generatedInputs serialises the first n inputs of every generator; the
// determinism test compares these bytes across seeds.
func generatedInputs(seed uint64, n int) []byte {
	type dump struct {
		MLP  map[string][]uint64
		Jobs []json.RawMessage
		Sims []string
	}
	d := dump{MLP: map[string][]uint64{}}
	for name := range mlpShapes {
		for i := 0; i < n; i++ {
			d.MLP[name] = append(d.MLP[name], mlpCall(name, seed, i).Seed)
		}
	}
	for i := 0; i < n; i++ {
		d.Jobs = append(d.Jobs, jobBody(seed, i))
		run := simRun(seed, i)
		d.Sims = append(d.Sims, fmt.Sprintf("%s %s %d", run.Cluster.Preset, run.Workload, run.Seed))
	}
	out, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return out
}

// The same seed yields byte-identical generated inputs; another seed does
// not.
func TestGeneratedInputsDeterministic(t *testing.T) {
	a, b := generatedInputs(DefaultSeed, 12), generatedInputs(DefaultSeed, 12)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed generated different inputs")
	}
	if bytes.Equal(a, generatedInputs(HoldoutSeed, 12)) {
		t.Fatal("different seeds generated identical inputs")
	}
	if tcp, comm := mlpCall("mlp_tcp", 3, 5), mlpCall("mlp_comm", 3, 5); tcp.Seed != comm.Seed {
		t.Error("mlp_tcp and mlp_comm must train the same inputs")
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this package emits, with the same units and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, doc.Workloads[i], wl.name, wl.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEndSpecs) || len(doc.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(doc.EndToEnd), len(endToEndSpecs), len(doc.PerLayer), len(perLayerSpecs))
	}
	for i, s := range endToEndSpecs {
		if got := (metricSpec{doc.EndToEnd[i].Name, doc.EndToEnd[i].Unit, doc.EndToEnd[i].Better, doc.EndToEnd[i].Bound}); got != s {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, got, s)
		}
	}
	for i, s := range perLayerSpecs {
		if got := (metricSpec{doc.PerLayer[i].Name, doc.PerLayer[i].Unit, doc.PerLayer[i].Better, 0}); got != s {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, got, s)
		}
	}
}

// TestBenchSmoke drives every workload through the harness in its quick
// shape, untraced and traced, with the output checks on.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	dir := t.TempDir()
	set := filepath.Join(dir, "set.json")
	for _, wl := range workloads {
		if _, mlp := mlpShapes[wl.name]; mlp && raceDetector {
			// The race detector slows the GEMMs tenfold: one quick mlp_tcp
			// pass alone takes two minutes under it.
			continue
		}
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			err := run([]string{"-quick", "-workload", wl.name, "-seconds", "0.4", "-trace", trace, "-trace-dir", dir, "-out", set}, &out)
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", wl.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", wl.name, err)
			}
			want := endToEndSpecs
			if trace == "1" {
				want = perLayerSpecs
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 || len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d metrics=%d (want %d)",
					wl.name, trace, last.Correct, last.Attempted, last.Failed, len(last.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := last.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%s: metric %s missing or unit %q != %q", wl.name, trace, s.Name, m.Unit, s.Unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, s.Name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+wl.name+".json")); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", wl.name, err)
		}
	}
	// The set the runs were appended to compares clean against itself.
	if err := compareFiles(io.Discard, set, set); err != nil {
		t.Errorf("comparing the smoke set with itself: %v", err)
	}
}
