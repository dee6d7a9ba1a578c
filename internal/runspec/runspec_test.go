package runspec

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFaultDSLRoundTrip(t *testing.T) {
	faults := []Fault{
		{Kind: "stall", Worker: 0, Step: 3, Delay: 40 * time.Millisecond},
		{Kind: "kill", Worker: 1, Step: 8},
		{Kind: "drop", Worker: 2, Step: 5, Count: 3},
		{Kind: "drop", Worker: 0, Step: 1, Count: 1},
		{Kind: "delay", Worker: 1, Step: 2, Delay: 10 * time.Millisecond},
	}
	dsl := FormatFaults(faults)
	if want := "stall:0@3:40ms,kill:1@8,drop:2@5:3,drop:0@1,delay:1@2:10ms"; dsl != want {
		t.Fatalf("FormatFaults = %q, want %q", dsl, want)
	}
	back, err := ParseFaults(dsl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, faults) {
		t.Fatalf("round trip: %+v != %+v", back, faults)
	}
	// Whitespace-tolerant parse, canonical re-format.
	loose, err := ParseFaults(" stall:0@3:40ms , kill:1@8 ")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatFaults(loose); got != "stall:0@3:40ms,kill:1@8" {
		t.Fatalf("canonical format = %q", got)
	}
}

func TestFaultDSLRejects(t *testing.T) {
	for _, bad := range []string{
		"kill", "kill:1", "kill:one@2", "kill:1@two", "kill:1@2:5ms",
		"stall:1@2", "stall:1@2:bogus", "stall:1@2:-5ms",
		"drop:1@2:0", "meteor:1@2",
	} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestJoinDSLRoundTrip(t *testing.T) {
	joins := []JoinEntry{
		{Epoch: 1, Batch: 8},
		{Epoch: 3, Batch: 4, Replan: "optperf"},
		{Epoch: 3, Batch: 2, Replan: "keep"},
	}
	dsl := FormatJoins(joins)
	if want := "1:8,3:4:optperf,3:2"; dsl != want {
		t.Fatalf("FormatJoins = %q, want %q", dsl, want)
	}
	back, err := ParseJoins(dsl)
	if err != nil {
		t.Fatal(err)
	}
	// "keep" canonicalizes to the empty default through the text form.
	want := []JoinEntry{{Epoch: 1, Batch: 8}, {Epoch: 3, Batch: 4, Replan: "optperf"}, {Epoch: 3, Batch: 2}}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip: %+v != %+v", back, want)
	}
	loose, err := ParseJoins(" 1:8 , 2:4:keep ")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatJoins(loose); got != "1:8,2:4" {
		t.Fatalf("canonical format = %q", got)
	}
	if js, err := ParseJoins(""); err != nil || js != nil {
		t.Fatalf("empty join spec: %v, %v", js, err)
	}
}

func TestJoinDSLRejects(t *testing.T) {
	for _, bad := range []string{
		"1", "1:", ":8", "one:8", "1:eight", "0:8", "-1:8", "1:0",
		"1:8:bogus", "1:8:optperf:extra", "1:8,,2:4",
	} {
		if _, err := ParseJoins(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func fullSpec() *Spec {
	return &Spec{
		Cluster: "b", Models: []string{"H100", "P100"}, Workload: "imagenet",
		System: "adaptdl", Seed: 7, Epochs: 12, Batch: 256, Chaos: 0.3,
		Audit: "strict", Progress: true, CSV: true,
		MLP: true, Backend: "live", MLPBatches: []int{8, 4, 2},
		BucketBytes:  2048,
		Faults:       []Fault{{Kind: "stall", Worker: 1, Step: 4, Delay: 20 * time.Millisecond}},
		FaultReplan:  "optperf",
		Joins:        []JoinEntry{{Epoch: 2, Batch: 8}, {Epoch: 5, Batch: 4, Replan: "optperf"}},
		AutoscaleMax: 6, AutoscaleMin: 2, AutoscaleGrow: 0.1, AutoscaleShrink: 0.02, AutoscaleBatch: 4,
		Resume: "join-1", CheckpointIn: "/tmp/in.ckpt", CheckpointOut: "/tmp/out.ckpt",
		Transport: TransportTCP, Rank: 2,
		Peers:  []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"},
		Listen: "0.0.0.0:9003", Guard: true, WorkerBin: "/tmp/worker",
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	want := fullSpec()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	for _, body := range []string{`{"mlp": true, "transprot": "tcp"}`, `{"mlp": true, "comm": "merged"}`,
		`{"mlp": true, "link_alpha": 1e-6}`, `{"mlp": true, "link_beta": 1e-9}`} {
		if err := writeFile(path, body); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("unknown field accepted: %s", body)
		}
	}
}

func TestFlagsAlone(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	b := Register(fs)
	err := fs.Parse([]string{
		"-mlp", "-backend", "live", "-mlp-batches", "8,4",
		"-transport", "tcp", "-peers", "h1:1,h2:2", "-rank", "1",
		"-guard",
		"-fault", "kill:0@2,stall:1@3:5ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !s.MLP || s.Backend != "live" || !reflect.DeepEqual(s.MLPBatches, []int{8, 4}) {
		t.Fatalf("mlp flags: %+v", s)
	}
	if s.Transport != TransportTCP || s.Rank != 1 || !reflect.DeepEqual(s.Peers, []string{"h1:1", "h2:2"}) {
		t.Fatalf("transport flags: %+v", s)
	}
	if !s.Guard {
		t.Fatalf("guard flag: %+v", s)
	}
	if len(s.Faults) != 2 || s.Faults[0].Kind != "kill" || s.Faults[1].Delay != 5*time.Millisecond {
		t.Fatalf("faults: %+v", s.Faults)
	}
	// Untouched fields keep their defaults.
	if s.Cluster != "a" || s.Seed != 1 || s.System != "cannikin" {
		t.Fatalf("defaults clobbered: %+v", s)
	}

	// The goroutine layout is not a flag: the live engine picks it from the
	// cores the process can use. Nor are link constants: auto is a size rule.
	for _, gone := range [][]string{{"-comm", "merged"}, {"-link-alpha", "1e-6"}} {
		fs = flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		if err := fs.Parse(append([]string{"-mlp"}, gone...)); err == nil || !strings.Contains(err.Error(), gone[0]) {
			t.Fatalf("%s: err = %v, want flag provided but not defined", gone[0], err)
		}
	}
}

// TestEveryFlagOverridesSpecFile replays one explicitly-set flag of every
// value type — and every Spec field — over an empty spec file: flag-over-file
// precedence is a replay of the visited flags' text, so each flag.Value's
// String must be a text its Set accepts and reads back unchanged.
func TestEveryFlagOverridesSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeFile(path, `{}`); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	b := Register(fs)
	err := fs.Parse([]string{"-spec", path,
		"-cluster", "b", "-models", "H100,P100", "-workload", "imagenet", "-system", "adaptdl",
		"-seed", "7", "-epochs", "12", "-batch", "256", "-chaos", "0.3", "-audit", "strict", "-progress", "-csv",
		"-mlp", "-backend", "live", "-mlp-batches", "8,4,2", "-bucket-bytes", "2048",
		"-allreduce", "hd", "-fault", "stall:1@4:20ms", "-fault-replan", "optperf",
		"-join", "2:8,5:4:optperf", "-autoscale-max", "6", "-autoscale-min", "2", "-autoscale-grow", "0.1",
		"-autoscale-shrink", "0.02", "-autoscale-batch", "4", "-resume", "join-1",
		"-checkpoint-in", "/tmp/in.ckpt", "-checkpoint-out", "/tmp/out.ckpt",
		"-transport", "tcp", "-rank", "2", "-peers", "127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003",
		"-listen", "0.0.0.0:9003", "-guard", "-worker-bin", "/tmp/worker",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := fullSpec()
	want.Allreduce = "hd"
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("every flag over an empty file:\n got %+v\nwant %+v", got, want)
	}
	set, fields := 0, reflect.TypeOf(Spec{}).NumField()
	fs.Visit(func(*flag.Flag) { set++ })
	if set != fields+1 {
		t.Fatalf("%d flags set for %d Spec fields plus -spec: a field has no flag in this test", set, fields)
	}
}

// TestElasticFlags covers the elastic-membership flag surface: the -join
// mini-DSL, the autoscaler knobs, and the checkpoint/resume handoff — both
// alone and overriding a spec file.
func TestElasticFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	b := Register(fs)
	err := fs.Parse([]string{
		"-mlp", "-backend", "live", "-join", "1:8,3:4:optperf",
		"-autoscale-max", "5", "-autoscale-min", "2",
		"-autoscale-grow", "0.1", "-autoscale-shrink", "0.02", "-autoscale-batch", "4",
		"-resume", "join-1", "-checkpoint-in", "/tmp/a.ckpt", "-checkpoint-out", "/tmp/b.ckpt",
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	wantJoins := []JoinEntry{{Epoch: 1, Batch: 8}, {Epoch: 3, Batch: 4, Replan: "optperf"}}
	if !reflect.DeepEqual(s.Joins, wantJoins) {
		t.Fatalf("joins: %+v", s.Joins)
	}
	if s.AutoscaleMax != 5 || s.AutoscaleMin != 2 || s.AutoscaleGrow != 0.1 ||
		s.AutoscaleShrink != 0.02 || s.AutoscaleBatch != 4 {
		t.Fatalf("autoscale flags: %+v", s)
	}
	if s.Resume != "join-1" || s.CheckpointIn != "/tmp/a.ckpt" || s.CheckpointOut != "/tmp/b.ckpt" {
		t.Fatalf("handoff flags: %+v", s)
	}

	// Explicit flags override the file's elastic fields too.
	base := fullSpec()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := base.Save(path); err != nil {
		t.Fatal(err)
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	b2 := Register(fs2)
	if err := fs2.Parse([]string{"-spec", path, "-join", "4:2", "-autoscale-max", "9", "-resume", ""}); err != nil {
		t.Fatal(err)
	}
	s2, err := b2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2.Joins, []JoinEntry{{Epoch: 4, Batch: 2}}) || s2.AutoscaleMax != 9 || s2.Resume != "" {
		t.Fatalf("flag-over-file: joins %+v max %d resume %q", s2.Joins, s2.AutoscaleMax, s2.Resume)
	}
	// Untouched elastic fields come from the file.
	if s2.AutoscaleMin != base.AutoscaleMin || s2.CheckpointIn != base.CheckpointIn {
		t.Fatalf("file fields lost: %+v", s2)
	}
}

// TestFlagOverridesSpecFile is the precedence contract: a -spec file sets
// the baseline, explicitly-set flags win, untouched fields come from the
// file — which is exactly how the coordinator shares one spec across ranks
// (`cannikin-worker -spec run.json -rank N`).
func TestFlagOverridesSpecFile(t *testing.T) {
	base := fullSpec()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := base.Save(path); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	b := Register(fs)
	if err := fs.Parse([]string{"-spec", path, "-rank", "0", "-seed", "99", "-listen", "0.0.0.0:9000"}); err != nil {
		t.Fatal(err)
	}
	s, err := b.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank != 0 || s.Seed != 99 || s.Listen != "0.0.0.0:9000" {
		t.Fatalf("flags did not override file: %+v", s)
	}
	// Everything else comes from the file.
	if s.Cluster != "b" || !s.MLP || s.Backend != "live" || !s.Guard ||
		!reflect.DeepEqual(s.MLPBatches, []int{8, 4, 2}) ||
		!reflect.DeepEqual(s.Peers, base.Peers) || len(s.Faults) != 1 {
		t.Fatalf("file fields lost: %+v", s)
	}
}

func TestResolveMissingFile(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	b := Register(fs)
	if err := fs.Parse([]string{"-spec", "/nonexistent/run.json"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Resolve(); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestDecodeAppliesDefaults: a sparse request body inherits every default,
// exactly as a sparse -spec file would.
func TestDecodeDefaultsAndStrictness(t *testing.T) {
	got, err := Decode(strings.NewReader(`{"mlp": true, "seed": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.MLP = true
	want.Seed = 9
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode sparse body:\n got %+v\nwant %+v", got, want)
	}

	// A typo and fields that no longer exist (batch_delay went with the
	// send-linger knob, comm with the layout override, link_alpha/link_beta
	// with the α–β selector) are rejected alike.
	for _, body := range []string{`{"mlp": true, "sede": 9}`, `{"mlp": true, "batch_delay": "auto"}`, `{"mlp": true, "comm": "merged"}`,
		`{"mlp": true, "link_alpha": 1e-6}`, `{"mlp": true, "link_beta": 1e-9}`} {
		if _, err := Decode(strings.NewReader(body)); err == nil {
			t.Fatalf("unknown field accepted: %s", body)
		} else if !strings.Contains(err.Error(), "decode spec") {
			t.Fatalf("unknown-field error %q not wrapped as decode spec", err)
		}
	}
	if _, err := Decode(strings.NewReader(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestDecodeFullSpecRoundTrip pins the server submission contract at the
// package level: marshaling a maximal Spec (fault events included) and
// decoding it back is field-identical, so an HTTP body and the spec the
// scheduler echoes can be compared with DeepEqual.
func TestDecodeFullSpecRoundTrip(t *testing.T) {
	want := fullSpec()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode round trip:\n got %+v\nwant %+v", got, want)
	}
	// The fault mini-DSL survives a trip through its own text form too.
	back, err := ParseFaults(FormatFaults(want.Faults))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want.Faults) {
		t.Fatalf("fault DSL round trip: %+v != %+v", back, want.Faults)
	}
}

// TestDecodeRejectsTrailingData: a spec body is one JSON object. A second
// object after it, or any other non-whitespace, is an error — not a spec
// that silently drops the rest — while trailing whitespace (the newline a
// file or an HTTP client ends with) still parses.
func TestDecodeRejectsTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"mlp": true} {"seed": 9}`,
		`{"mlp": true}garbage`,
		`{"mlp": true}}`,
		`{"mlp": true} 7`,
	} {
		if _, err := Decode(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Fatalf("Decode(%q): err = %v, want a trailing-data rejection", body, err)
		}
	}
	for _, body := range []string{"{\"mlp\": true, \"seed\": 9}\n", "{\"mlp\": true, \"seed\": 9} \r\n\t\n"} {
		got, err := Decode(strings.NewReader(body))
		if err != nil {
			t.Fatalf("Decode(%q): %v", body, err)
		}
		if !got.MLP || got.Seed != 9 {
			t.Fatalf("Decode(%q) = %+v", body, got)
		}
	}
}
