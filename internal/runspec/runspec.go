// Package runspec is the single parsed configuration behind the cannikin
// command-line tools. One Spec describes a run completely — simulated
// cluster or real MLP training, fault mini-DSL, chaos, and the transport
// wiring of a multi-process ring — and can come from flags, from a JSON
// file (-spec run.json), or both: flags set explicitly on the command line
// override the file, so `cannikin -spec run.json -rank 2` runs rank 2 of a
// shared spec.
//
// The package is deliberately dependency-light (stdlib only): the cmds
// translate a Spec into the public cannikin API, not the other way around.
package runspec

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Fault is one scheduled fault event of the -fault mini-DSL
// ("kind:worker@step[:arg]"). Kind is one of "kill", "stall", "delay",
// "drop"; Delay carries the stall/delay duration and Count the drop count.
type Fault struct {
	Kind   string        `json:"kind"`
	Worker int           `json:"worker"`
	Step   int           `json:"step"`
	Delay  time.Duration `json:"delay,omitempty"`
	Count  int           `json:"count,omitempty"`
}

// JoinEntry is one scheduled worker hot-join of the -join mini-DSL
// ("epoch:batch[:replan]"): the cluster grows by one worker with the given
// local batch at that epoch boundary. Replan is "keep" (default, empty) or
// "optperf".
type JoinEntry struct {
	Epoch  int    `json:"epoch"`
	Batch  int    `json:"batch"`
	Replan string `json:"replan,omitempty"`
}

// Spec is the full run configuration. JSON field names double as the file
// format; zero values mean "use the default".
type Spec struct {
	// Simulated-cluster mode.
	Cluster  string   `json:"cluster,omitempty"`
	Models   []string `json:"models,omitempty"`
	Workload string   `json:"workload,omitempty"`
	System   string   `json:"system,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Epochs   int      `json:"epochs,omitempty"`
	Batch    int      `json:"batch,omitempty"`
	Chaos    float64  `json:"chaos,omitempty"`
	Audit    string   `json:"audit,omitempty"`
	Progress bool     `json:"progress,omitempty"`
	CSV      bool     `json:"csv,omitempty"`

	// Real MLP training mode.
	MLP         bool    `json:"mlp,omitempty"`
	Backend     string  `json:"backend,omitempty"`
	MLPBatches  []int   `json:"mlp_batches,omitempty"`
	BucketBytes int     `json:"bucket_bytes,omitempty"`
	Allreduce   string  `json:"allreduce,omitempty"`
	Faults      []Fault `json:"faults,omitempty"`
	FaultReplan string  `json:"fault_replan,omitempty"`

	// Elastic membership (MLP mode). Joins schedules worker hot-joins at
	// epoch boundaries; the Autoscale* knobs enable the goodput-driven
	// autoscaler. Resume derives the run's randomness from the seed's
	// child stream with that label ("join-<n>" / "recovery-<n>"), and
	// CheckpointIn/CheckpointOut are the weight+velocity handoff files a
	// generational multi-process join uses between memberships.
	Joins           []JoinEntry `json:"joins,omitempty"`
	AutoscaleMax    int         `json:"autoscale_max,omitempty"`
	AutoscaleMin    int         `json:"autoscale_min,omitempty"`
	AutoscaleGrow   float64     `json:"autoscale_grow,omitempty"`
	AutoscaleShrink float64     `json:"autoscale_shrink,omitempty"`
	AutoscaleBatch  int         `json:"autoscale_batch,omitempty"`
	Resume          string      `json:"resume,omitempty"`
	CheckpointIn    string      `json:"checkpoint_in,omitempty"`
	CheckpointOut   string      `json:"checkpoint_out,omitempty"`

	// Ring transport wiring (MLP mode). Transport "chan" runs all workers
	// in one process over channels; "tcp" spans one OS process per rank.
	// Peers lists every rank's address: set, the process is rank Rank of
	// that ring (listening on Listen, if given); empty, it is the
	// coordinator, which reserves localhost ports and starts the ranks.
	Transport string   `json:"transport,omitempty"`
	Rank      int      `json:"rank,omitempty"`
	Peers     []string `json:"peers,omitempty"`
	Listen    string   `json:"listen,omitempty"`
	Guard     bool     `json:"guard,omitempty"`
}

// Default returns the Spec matching the historical flag defaults.
func Default() *Spec {
	return &Spec{
		Cluster:    "a",
		Workload:   "cifar10",
		System:     "cannikin",
		Seed:       1,
		Backend:    "sim",
		MLPBatches: []int{16, 8, 4},
		Transport:  TransportChan,
	}
}

// Transport names accepted by Spec.Transport.
const (
	TransportChan = "chan"
	TransportTCP  = "tcp"
)

// Load reads a Spec from a JSON file. Unknown fields are rejected, so a
// typo in a spec file fails loudly instead of silently running defaults.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("runspec: %s: %w", path, err)
	}
	return s, nil
}

// Decode reads a Spec from JSON on r with exactly Load's semantics — the
// defaults as the base, unknown fields rejected, nothing but whitespace
// after the spec object — so an HTTP request body and a -spec file parse
// identically.
func Decode(r io.Reader) (*Spec, error) {
	s := Default()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("decode spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return nil, fmt.Errorf("decode spec: trailing data after the spec object: %w", err)
	}
	return s, nil
}

// Save writes the Spec as indented JSON — the coordinator uses it to hand
// one shared spec file to every worker process.
func (s *Spec) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("runspec: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ParseFaults parses the -fault mini-DSL: comma-separated events of the
// form "kind:worker@step[:arg]". The arg is a duration for stall/delay and
// a count for drop; kill takes none.
func ParseFaults(spec string) ([]Fault, error) {
	if spec == "" {
		return nil, nil
	}
	var out []Fault
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		kind, rest, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("bad fault %q: want kind:worker@step[:arg]", item)
		}
		target, arg, hasArg := strings.Cut(rest, ":")
		workerStr, stepStr, ok := strings.Cut(target, "@")
		if !ok {
			return nil, fmt.Errorf("bad fault %q: missing @step", item)
		}
		worker, err := strconv.Atoi(workerStr)
		if err != nil {
			return nil, fmt.Errorf("bad fault %q: worker %q", item, workerStr)
		}
		step, err := strconv.Atoi(stepStr)
		if err != nil {
			return nil, fmt.Errorf("bad fault %q: step %q", item, stepStr)
		}
		f := Fault{Kind: kind, Worker: worker, Step: step}
		switch kind {
		case "kill":
			if hasArg {
				return nil, fmt.Errorf("bad fault %q: kill takes no argument", item)
			}
		case "stall", "delay":
			if !hasArg {
				return nil, fmt.Errorf("bad fault %q: %s needs a duration argument", item, kind)
			}
			if f.Delay, err = time.ParseDuration(arg); err != nil || f.Delay <= 0 {
				return nil, fmt.Errorf("bad fault %q: duration %q", item, arg)
			}
		case "drop":
			f.Count = 1
			if hasArg {
				if f.Count, err = strconv.Atoi(arg); err != nil || f.Count < 1 {
					return nil, fmt.Errorf("bad fault %q: drop count %q", item, arg)
				}
			}
		default:
			return nil, fmt.Errorf("bad fault %q: unknown kind %q (want kill, stall, delay, drop)", item, kind)
		}
		out = append(out, f)
	}
	return out, nil
}

// FormatFaults renders events back into the canonical mini-DSL;
// ParseFaults(FormatFaults(fs)) round-trips exactly.
func FormatFaults(fs []Fault) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		s := fmt.Sprintf("%s:%d@%d", f.Kind, f.Worker, f.Step)
		switch f.Kind {
		case "stall", "delay":
			s += ":" + f.Delay.String()
		case "drop":
			if f.Count != 1 {
				s += ":" + strconv.Itoa(f.Count)
			}
		}
		parts[i] = s
	}
	return strings.Join(parts, ",")
}

// ParseJoins parses the -join mini-DSL: comma-separated hot-joins of the
// form "epoch:batch[:replan]", e.g. "1:8,3:4:optperf".
func ParseJoins(spec string) ([]JoinEntry, error) {
	if spec == "" {
		return nil, nil
	}
	var out []JoinEntry
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		parts := strings.Split(item, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad join %q: want epoch:batch[:replan]", item)
		}
		epoch, err := strconv.Atoi(parts[0])
		if err != nil || epoch < 1 {
			return nil, fmt.Errorf("bad join %q: epoch %q", item, parts[0])
		}
		batch, err := strconv.Atoi(parts[1])
		if err != nil || batch < 1 {
			return nil, fmt.Errorf("bad join %q: batch %q", item, parts[1])
		}
		j := JoinEntry{Epoch: epoch, Batch: batch}
		if len(parts) == 3 {
			switch parts[2] {
			case "keep", "optperf":
				j.Replan = parts[2]
			default:
				return nil, fmt.Errorf("bad join %q: replan %q (want keep or optperf)", item, parts[2])
			}
		}
		out = append(out, j)
	}
	return out, nil
}

// FormatJoins renders joins back into the canonical mini-DSL;
// ParseJoins(FormatJoins(js)) round-trips exactly.
func FormatJoins(js []JoinEntry) string {
	parts := make([]string, len(js))
	for i, j := range js {
		s := fmt.Sprintf("%d:%d", j.Epoch, j.Batch)
		if j.Replan != "" && j.Replan != "keep" {
			s += ":" + j.Replan
		}
		parts[i] = s
	}
	return strings.Join(parts, ",")
}

// Binding connects a FlagSet to a Spec: every flag writes into the bound
// Spec, and Resolve applies the flag-over-file precedence when -spec names
// a JSON file.
type Binding struct {
	fs       *flag.FlagSet
	flat     *Spec
	specPath string
}

// Register installs the full Spec flag surface (plus -spec itself) on fs,
// returning the binding to Resolve after fs.Parse.
func Register(fs *flag.FlagSet) *Binding {
	b := &Binding{fs: fs, flat: Default()}
	fs.StringVar(&b.specPath, "spec", "", "JSON run-spec file; explicit flags override its fields")
	registerFlags(fs, b.flat)
	return b
}

// registerFlags binds one flag per Spec field to s, with s's current values
// as the defaults.
func registerFlags(fs *flag.FlagSet, s *Spec) {
	str := func(name string, p *string, usage string) { fs.StringVar(p, name, *p, usage) }
	boolf := func(name string, p *bool, usage string) { fs.BoolVar(p, name, *p, usage) }
	intf := func(name string, p *int, usage string) { fs.IntVar(p, name, *p, usage) }

	str("cluster", &s.Cluster, `cluster preset: "a", "b", or "c"`)
	fs.Var(&commaStrings{&s.Models}, "models", "comma-separated GPU models for a custom cluster (overrides -cluster)")
	str("workload", &s.Workload, "workload name (see -list)")
	str("system", &s.System, "training system: cannikin, adaptdl, lb-bsp, pytorch-ddp, hetpipe")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "random seed")
	intf("epochs", &s.Epochs, "epoch cap (0 = run to convergence; MLP default 10)")
	intf("batch", &s.Batch, "fixed total batch size (0 = adaptive/default)")
	fs.Float64Var(&s.Chaos, "chaos", s.Chaos, "per-epoch probability of a random resource perturbation, in (0, 1]")
	str("audit", &s.Audit, `verify OptPerf plans against the paper's optimality invariants: "advisory" or "strict"`)
	boolf("progress", &s.Progress, "stream each epoch as it completes")
	boolf("csv", &s.CSV, "emit the epoch trace as CSV")

	boolf("mlp", &s.MLP, "train the real MLP across data-parallel workers instead of the simulated workload")
	str("backend", &s.Backend, `MLP execution engine: "sim" (sequential reference) or "live" (concurrent workers, overlapped ring all-reduce, wall-clock profile)`)
	fs.Var(&commaInts{&s.MLPBatches}, "mlp-batches", "comma-separated per-worker local batch sizes for -mlp")
	intf("bucket-bytes", &s.BucketBytes, "gradient bucket cap in bytes for -mlp (0 = DDP's 25 MB default)")
	str("allreduce", &s.Allreduce, `collective algorithm for -mlp gradient buckets: "ring" (default), "hd" (recursive halving-doubling), or "auto" (hd for buckets up to 128 KiB, ring above)`)
	fs.Var(&faultsValue{&s.Faults}, "fault", `inject deterministic faults into the live MLP run: comma-separated events "kind:worker@step[:arg]" with kinds kill, stall (arg = duration), delay (arg = duration), drop (arg = count), e.g. "stall:0@3:40ms,kill:1@8"`)
	str("fault-replan", &s.FaultReplan, `survivor batch policy after an eviction: "keep" (default) or "optperf"`)

	fs.Var(&joinsValue{&s.Joins}, "join", `schedule worker hot-joins into the live MLP run: comma-separated "epoch:batch[:replan]" entries (replan: keep or optperf), e.g. "1:8,3:4:optperf"`)
	intf("autoscale-max", &s.AutoscaleMax, "enable the goodput-driven autoscaler with this membership ceiling (0 = off)")
	intf("autoscale-min", &s.AutoscaleMin, "autoscaler membership floor (0 = never shrink below the initial membership's minimum of 1)")
	fs.Float64Var(&s.AutoscaleGrow, "autoscale-grow", s.AutoscaleGrow, "minimum fractional predicted-goodput gain before the autoscaler admits a worker (0 = default 0.05)")
	fs.Float64Var(&s.AutoscaleShrink, "autoscale-shrink", s.AutoscaleShrink, "maximum fractional predicted-goodput loss at which the autoscaler evicts the slowest worker (0 = never shrink)")
	intf("autoscale-batch", &s.AutoscaleBatch, "local batch granted to autoscaler-admitted workers (0 = smallest incumbent batch)")
	str("resume", &s.Resume, `derive the run's randomness from the seed's child stream with this label (e.g. "join-1"), matching an elastic run's post-join incarnation`)
	str("checkpoint-in", &s.CheckpointIn, "load initial weights and optimizer velocity from this checkpoint file")
	str("checkpoint-out", &s.CheckpointOut, "write final weights and optimizer velocity to this checkpoint file (rank 0 only under tcp)")

	str("transport", &s.Transport, `ring transport for -mlp: "chan" (in-process) or "tcp" (one OS process per worker over real sockets)`)
	intf("rank", &s.Rank, "this process's ring rank (with -peers)")
	fs.Var(&commaStrings{&s.Peers}, "peers", "comma-separated host:port of every rank, in rank order: this process runs rank -rank of that ring (empty = coordinator: reserves localhost ports and starts every rank)")
	str("listen", &s.Listen, "listen address override for this rank (default: peers[rank])")
	boolf("guard", &s.Guard, "run every ring hop under per-hop deadlines, so a stalled peer fails the run with blame")
}

// Resolve returns the final Spec after fs.Parse: the flag-built Spec when
// no -spec file was named, otherwise the file's Spec with every explicitly
// set flag replayed over it.
func (b *Binding) Resolve() (*Spec, error) {
	if b.specPath == "" {
		return b.flat, nil
	}
	s, err := Load(b.specPath)
	if err != nil {
		return nil, err
	}
	over := flag.NewFlagSet("", flag.ContinueOnError)
	registerFlags(over, s)
	b.fs.Visit(func(f *flag.Flag) {
		// -spec itself, and flags the command registered beside the Spec's,
		// are not Spec fields.
		if over.Lookup(f.Name) != nil && err == nil {
			err = over.Set(f.Name, f.Value.String())
		}
	})
	if err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	return s, nil
}

// commaInts is a flag.Value for "16,8,4"-style int lists.
type commaInts struct{ p *[]int }

func (v *commaInts) String() string {
	if v.p == nil || *v.p == nil {
		return ""
	}
	parts := make([]string, len(*v.p))
	for i, x := range *v.p {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func (v *commaInts) Set(s string) error {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		b, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || b < 1 {
			return fmt.Errorf("bad local batch %q in %q", p, s)
		}
		out = append(out, b)
	}
	*v.p = out
	return nil
}

// commaStrings is a flag.Value for comma-separated string lists.
type commaStrings struct{ p *[]string }

func (v *commaStrings) String() string {
	if v.p == nil || *v.p == nil {
		return ""
	}
	return strings.Join(*v.p, ",")
}

func (v *commaStrings) Set(s string) error {
	if s == "" {
		*v.p = nil
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	*v.p = parts
	return nil
}

// joinsValue is a flag.Value speaking the join mini-DSL.
type joinsValue struct{ p *[]JoinEntry }

func (v *joinsValue) String() string {
	if v.p == nil {
		return ""
	}
	return FormatJoins(*v.p)
}

func (v *joinsValue) Set(s string) error {
	js, err := ParseJoins(s)
	if err != nil {
		return err
	}
	*v.p = js
	return nil
}

// faultsValue is a flag.Value speaking the fault mini-DSL.
type faultsValue struct{ p *[]Fault }

func (v *faultsValue) String() string {
	if v.p == nil {
		return ""
	}
	return FormatFaults(*v.p)
}

func (v *faultsValue) Set(s string) error {
	fs, err := ParseFaults(s)
	if err != nil {
		return err
	}
	*v.p = fs
	return nil
}
