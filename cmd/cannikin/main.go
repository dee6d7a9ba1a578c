// Command cannikin trains one workload on a simulated heterogeneous
// cluster with a chosen training system and prints the per-epoch trace.
// With -mlp it trains the real data-parallel MLP instead; -transport tcp
// additionally spans the run across one OS process per worker: without
// -peers this process is the coordinator and starts itself once per rank,
// with -peers it is rank -rank of that TCP ring. -list prints the catalogs
// and the node table of the cluster the flags name.
//
// Every flag can also come from a JSON run-spec file (-spec run.json);
// flags set explicitly on the command line override the file.
//
// Examples:
//
//	cannikin -cluster b -workload cifar10 -system cannikin
//	cannikin -cluster a -workload imagenet -system lb-bsp -batch 128 -epochs 16
//	cannikin -models H100,V100,P100 -workload cifar10 -system cannikin
//	cannikin -cluster a -workload imagenet -chaos 0.3 -progress
//	cannikin -mlp -backend live -mlp-batches 16,8,4 -epochs 5
//	cannikin -mlp -backend live -fault "stall:0@3:40ms,kill:1@8" -fault-replan optperf
//	cannikin -mlp -transport tcp -mlp-batches 8,8,4,4 -epochs 3
//	cannikin -mlp -transport tcp -mlp-batches 8,8,4,4 -peers h0:7000,h1:7000,h2:7000,h3:7000 -rank 1
//	cannikin -spec run.json -rank 2
//	cannikin -list -cluster b -workload imagenet
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"cannikin"

	"cannikin/internal/allreduce"
	"cannikin/internal/cluster"
	"cannikin/internal/rng"
	"cannikin/internal/runspec"
	"cannikin/internal/server"
	"cannikin/internal/trace"
	"cannikin/internal/workload"
)

// selfExe names the binary the coordinator starts once per rank: this
// command's own. Tests that drive run in process point it at a built
// cmd/cannikin, since their own executable is the test binary.
var selfExe = os.Executable

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cannikin:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cannikin", flag.ContinueOnError)
	b := runspec.Register(fs)
	list := fs.Bool("list", false, "list workloads and GPU models, then the nodes of the -cluster (or -models) cluster for -workload, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := b.Resolve()
	if err != nil {
		return err
	}
	if *list {
		return printCatalog(w, spec)
	}
	if spec.MLP {
		switch {
		case spec.Transport != runspec.TransportTCP:
			return runMLP(w, spec)
		case len(spec.Peers) > 0:
			return runMLPRank(w, spec)
		default:
			return runMLPCoordinator(w, spec)
		}
	}
	if len(spec.Faults) > 0 || spec.FaultReplan != "" {
		return fmt.Errorf("-fault requires -mlp -backend live")
	}
	if spec.Transport != "" && spec.Transport != runspec.TransportChan {
		return fmt.Errorf("-transport %s requires -mlp", spec.Transport)
	}

	cfg := server.TrainConfigOf(spec)
	if spec.Progress {
		cfg.OnEpoch = func(e cannikin.EpochReport) error {
			fmt.Fprintf(w, "epoch %3d  batch %4d  step %.4fs  metric %.4f\n",
				e.Epoch, e.TotalBatch, e.AvgBatchTime, e.Metric)
			for _, ev := range e.Events {
				fmt.Fprintf(w, "  chaos: node %d %s %.3g (revert=%v)\n", ev.Node, ev.Kind, ev.Value, ev.Revert)
			}
			if e.Audit != nil {
				for _, f := range e.Audit.Failures {
					fmt.Fprintf(w, "  audit: %s\n", f)
				}
			}
			return nil
		}
	}

	rep, err := cannikin.Train(cfg)
	if err != nil {
		return err
	}

	audited := spec.Audit != ""
	cols := []string{"epoch", "batch", "local batches", "avg step (s)", "epoch (s)", "overhead (s)", "events"}
	if audited {
		cols = append(cols, "audit")
	}
	cols = append(cols, rep.MetricName)
	tab := trace.NewTable(cols...)
	for _, e := range rep.Epochs {
		row := []any{e.Epoch, e.TotalBatch, intsToString(e.LocalBatches),
			e.AvgBatchTime, e.TrainTime, e.Overhead, eventsToString(e.Events)}
		if audited {
			row = append(row, auditToString(e.Audit))
		}
		row = append(row, e.Metric)
		tab.AddRowValues(row...)
	}
	var printErr error
	if spec.CSV {
		printErr = tab.FprintCSV(w)
	} else {
		printErr = tab.Fprint(w)
	}
	if printErr != nil {
		return printErr
	}
	fmt.Fprintf(w, "\n%s on %s (%s): converged=%v in %.1fs simulated (overhead %.2f%%)\n",
		rep.System, rep.Cluster, rep.Workload, rep.Converged, rep.TotalTime, 100*rep.OverheadFraction)
	if audited {
		fmt.Fprintf(w, "audit: %d plans checked, %d violations\n", rep.AuditedPlans, rep.AuditViolations)
	}
	return nil
}

// mlpConfigOf is the shared spec lowering plus the one thing only a command
// does: reading the -checkpoint-in file.
func mlpConfigOf(spec *runspec.Spec) (cannikin.MLPConfig, error) {
	cfg := server.MLPConfigOf(spec)
	if spec.CheckpointIn != "" {
		var err error
		if cfg.InitWeights, cfg.InitVelocity, err = cannikin.LoadCheckpoint(spec.CheckpointIn); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// runMLP trains the real data-parallel MLP on the selected in-process
// backend and prints the per-epoch trace plus, for the live backend, the
// measured timing profile and the performance model fitted from it.
func runMLP(w io.Writer, spec *runspec.Spec) error {
	cfg, err := mlpConfigOf(spec)
	if err != nil {
		return err
	}
	res, err := cannikin.TrainMLP(cfg)
	if err != nil {
		return err
	}
	if spec.CheckpointOut != "" {
		if err := cannikin.SaveCheckpoint(spec.CheckpointOut, res.FinalWeights, res.FinalVelocity); err != nil {
			return err
		}
	}
	if err := printMLPEpochs(w, res, spec.CSV); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s backend: %d workers (local batches %s), %d steps, final accuracy %.4f\n",
		res.Backend, res.Workers, intsToString(spec.MLPBatches), res.Steps, res.FinalAccuracy)
	for _, f := range res.FaultEvents {
		fmt.Fprintf(w, "fault: step %d worker %d %s %.3g\n", f.Step, f.Node, f.Kind, f.Value)
	}
	for i, jr := range res.Joins {
		plan := "incumbents kept their batches"
		if jr.Replanned {
			plan = "re-planned batches with OptPerf"
		}
		fmt.Fprintf(w, "join: epoch %d step %d worker %d joined with batch %d (%s); grown batches %s, %s; resume label join-%d\n",
			jr.Epoch, jr.Step, jr.Worker, jr.Batch, jr.Reason, intsToString(jr.Batches), plan, i+1)
	}
	for _, ev := range res.Evictions {
		plan := "kept survivor batches"
		if ev.Replanned {
			plan = "re-planned survivor batches with OptPerf"
		}
		fmt.Fprintf(w, "eviction: epoch %d step %d evicted worker(s) %s (%s); resumed on %s with batches %s, %s\n",
			ev.Epoch, ev.Step, intsToString(ev.Workers), ev.Reason,
			intsToString(ev.Survivors), intsToString(ev.SurvivorBatches), plan)
	}
	if p := res.Profile; p != nil {
		fmt.Fprintf(w, "measured: %d gradient buckets/step, overlap observed=%v\n", p.Buckets, p.OverlapObserved)
		for i := range p.A {
			fmt.Fprintf(w, "  worker %d: a=%.3gs backprop=%.3gs\n", i, p.A[i], p.Backprop[i])
		}
		if p.FitOK {
			fmt.Fprintf(w, "fitted model: gamma=%.3f To=%.3gs Tu=%.3gs (max fit error %.3f)\n",
				p.Gamma, p.To, p.Tu, p.FitError)
		} else {
			fmt.Fprintln(w, "fitted model: insufficient distinct batch sizes")
		}
	}
	return nil
}

// printMLPEpochs prints the shared per-epoch table of an MLP run.
func printMLPEpochs(w io.Writer, res *cannikin.MLPResult, csv bool) error {
	tab := trace.NewTable("epoch", "batch", "lr", "loss", "accuracy", "GNS")
	for e := range res.EpochLoss {
		tab.AddRowValues(e, res.BatchSchedule[e], res.LRSchedule[e],
			res.EpochLoss[e], res.EpochAccuracy[e], res.NoiseEstimate[e])
	}
	if csv {
		return tab.FprintCSV(w)
	}
	return tab.Fprint(w)
}

// runMLPRank runs this process as rank spec.Rank of the TCP ring spec.Peers
// names: how the coordinator starts each rank (-spec run.json -rank N), and
// how a rank is started by hand on its own machine. Every rank must get the
// identical spec; each reproduces the dataset and initial weights from the
// seed, so the trained weights are bitwise-identical on every rank, and the
// last line, "weights-sha256: <hex>", is what the coordinator compares.
func runMLPRank(w io.Writer, spec *runspec.Spec) error {
	cfg, err := mlpConfigOf(spec)
	if err != nil {
		return err
	}
	cfg.Backend = "" // worker mode is its own engine; the spec's default names the in-process one
	res, st, err := cannikin.TrainMLPWorker(cfg, cannikin.WorkerRingConfig{
		Rank:   spec.Rank,
		Peers:  spec.Peers,
		Listen: spec.Listen,
		Guard:  spec.Guard,
	})
	if err != nil {
		return err
	}
	// Every rank holds identical weights, so one writer suffices — and
	// avoids racing writes to a shared path.
	if spec.CheckpointOut != "" && spec.Rank == 0 {
		if err := cannikin.SaveCheckpoint(spec.CheckpointOut, res.FinalWeights, res.FinalVelocity); err != nil {
			return err
		}
	}
	if err := printMLPEpochs(w, res, spec.CSV); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nworker rank %d of %d (local batches %s): %d steps, final accuracy %.4f\n",
		spec.Rank, res.Workers, intsToString(spec.MLPBatches), res.Steps, res.FinalAccuracy)
	fmt.Fprintf(w, "ring: %d hops in %d network writes (%.2f msgs/batch), %d bytes sent, %d received\n",
		st.MessagesSent, st.Batches, st.MsgsPerBatch, st.BytesSent, st.BytesReceived)
	fmt.Fprintf(w, "weights-sha256: %s\n", server.WeightsHash(res.FinalWeights))
	return nil
}

// runMLPCoordinator spans the MLP run across one OS process per worker:
// it reserves a loopback port per rank, writes the resolved spec to a
// shared file, starts this binary once per rank with -rank, and verifies
// every rank's final-weight hash against the others AND against an
// in-process channel-transport reference run of the same seed — the
// end-to-end bitwise-determinism check across transports and processes.
func runMLPCoordinator(w io.Writer, spec *runspec.Spec) error {
	if len(spec.Faults) > 0 || spec.FaultReplan != "" {
		return fmt.Errorf("-fault is not supported with -transport tcp (kill a worker process instead)")
	}
	if spec.Backend == "live" {
		return fmt.Errorf("-transport tcp runs one process per worker; -backend live is the in-process engine")
	}
	if spec.AutoscaleMax > 0 || spec.AutoscaleShrink > 0 {
		return fmt.Errorf("the autoscaler is not supported with -transport tcp: its decisions depend on wall-clock probes the coordinator cannot replay across process generations (use -join for a scheduled grow)")
	}
	dir, err := os.MkdirTemp("", "cannikin-run")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if len(spec.Joins) > 0 {
		return runMLPElasticCoordinator(w, spec, dir)
	}

	hash, out0, err := launchGeneration(w, spec, filepath.Join(dir, "run.json"))
	if err != nil {
		return err
	}

	// The channel-transport reference: same seed, in this process.
	refSpec := *spec
	refSpec.Backend = "sim"
	refCfg, err := mlpConfigOf(&refSpec)
	if err != nil {
		return err
	}
	ref, err := cannikin.TrainMLP(refCfg)
	if err != nil {
		return fmt.Errorf("channel reference run: %w", err)
	}
	refHash := server.WeightsHash(ref.FinalWeights)
	if refHash != hash {
		return fmt.Errorf("tcp weights %s diverged from channel-transport reference %s", hash, refHash)
	}

	io.WriteString(w, out0)
	fmt.Fprintf(w, "tcp transport: %d worker processes, weights sha256 %s — identical on every rank and to the channel-transport reference\n",
		len(spec.MLPBatches), hash[:16])
	return nil
}

// runMLPElasticCoordinator runs a hot-join schedule across OS processes by
// decomposing the elastic run into fixed-membership process generations:
// each generation trains its epoch segment, rank 0 writes the
// weights+velocity checkpoint, and the next generation — one worker wider —
// resumes from it under the same "join-<n>" randomness label the in-process
// engine derives at a join. The final weights are verified identical on
// every rank of the last generation AND against an in-process hot-join
// reference of the full schedule, so the multi-process join is held to the
// same bitwise standard as the single-process one.
func runMLPElasticCoordinator(w io.Writer, spec *runspec.Spec, dir string) error {
	if spec.Resume != "" {
		return fmt.Errorf("-resume cannot be combined with -join under -transport tcp: the generational resume labels are derived from the join sequence itself")
	}
	epochs := spec.Epochs
	if epochs == 0 {
		epochs = 10
	}
	prev := 0
	for _, j := range spec.Joins {
		if j.Replan == "optperf" {
			return fmt.Errorf("-join replan optperf is not supported with -transport tcp: the re-planned batches depend on a runtime probe the next generation cannot know ahead of time")
		}
		if j.Epoch <= prev || j.Epoch >= epochs {
			return fmt.Errorf("tcp joins need strictly increasing epochs in (0, %d): got %q", epochs, runspec.FormatJoins(spec.Joins))
		}
		prev = j.Epoch
	}

	batches := append([]int(nil), spec.MLPBatches...)
	resume, checkIn := "", spec.CheckpointIn
	segStart := 0
	var hash, out0 string
	for gi := 0; gi <= len(spec.Joins); gi++ {
		segEnd := epochs
		if gi < len(spec.Joins) {
			segEnd = spec.Joins[gi].Epoch
		}
		gen := *spec
		gen.MLPBatches = batches
		gen.Epochs = segEnd - segStart
		gen.Joins = nil
		gen.Resume = resume
		gen.CheckpointIn = checkIn
		ckpt := filepath.Join(dir, fmt.Sprintf("gen%d.ckpt", gi+1))
		if gi < len(spec.Joins) {
			gen.CheckpointOut = ckpt // the last generation writes the caller's -checkpoint-out
		}
		fmt.Fprintf(w, "generation %d: %d workers (batches %s), epochs [%d, %d), resume %q\n",
			gi+1, len(batches), intsToString(batches), segStart, segEnd, resume)
		h, o, err := launchGeneration(w, &gen, filepath.Join(dir, fmt.Sprintf("gen%d.json", gi+1)))
		if err != nil {
			return fmt.Errorf("generation %d: %w", gi+1, err)
		}
		hash, out0 = h, o
		if gi < len(spec.Joins) {
			checkIn = ckpt
			resume = fmt.Sprintf("join-%d", gi+1)
			batches = append(batches, spec.Joins[gi].Batch)
			segStart = segEnd
		}
	}

	// The in-process hot-join reference: the full elastic schedule in one
	// process, chan transport.
	refSpec := *spec
	refSpec.Backend = "sim"
	refCfg, err := mlpConfigOf(&refSpec)
	if err != nil {
		return err
	}
	ref, err := cannikin.TrainMLP(refCfg)
	if err != nil {
		return fmt.Errorf("elastic reference run: %w", err)
	}
	refHash := server.WeightsHash(ref.FinalWeights)
	if refHash != hash {
		return fmt.Errorf("tcp elastic weights %s diverged from in-process hot-join reference %s", hash, refHash)
	}

	io.WriteString(w, out0)
	fmt.Fprintf(w, "tcp elastic: %d process generations grew %d -> %d workers; final weights sha256 %s — identical on every rank and to the in-process hot-join reference\n",
		len(spec.Joins)+1, len(spec.MLPBatches), len(batches), hash[:16])
	return nil
}

// launchGeneration starts this binary once per rank of one fixed
// membership, each on a freshly reserved loopback port, waits for them all,
// and returns the cross-checked weights hash plus rank 0's output.
func launchGeneration(w io.Writer, spec *runspec.Spec, specPath string) (hash, rank0 string, err error) {
	bin, err := selfExe()
	if err != nil {
		return "", "", err
	}
	n := len(spec.MLPBatches)
	peers, listeners, err := allreduce.ReserveRingAddrs(n)
	if err != nil {
		return "", "", err
	}
	// The ranks re-bind these just-vacated ports themselves.
	for _, ln := range listeners {
		ln.Close()
	}

	// One shared spec file; each rank overrides -rank on its command line.
	// Its Peers are never empty, so a rank never reaches the coordinator.
	shared := *spec
	shared.Peers = peers
	shared.Backend = ""
	shared.Transport = runspec.TransportTCP
	if err := shared.Save(specPath); err != nil {
		return "", "", err
	}

	fmt.Fprintf(w, "spawning %d rank processes over tcp (%s)\n", n, strings.Join(peers, ", "))
	cmds := make([]*exec.Cmd, n)
	outs := make([]bytes.Buffer, n)
	for i := 0; i < n; i++ {
		cmds[i] = exec.Command(bin, "-spec", specPath, "-rank", strconv.Itoa(i))
		cmds[i].Stdout = &outs[i]
		cmds[i].Stderr = &outs[i]
		if err := cmds[i].Start(); err != nil {
			return "", "", fmt.Errorf("start rank %d: %w", i, err)
		}
	}
	var runErr error
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil && runErr == nil {
			runErr = fmt.Errorf("rank %d: %w", i, err)
		}
	}
	if runErr != nil {
		for i := range outs {
			for _, line := range strings.Split(strings.TrimRight(outs[i].String(), "\n"), "\n") {
				fmt.Fprintf(w, "[rank %d] %s\n", i, line)
			}
		}
		return "", "", runErr
	}

	hashes := make([]string, n)
	for i := range outs {
		if hashes[i] = extractWeightsHash(outs[i].String()); hashes[i] == "" {
			return "", "", fmt.Errorf("rank %d printed no weights hash:\n%s", i, outs[i].String())
		}
	}
	for i := 1; i < n; i++ {
		if hashes[i] != hashes[0] {
			return "", "", fmt.Errorf("rank %d weights %s diverged from rank 0 weights %s", i, hashes[i], hashes[0])
		}
	}
	return hashes[0], outs[0].String(), nil
}

// extractWeightsHash pulls a rank's "weights-sha256: <hex>" line.
func extractWeightsHash(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "weights-sha256:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// auditToString renders one epoch's audit outcome for the trace table.
func auditToString(a *cannikin.AuditSummary) string {
	if a == nil {
		return "-"
	}
	if a.Violations > 0 {
		return fmt.Sprintf("%d/%d FAIL", a.Violations, a.Plans)
	}
	return fmt.Sprintf("%d ok", a.Plans)
}

// printCatalog prints the workload and GPU catalogs, then the node table of
// the cluster the spec names (its preset, or its -models list) for the
// spec's workload: each node's compute model, memory-limited batch cap, and
// the cluster's communication constants.
func printCatalog(w io.Writer, spec *runspec.Spec) error {
	var c *cluster.Cluster
	var err error
	if len(spec.Models) > 0 {
		c, err = cluster.FromModels("custom", spec.Models, rng.New(spec.Seed))
	} else {
		c, err = cluster.Preset(spec.Cluster, rng.New(spec.Seed))
	}
	if err != nil {
		return err
	}
	wl, err := workload.Get(spec.Workload)
	if err != nil {
		return err
	}
	model, err := c.TrueModel(wl.Profile)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Workloads (paper Table 5):")
	wt := trace.NewTable("name", "task", "dataset", "model", "optimizer", "lr scaler", "B0", "target")
	for _, info := range cannikin.Workloads() {
		wt.AddRowValues(info.Name, info.Task, info.Dataset, info.Model, info.Optimizer, info.LRScaler,
			info.InitBatch, fmt.Sprintf("%s=%.2f", info.TargetMetric, info.TargetValue))
	}
	if err := wt.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nGPU catalog (paper Table 1 + evaluation GPUs):")
	gt := trace.NewTable("key", "model", "year", "arch", "CUDA cores", "memory (GB)", "FP16 TFLOPS")
	for _, g := range cannikin.GPUModels() {
		gt.AddRowValues(g.Key, g.Name, g.Year, g.Arch, g.CUDACores, g.MemoryGB, g.FP16TFLOPS)
	}
	if err := gt.Fprint(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nCluster %s: %d nodes, job %s (%s)\n\n", c.Name, c.N(), wl.Name, wl.ModelName)
	caps := c.Caps(wl.Profile)
	ct := trace.NewTable("node", "gpu", "cpu speed", "share", "max batch",
		"a(b)=q*b+s", "P(b)=k*b+m", "t(32) ms")
	for i, d := range c.Devices {
		nm := model.Nodes[i]
		ct.AddRowValues(
			fmt.Sprint(i), d.Model.Name, d.CPUSpeed, d.SpeedFraction, caps[i],
			fmt.Sprintf("%.3g*b+%.3g", nm.Q, nm.S),
			fmt.Sprintf("%.3g*b+%.3g", nm.K, nm.M),
			nm.Compute(32)*1e3,
		)
	}
	if err := ct.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncommunication: gamma=%.3f  To=%.2fms  Tu=%.2fms  TComm=%.2fms\n",
		model.Gamma, model.To*1e3, model.Tu*1e3, model.TComm()*1e3)
	fmt.Fprintf(w, "total batch capacity: %d samples\n", c.Capacity(wl.Profile))
	return nil
}

func intsToString(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, "/")
}

func eventsToString(evs []cannikin.ChaosEventRecord) string {
	if len(evs) == 0 {
		return "-"
	}
	parts := make([]string, len(evs))
	for i, ev := range evs {
		s := fmt.Sprintf("n%d:%s=%.3g", ev.Node, ev.Kind, ev.Value)
		if ev.Revert {
			s += "(revert)"
		}
		parts[i] = s
	}
	return strings.Join(parts, " ")
}
