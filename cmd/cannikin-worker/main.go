// Command cannikin-worker runs ONE rank of a multi-process MLP training
// job over a TCP ring. It is normally launched by `cannikin -mlp
// -transport tcp`, which hands every rank the same spec file:
//
//	cannikin-worker -spec run.json -rank 2
//
// but it can be started by hand on separate machines too:
//
//	cannikin-worker -mlp -transport tcp -mlp-batches 8,8,4,4 \
//	    -peers h0:7000,h1:7000,h2:7000,h3:7000 -rank 1 -listen 0.0.0.0:7000
//
// Every rank must receive the identical spec (same seed, batches, peers);
// each deterministically reproduces the dataset and initial weights, so
// the trained weights are bitwise-identical on every rank. The final line
// of output is the proof token the coordinator compares across ranks:
//
//	weights-sha256: <hex>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cannikin"

	"cannikin/internal/runspec"
	"cannikin/internal/server"
	"cannikin/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cannikin-worker:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cannikin-worker", flag.ContinueOnError)
	b := runspec.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := b.Resolve()
	if err != nil {
		return err
	}
	if spec.Transport != runspec.TransportTCP {
		return fmt.Errorf("cannikin-worker requires -transport tcp (got %q)", spec.Transport)
	}
	if len(spec.Peers) == 0 {
		return fmt.Errorf("cannikin-worker requires -peers (every rank's host:port, in rank order)")
	}

	cfg := server.MLPConfigOf(spec)
	cfg.Backend = "" // worker mode is its own engine; the spec's default names the in-process one
	if spec.CheckpointIn != "" {
		if cfg.InitWeights, cfg.InitVelocity, err = cannikin.LoadCheckpoint(spec.CheckpointIn); err != nil {
			return err
		}
	}
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

	if err := printEpochs(w, res, spec.CSV); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nworker rank %d of %d (local batches %s): %d steps, final accuracy %.4f\n",
		spec.Rank, res.Workers, intsToString(spec.MLPBatches), res.Steps, res.FinalAccuracy)
	fmt.Fprintf(w, "ring: %d hops in %d network writes (%.2f msgs/batch), %d bytes sent, %d received\n",
		st.MessagesSent, st.Batches, st.MsgsPerBatch, st.BytesSent, st.BytesReceived)
	fmt.Fprintf(w, "weights-sha256: %s\n", server.WeightsHash(res.FinalWeights))
	return nil
}

// printEpochs prints the per-epoch table — identical on every rank, so
// the coordinator shows rank 0's verbatim.
func printEpochs(w io.Writer, res *cannikin.MLPResult, csv bool) error {
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

func intsToString(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, "/")
}
