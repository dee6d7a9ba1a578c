#!/bin/sh
# Full local check: build, vet, the test suite with the race detector, and
# a short audited fuzz smoke on each fuzz target. The optperf fuzz target
# solves through the audited solver in strict mode, so every fuzz input also
# verifies the paper's optimality invariants (audit harness, DESIGN.md).
set -eu

cd "$(dirname "$0")/.."

# lane runs a name-filtered `go test` (-run or -fuzz) and fails when the
# filter selected nothing in some package: after a rename the regex would
# otherwise match no test, run nothing, and still exit 0.
lane() {
	out=$(go test "$@" 2>&1) || { printf '%s\n' "$out"; return 1; }
	printf '%s\n' "$out"
	if printf '%s\n' "$out" | grep -Eq 'no tests to run|no fuzz tests to fuzz'; then
		echo "vacuous lane: go test $* selected no test in a package above" >&2
		return 1
	fi
}

BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT

echo "== go build =="
go build ./...

# ROADMAP 5(b): bench's calibration probe reads the same host 10-60% slower
# when its loop straddles a 64-byte line, and any code linked ahead of main
# moves it in 32-byte steps, so a change that flips the placement shifts
# every calibrated metric of every workload by that much and cannot be
# judged against its parent. Every ledger figure so far was taken with the
# probe at an address = 32 (mod 64); hold it there. If this fails, re-shape
# the change (what is inlined, where a helper lives) until it passes. To be
# deleted by the bench/-only PR that makes the probe alignment-proof.
echo "== probe placement: bench's main.probe.func1 at an address = 32 (mod 64) =="
go build -o "$BIN/bench" ./bench
PROBE_ADDR=$(go tool nm "$BIN/bench" | awk '$3 == "main.probe.func1" { print $1 }')
[ -n "$PROBE_ADDR" ] || { echo "main.probe.func1 not found in the bench binary" >&2; exit 1; }
if [ $((0x$PROBE_ADDR % 64)) -ne 32 ]; then
	echo "main.probe.func1 at 0x$PROBE_ADDR = $((0x$PROBE_ADDR % 64)) (mod 64), want 32: the calibration probe would read this host differently than at the parent (ROADMAP 5(b))" >&2
	exit 1
fi
echo "main.probe.func1 at 0x$PROBE_ADDR"
# Information only, not a gate: where the hot loops of the calibrated
# workloads sit modulo 64. A loop that moves across a 64-byte line can read
# a few percent slower or faster with no change of its own, so a ledger
# figure that moved with one of these is placement, not the change.
go tool nm "$BIN/bench" > "$BIN/bench.nm"
for fn in runtime.sqNorms tensor.axpy4 tensor.dot4 'nn.(*SGD).update' allreduce.sumScaled; do
	addr=$(awk -v f="cannikin/internal/$fn" '$3 == f { print $1 }' "$BIN/bench.nm")
	if [ -n "$addr" ]; then
		echo "  $fn at 0x$addr = $((0x$addr % 64)) (mod 64)"
	else
		echo "  $fn: inlined"
	fi
done

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race ./...

# The live execution engine is the most concurrency-dense code in the repo
# (two goroutines per worker, channel-linked ring, shared comm buffers), so
# run its package and the collective under the race detector explicitly and
# with a higher count even though ./... above already covers them once.
echo "== go test -race -count=2 (runtime + allreduce) =="
go test -race -count=2 ./internal/runtime ./internal/allreduce

# The tensor kernel pool is always on: every large kernel is cut into
# output-row tiles that the caller and the parked helpers claim from an
# atomic cursor, and jobs are recycled under a reference count. Run its
# property tests by name — tiled == serial == naive bitwise at every tile
# count, a helper reaching a recycled job late claims nothing, concurrent
# callers, the normal fill == the serial Box-Muller loop (values and where
# it leaves the source) at every length and tile count, a stream read while
# its fill runs on the pool (tile edges, tiles finishing out of order, a
# second Prefetch or a Split mid-fill, no allocation once warm), no job left
# open however a simulated run ends, a range job's tiles each run once (a
# late helper included), a range tile that dispatches a matmul, a helper
# taking a range tile before a kernel's, concurrent range and kernel
# callers, no allocation by a warm Range at width 2 — and the kernels'
# bitwise-equals-naive contract (tile remainders, the zero skip's edge
# cases) under the race detector at several GOMAXPROCS values.
echo "== go test -race -count=2 -cpu 1,2,4 (tensor kernels + pool) =="
lane -race -count=2 -cpu 1,2,4 -run 'TestParallelKernelsBitwiseEqualSerial|TestTiledJobLateHelper|TestParallelKernelsConcurrentCallers|Kernels|TestNormalsInto|TestNormalsStreamFillBoundaries|TestNormalsStreamTilesOutOfOrder|TestNormalsStreamPrefetchWhileFilling|TestNormalsStreamSplitMidFill|TestNormalsStreamWarmAllocsZero|TestTrainLeavesNoOpenJob|TestRangeTilesRunOnce|TestRangeTileDispatchesKernel|TestOpenJobTakesRangeTileFirst|TestRangeConcurrentCallers|TestRangeWarmAllocsZero' ./internal/tensor

# The simulator draws each epoch's noise ahead over the kernel pool, and the
# values must be the serial draws' whatever the core count and whatever was
# prefetched. Literal goldens taken from the serial draws pin the bits: Norm
# and LogNormFactor, Skip against Uint64 calls, a buffered stream against a
# serial source (Split included), GradientNorms and Cluster.Step under
# every prefetch count, a device's per-measurement noise (interleaved with
# the cluster's stream inside Step), Randn and SyntheticBlobs hashes, and
# Train's time-to-target on Clusters B and C. By name, so a rename cannot
# silently drop them.
echo "== noise goldens lane: every simulator draw the serial one -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'TestNormGolden|TestLogNormFactorGolden|TestSkipEqualsUint64Calls|TestNormalsStreamMatchesSerial|TestRandnGolden|TestGradientNormsGolden|TestStepGolden|TestMeasureComputeGolden|TestSyntheticBlobsGolden|TestTrainGolden' ./internal/rng ./internal/tensor ./internal/convergence ./internal/cluster ./internal/gpu ./internal/data .

# The kernel benchmarks feed scripts/bench.sh's kernel lane and the
# trajectory gate; a renamed or panicking sub-benchmark should fail here.
echo "== kernel bench smoke: every MatMul/MulBT/AddMulAT row runs =="
go test -run xxx -bench 'MulBT|AddMulAT|MatMul' -benchtime 3x ./internal/tensor >/dev/null

# The fault-tolerance layer races workers against injected stalls, drops,
# and kills and drives the retry/eviction state machine from timeouts; run
# the injector package (internal/chaos) and the fault-path tests (guarded
# ring, eviction, differential recovery) under the race detector at several
# GOMAXPROCS values — determinism claims must hold at every parallelism
# level.
echo "== go test -race -count=2 -cpu 1,2,4 (fault injection + fault paths) =="
go test -race -count=2 -cpu 1,2,4 ./internal/chaos
lane -race -count=2 -cpu 1,2,4 -run 'Fault|Evict|Recovery|Guarded' ./internal/runtime ./internal/allreduce

# The TCP ring transport runs a reader goroutine per socket against real
# sockets, and writes every frame from the sending rank's goroutine; the
# multi-process worker runtime layers the deterministic training loop on top; run both transports' conformance
# suite and the worker bitwise-parity tests under the race detector at
# several GOMAXPROCS values.
echo "== go test -race -cpu 1,2,4 (tcp transport + worker runtime) =="
lane -race -count=1 -cpu 1,2,4 -run 'Transport|TCP|Worker' ./internal/allreduce ./internal/runtime

# Worker mode, one rank per process over loopback tcp: a ring forms in any
# start order (a refused dial is retried every millisecond instead of
# a fixed 20 ms sleep, and a successor that never listens fails at the
# timeout with the refusal as its cause), ring and hd reduce bitwise the
# inline reference, each rank draws 1/n of the initial weights (any
# partition of the flat vector into spans reassembles NewMLP's draw bit for
# bit, and NewMLP draws the serial loop's values) and evaluates 1/n of the
# rows, one reduce replicating each (a planted -0, a rank with no rows, and
# ranks whose weight span is empty or only biases included), rank 0 alone
# squares |g|² into the norm vector's extra slot, a warm step allocates
# nothing, every rank — 2 to 5 of them, guarded or not, drawing or resuming
# from seed weights — trains and observes bitwise like Train, and a bad
# spec fails before dialing. By name, so a rename cannot silently drop
# them.
echo "== worker lane: ring bring-up, 1/n init and evaluation, |g|² once, worker == Train -race -count=2 =="
lane -race -count=2 -run 'TestWorkerMatchesTrainBitwise|TestWorkerObservesLikeTrain|TestAlgorithmTCPBitwise|TestMLPWorkerValidatesBeforeDial|TestWorkerEvaluationSharesRows|TestWorkerSteadyStateStepAllocsZero|TestDialBackoffSchedule|TestTCPDialRefusedNamesCause|TestTCPRingFormsInAnyStartOrder|TestMLPWeightsIntoSpansMatchNewMLP|TestNewMLPDrawsTheSerialWeights' . ./internal/allreduce ./internal/runtime ./internal/nn

# A tcp frame's payload is the message buffer's own bytes, viewed through
# the package's one unsafe helper: -race is what turns checkptr on over that
# view, the golden pins the bytes on the wire against a hand-written
# encoding (and the big-endian swap against encoding/binary), and the
# allocation and conservation gates cover the vectored write and its
# recycle-after-write, each frame counted as a write of one message before
# Send returns. Toward a slow reader, guarded and unguarded frames arrive in
# send order with their exact bytes; a guarded hop to a stalled peer times
# out within its budget at its socket deadline, and the socket it stalled
# fails every later hop at once; and a connection that
# never sends its hello delays neither the ring's forming nor Close. By
# name, so a rename cannot silently drop them.
echo "== wire lane: frames written from and read into the message buffers -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'TestTCPWireFormatGolden|TestTCPWireSwapBytes|TestTCPSteadyStateReduceAllocsZero|TestTCPStatsConservation|TestTCPFramesKeepSendOrder|TestTCPGuardedStalledWriteFailsSocket|TestTCPGuardedHopToStalledPeerTimesOut|TestTCPSilentDialStallsNoRing' ./internal/allreduce

echo "== multi-process smoke: the coordinator starts itself as each rank over loopback tcp =="
go build -o "$BIN/cannikin" ./cmd/cannikin
# 3 rank processes; the coordinator itself verifies every rank's weight
# hash against the in-process channel-transport reference, so a plain
# exit-0 here is the bitwise cross-check.
"$BIN/cannikin" -mlp -transport tcp -mlp-batches 8,4,2 -epochs 1 >/dev/null
# 2 rank processes, guarded hops.
"$BIN/cannikin" -mlp -transport tcp -mlp-batches 6,6 -epochs 1 -guard >/dev/null

# Elastic lane: the hot-join/autoscaler differential suite asserts bitwise
# trajectory equality across membership changes (join ≡ fresh run from the
# join checkpoint; join-then-evict returns to the survivor trajectory), so
# it must hold under the race detector at every parallelism level.
echo "== elastic lane: join/evict differential suite -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'Elastic|Join|Autoscal' ./internal/runtime .

# One definition per run concept: the public join, eviction, epoch and
# autoscaler types are the runtime's own, and every run rule is checked
# once, by runtime.Config.Validate. The public-boundary table (each rule the
# public layer used to check still fails TrainMLP before an epoch trains),
# the autoscaler's own checks, a worker validating before it dials, and the
# HTTP edge's one-spec-per-body and 1 MiB limits; on the simulated side, a
# negative MaxEpochs and non-finite CPU speeds or compute shares fail Train
# before any epoch; joins or an autoscale ceiling the dataset cannot cover,
# and NaN or infinite autoscale thresholds, fail Validate. A layer narrower
# than one unit, a NaN or infinite learning rate or momentum fail TrainMLP
# by name and a worker before it dials; a worker rank outside its peer list
# fails before it binds, and a transport handed a listener with a bad rank
# or no peers closes it. By name, so a rename cannot silently drop them.
echo "== config lane: each run rule validated once, before training, dialing or admission -race =="
lane -race -count=1 -run 'TestMLPConfigRulesAtPublicBoundary|TestMLPWorkerValidatesBeforeDial|TestMLPRejectsBadLayersAndOptimizer|TestMLPWorkerBadRankReleasesListen|TestTCPBadConfigReleasesListener|TestAutoscalerConfigValidate|TestDecodeRejectsTrailingData|TestSubmitOversizedBody413|TestTrainRejectsNegativeMaxEpochs|TestClusterRejectsNonFinite|TestValidateRejectsMembershipPastDataset|TestAutoscalerRejectsNonFiniteThresholds' . ./internal/runtime ./internal/runspec ./internal/server ./internal/allreduce

echo "== elastic smoke: tcp hot-join, a 4th rank process joins mid-run =="
# Generation 1 runs 3 rank processes; at epoch 1 the coordinator hands
# the weights+velocity checkpoint to a 4-process generation. The
# coordinator verifies the final hash on every rank and against the
# in-process hot-join reference, so exit 0 is the bitwise cross-check;
# the last generation writes -checkpoint-out.
"$BIN/cannikin" -mlp -transport tcp -mlp-batches 6,4,2 -epochs 2 \
	-join 1:4 -checkpoint-out "$BIN/join.ckpt" >/dev/null
[ -s "$BIN/join.ckpt" ] || { echo "tcp hot-join wrote no -checkpoint-out" >&2; exit 1; }

echo "== live-backend smoke: short epochs through the CLI =="
go run ./cmd/cannikin -mlp -backend live -epochs 2 -mlp-batches 16,8,4 -bucket-bytes 2048 >/dev/null

# The collective-engine benchmarks feed scripts/bench.sh's JSON parser and
# the benchcheck gates; a renamed sub-benchmark or a panicking algorithm
# path should fail here, not silently produce a malformed BENCH file.
echo "== allreduce bench smoke: every algorithm x worker x dim runs once =="
go test -run '^$' -bench 'BenchmarkAllReduce$' -benchtime 1x . >/dev/null

# One ring schedule, one size rule, a sequential reference: the distributed
# schedules against their inline references on both transports (160 KB
# included, above auto's threshold), the reference reduce's no-goroutine
# no-allocation contract, and auto's per-bucket resolution. By name, so a
# rename cannot silently drop them.
echo "== collective lane: ring/hd == inline reference, sequential reduce, auto's size rule -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'AlgorithmChanBitwise|AlgorithmTCPBitwise|AllReduceAlgIsSequential|Selector|BucketAlgorithms' ./internal/allreduce ./internal/runtime

# One pass per parameter per job: dW and db accumulated straight onto a
# zeroed Grad are bitwise the Transpose-then-MatMul reference, and the
# optimizer stepped from the reduced flat vector is bitwise SetFlatGrads +
# Step (weights and velocity). These two carry the nn half of the
# sim ≡ live ≡ merged ≡ tcp-worker contract the suites above check end to
# end. By name, so a rename cannot silently drop them.
echo "== differential lane: in-place gradients == reference product, StepFlat == SetFlatGrads + Step -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'TestBackwardGradsBitwiseReference|TestStepFlatMatchesSetFlatGradsStep' ./internal/nn

# One model per process: co-hosted ranks train replicas that share the
# weight tensors and own their gradients and workspaces, and each steps only
# the spans of the one store its collective owns, with no lock — the
# happens-before chain is the bucket-0 reduce-scatter and the driver's step
# barrier. Replicas backpropagating concurrently, spans stepped concurrently
# and in any order (bitwise StepFlat), the sequential reference's replica
# check, and every mode x membership feature, under the race detector.
# By name, so a rename cannot silently drop them.
echo "== shared-store lane: replicas, span steps, sim replica agreement, feature matrix -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'TestReplicaSharesWeightsOwnsGrads|TestStepFlatRangeShardsBitwise|TestReplicaConsistencyIsBitwise|TestEngineFeatureMatrix' ./internal/nn ./internal/runtime

# In one address space only the reduce-scatter runs: each rank's owned span
# is bitwise the full reduce's and the spans tile the vector (ring, hd, auto,
# both transports, plain and guarded), a warm scatter-only reduce allocates
# nothing, the driver's |g|² over the owners' spans is bitwise the sequential
# reference's, a faulted scatter-only step aborts as the full reduce does,
# and the hosted step still allocates nothing. By name, so a rename cannot
# silently drop them.
echo "== scatter-only lane: owned spans == full reduce, driver |g|², fault abort, zero allocs -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'TestScatterOnly|GlobalSqNorm|TestLiveSteadyStateStepAllocsZero|TestEngineFeatureMatrix' ./internal/allreduce ./internal/runtime

# The collective reads the raw gradient once: ReduceInto's result is bitwise
# staging w·src and reducing that (ring, hd, auto, both transports, plain and
# guarded, full and scatter-only, in place included) and src is never
# written; every Param.Grad is a view of its network's one slab, which the
# live workers hand the ring as it is; and the driver's |g|², the owned spans
# and every mode x membership feature stay bitwise. By name, so a rename
# cannot silently drop them.
echo "== read-once lane: ReduceInto == staged reduce, gradients one slab -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'TestReduceIntoMatchesStagedReduce|TestFlatGradIsParamStorage|TestScatterOnly|GlobalSqNorm|TestEngineFeatureMatrix' ./internal/allreduce ./internal/nn ./internal/runtime

# No core idles while the driver works alone: after the step barrier the
# norm chains — |g|² over the owners' spans and every hosted |g_i|² — run
# whole, side by side, as min(cores, chains) tiles of one pool range job,
# bitwise the sequential reference's at 1-4 usable cores, plain and guarded
# (a failed step retried included), and one tile under the work floor; the
# epoch's evaluation runs min(usable cores, rows) shards as range tiles,
# bitwise one sequential forward; and the hosted step and a warm evaluation
# still allocate nothing. By name, so a rename cannot silently drop them.
echo "== norm-lane lane: norm chains over lanes, evaluation over cores, zero allocs -race -cpu 1,2,4 =="
lane -race -count=1 -cpu 1,2,4 -run 'TestLiveGlobalSqNormMatchesSeq|TestEvaluatorMatchesSequentialForward|TestEpochEvaluationMatchesSequentialForward|TestLiveSteadyStateStepAllocsZero' ./internal/runtime

# ROADMAP 6(d) flake audit for the allocation gates: a window's count is the
# step's own allocations, read from a heap profile of every allocation in it
# with the Go runtime's growth of its own caches (sudogs, timer heaps, Ms,
# gs) left out, so twenty runs of each under the race detector must all
# pass. By name, so a rename cannot silently drop them.
echo "== allocation gates lane: a warm live or worker step allocates nothing -race -count=20 =="
lane -race -count=20 -run 'TestLiveSteadyStateStepAllocsZero|TestWorkerSteadyStateStepAllocsZero' ./internal/runtime

# Profiling must stay wired up: the live-vs-sequential bench is the tool
# used to chase scheduling regressions, so a broken -cpuprofile path (or a
# bench rename) should fail CI, not be discovered mid-investigation.
echo "== pprof smoke: cpu profile of the live-vs-sequential bench parses =="
go test -run '^$' -bench 'BenchmarkTrainMLPLiveVsSequential/w4/live' -benchtime 1x \
	-cpuprofile "$BIN/cpu.pprof" -o "$BIN/bench.test" . >/dev/null
go tool pprof -top "$BIN/bench.test" "$BIN/cpu.pprof" | head -n 12
go tool pprof -top "$BIN/bench.test" "$BIN/cpu.pprof" | grep -q 'flat' \
	|| { echo "pprof output missing profile table" >&2; exit 1; }

# The live engine picks its goroutine layout from the cores the process can
# use: with one usable core any hosted rank count merges, so GOMAXPROCS=1 is
# the merged leg beside whatever the host's own core count selects.
echo "== fault-tolerance smoke: injected kill evicts and the run completes, default layout and merged (GOMAXPROCS=1) =="
go run ./cmd/cannikin -mlp -backend live -epochs 2 -mlp-batches 8,8,8 -bucket-bytes 1024 -fault kill:1@6 >/dev/null
GOMAXPROCS=1 go run ./cmd/cannikin -mlp -backend live -epochs 2 -mlp-batches 8,8,8 -bucket-bytes 1024 -fault kill:1@6 >/dev/null

# A churn outside (0, 1] is an error, never a run without perturbation.
echo "== chaos smoke: -chaos -0.5 exits non-zero =="
if go run ./cmd/cannikin -cluster a -workload cifar10 -epochs 2 -chaos -0.5 >/dev/null 2>&1; then
	echo "cannikin -chaos -0.5 exited 0: a negative churn must be rejected" >&2
	exit 1
fi

# A non-finite jitter is an error, never a pool of NaN speeds.
echo "== jitter smoke: cannikin-serve -jitter NaN exits non-zero =="
if go run ./cmd/cannikin-serve -addr 127.0.0.1:0 -jitter NaN >/dev/null 2>&1; then
	echo "cannikin-serve -jitter NaN exited 0: a non-finite jitter must be rejected" >&2
	exit 1
fi

echo "== server lane: multi-tenant scheduler + HTTP service under -race =="
go test -race -count=1 ./internal/jobs ./internal/server
# Elastic admission by name, so a rename cannot silently drop it: an elastic
# spec wider than the pool is ErrBadSpec / HTTP 400, one within it is granted
# its ceiling, finishes done with workers == ceiling in /jobs/{id}, and is
# bitwise a direct TrainMLP.
lane -race -count=1 -run 'ElasticAdmission|ElasticJobGrantedCeiling' ./internal/jobs ./internal/server

echo "== server smoke: submit/stream/cancel over localhost, then drain =="
go build -o "$BIN/cannikin-serve" ./cmd/cannikin-serve
go build -o "$BIN/cannikin-loadtest" ./cmd/cannikin-loadtest
"$BIN/cannikin-serve" -addr 127.0.0.1:0 -devices 6 > "$BIN/serve.log" 2>&1 &
SRV_PID=$!
i=0
SRV_ADDR=""
while [ "$i" -lt 100 ]; do
	SRV_ADDR=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$BIN/serve.log")
	[ -n "$SRV_ADDR" ] && break
	i=$((i+1)); sleep 0.1
done
[ -n "$SRV_ADDR" ] || { echo "cannikin-serve never listened" >&2; cat "$BIN/serve.log" >&2; exit 1; }
# Submit 3 concurrent jobs, stream one's epochs to completion, cancel one.
"$BIN/cannikin-loadtest" -url "http://$SRV_ADDR" -jobs 3
kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "cannikin-serve exited non-zero" >&2; cat "$BIN/serve.log" >&2; exit 1; }
grep -q "drained cleanly" "$BIN/serve.log" \
	|| { echo "cannikin-serve did not drain cleanly" >&2; cat "$BIN/serve.log" >&2; exit 1; }

# One scheduler over two clocks, by name so a rename cannot silently drop
# a test. On the wall clock: 120 concurrent jobs on 12 devices through a
# 4-deep queue, each rejection resubmitted after its RetryAfter hint — all
# settle, no goroutine leaks, and the goodput allocator's grants price at
# least the equal-split counterfactual — a NaN noise smoothing factor that
# must not stall the queue, and a homogeneous job wider than any model
# group rejected at admission. On the event clock: the simulated
# Schedule's records pinned bitwise under both policies, the scheduler
# experiment's table, the queueing, fit, homogeneous-slice and makespan
# behaviours, a grant at time zero reading as started, and impossible
# submit times and duplicate IDs rejected.
echo "== scheduler lane: load and backpressure on the wall clock, simulated Schedule on the event clock -race =="
lane -race -count=1 -run 'TestManyConcurrentJobs|TestNaNGNSAlphaTakesDefault|TestHomogeneousPolicyAdmission|TestSimulate|TestEventClockGrantAtZero|TestScheduleGolden|TestScheduleRejectsBadJobs|TestSchedulerHeterogeneousPolicyWins' ./internal/jobs ./internal/experiments .

# cmd/experiments is a pure function of its seed: `-exp all -format md` is
# byte for byte its golden (cmd/experiments/testdata/all.md), and every
# generated block of EXPERIMENTS.md is byte for byte its id's part of the
# same run, at every GOMAXPROCS; -seed 0 is an error, never seed 1's output
# under another name. No -race: the ./... race pass above runs them once.
# By name, so a rename cannot silently drop them.
echo "== experiments lane: -exp all == golden, EXPERIMENTS.md blocks == the run -cpu 1,2,4 =="
lane -count=1 -cpu 1,2,4 -run 'TestGoldenAndDocBlocks|TestRunRejectsSeedZero' ./cmd/experiments

# The performance-model learner answers every query from running sums and
# an incrementally kept list of distinct sizes; its contract is bitwise
# agreement with the batch re-fit kept as the oracle in its tests, also past
# the history cap, and the trainer's cached Theorem 4.1 weights must track
# every plan change. By name, so a rename cannot silently drop them.
echo "== learner lane: incremental == batch fit, history cap, cached GNS weights =="
lane -race -count=1 -run 'Learner|HistoryCap|CachedWeights|AdaptDLPlans|LineSums' ./internal/perfmodel ./internal/trainer ./internal/stats

# OptPerf's integer plan is the exact min-max of Eq. 7: the plan's time
# equals an enumeration over every allocation on small models (capped and
# uncapped), the committed FuzzSolve seeds (several nodes tied as slowest)
# equal the sample-by-sample greedy, and a min-pinned slowest node leaves the
# rest equalized. Algorithm 1's search over the kink-time order matches the
# waterfill reference on every model family, settles in one probe when the
# warm-start hint is the optimum's prefix, and leaves the trainer's plans
# bitwise; NaN and infinite model inputs are rejected. By name, so a rename
# cannot silently drop them.
echo "== optperf lane: integer plan == exact min-max, Algorithm 1 search =="
lane -count=1 -run 'TestPropertySolveIsExactMinMax|FuzzSolve|TestSolveEqualizesPastMinPinnedCritical|TestSolveBeatsBruteForce|TestPropertySolveMatchesWaterfill|TestHintAtOptimumIsOneProbe|TestBoundarySearchOnExtremeSpread|TestValidate|TestProportionalAllocationErrors|TestSolveOptPerfRejectsNonFinite|TestTrainPlanSequenceGolden' ./internal/optperf .

echo "== audited fuzz smoke: optperf FuzzSolve =="
lane -run='^$' -fuzz=FuzzSolve -fuzztime=10s ./internal/optperf

echo "== audited fuzz smoke: gns FuzzEstimators =="
lane -run='^$' -fuzz=FuzzEstimators -fuzztime=10s ./internal/gns

echo "== learner fuzz smoke: perfmodel FuzzLearnerMatchesBatchFit =="
lane -run='^$' -fuzz=FuzzLearnerMatchesBatchFit -fuzztime=10s ./internal/perfmodel

echo "== kernel fuzz smoke: tensor FuzzKernelsMatchNaive =="
lane -run='^$' -fuzz=FuzzKernelsMatchNaive -fuzztime=10s ./internal/tensor

echo "== fault fuzz smoke: runtime FuzzRingFaults =="
lane -run='^$' -fuzz=FuzzRingFaults -fuzztime=10s ./internal/runtime

echo "== elastic fuzz smoke: runtime FuzzElasticMembership =="
lane -run='^$' -fuzz=FuzzElasticMembership -fuzztime=10s ./internal/runtime

echo "== wire fuzz smoke: allreduce FuzzWireDecode =="
lane -run='^$' -fuzz=FuzzWireDecode -fuzztime=10s ./internal/allreduce

echo "OK"
