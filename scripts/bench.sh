#!/bin/sh
# Runtime performance trajectory: runs the live-execution and kernel
# benchmarks and writes BENCH_runtime.json so successive commits can be
# compared.
#
#   scripts/bench.sh            # writes BENCH_runtime.json in the repo root
#   BENCHTIME=5x scripts/bench.sh
#   COUNT=3 scripts/bench.sh    # repetitions per benchmark (min is kept)
#   CPUS=1,4 scripts/bench.sh   # override the GOMAXPROCS sweep
#   BENCH_ONLY=allreduce scripts/bench.sh
#                               # collective lanes only: runs the allreduce
#                               # and ring-transport benchmarks, writes
#                               # BENCH_allreduce.json (never the committed
#                               # file), and gates with benchcheck -only
#                               # allreduce — the quick loop for collective
#                               # engine work
#
# Every benchmark runs COUNT times per GOMAXPROCS value in the sweep and
# the MINIMUM ns/op across repetitions is recorded: the minimum is the
# least noisy estimator of the true cost on a shared host, because
# scheduler interference only ever adds time. Crucially, the repetitions
# come from COUNT *separate* `go test -count 1` invocations rather than one
# `-count N` run: go groups -count repetitions of the same leaf
# back-to-back, so a seconds-long host-load burst poisons every sample of
# whichever leaf it lands on (and the sim/live ratio rows would compare
# measurements taken minutes apart). Interleaving whole invocations spaces
# each leaf's samples across the lane's full duration, so a burst costs at
# most one sample per leaf and the min survives. The file records
# like-for-like entries: "host_cores" is the machine's true core count and
# each entry carries the "cpu" it ran at. scripts/benchcheck applies the
# policy (live >= sequential on like-for-like rows, all-reduce
# non-increasing in cpu — every algorithm at dim=1024, ring/auto at the
# large dims —, auto >= 2x over the committed ring rows at w8/dim1024,
# hot-join within 1.25x of the equivalent checkpoint-handed split run) and,
# when a committed BENCH_runtime.json exists in HEAD, gates the trajectory
# against it (>15% regression on any matching row fails).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
# The dim=1024 all-reduce op costs ~1.5 us: at "3x" each sample is the mean
# of 3 iterations, pure scheduler noise. A time-based benchtime gives the
# tiny ops tens of thousands of iterations per sample. The big dims stay on
# the iteration-based BENCHTIME so their methodology (min of short runs)
# matches the committed baseline the trajectory gate compares against.
SMALL_BENCHTIME="${SMALL_BENCHTIME:-0.1s}"
KERNEL_BENCHTIME="${KERNEL_BENCHTIME:-20x}"
COUNT="${COUNT:-5}"
TRAIN_COUNT="${TRAIN_COUNT:-$COUNT}"
# The small lane's rows feed the tightest monotone gate (1.05x across the
# GOMAXPROCS sweep on ~1 us ops, where a single run-to-run mode shift is
# ~10%), so it takes twice the repetitions: the lane is cheap (~10 s per
# invocation) and the min only converges to the fast mode with enough
# samples at every cpu value.
SMALL_COUNT="${SMALL_COUNT:-$((COUNT * 2))}"
# The large-dim allreduce and ring-transport lanes also feed monotone /
# ratio gates but keep the iteration-based BENCHTIME (their methodology
# must match the committed baseline the trajectory gate compares against —
# the ring transport's concurrent path is bimodal, so a time-based sample
# would record the steady-state mix where the baseline recorded
# min-of-short-runs and every comparison would be apples-to-oranges).
# Robustness comes from doubled
# repetitions instead: both lanes are cheap relative to the train matrix.
LARGE_COUNT="${LARGE_COUNT:-$((COUNT * 2))}"
# The kernel lane is pure unchanged compute, but this host drifts through
# multi-minute slow phases (~20% off the floor); extra interleaved reps
# stretch the lane past a phase so the min survives one.
KERNEL_COUNT="${KERNEL_COUNT:-$((COUNT + 3))}"
CPUS="${CPUS:-1,2,4}"
BENCH_ONLY="${BENCH_ONLY:-}"
case "$BENCH_ONLY" in
""|allreduce) ;;
*) echo "bench.sh: unknown BENCH_ONLY=$BENCH_ONLY (want allreduce)" >&2; exit 1 ;;
esac
OUT="BENCH_runtime.json"
# The filtered run writes a sidecar file: a collective-only sweep must never
# masquerade as the committed full trajectory.
[ "$BENCH_ONLY" = allreduce ] && OUT="BENCH_allreduce.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
RAW="$TMP/raw.txt"

HOST_CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

# Snapshot the committed benchmark file (if any) before overwriting, so the
# new results can be gated against the trajectory.
BASE=""
if git show HEAD:BENCH_runtime.json > "$TMP/base.json" 2>/dev/null; then
	BASE="$TMP/base.json"
fi

# reps N BENCHTIME PKG PATTERN — run the benchmark N times as separate
# single-count invocations (see the interleaving rationale above).
reps() {
	_n=$1; _bt=$2; _pkg=$3; _pat=$4; _i=0
	while [ "$_i" -lt "$_n" ]; do
		_i=$((_i + 1))
		go test -run '^$' -bench "$_pat" \
			-benchtime "$_bt" -count 1 -cpu "$CPUS" "$_pkg" | tee -a "$RAW"
	done
}

: > "$RAW"

echo "== small-message allreduce, all algorithms (benchtime $SMALL_BENCHTIME, $SMALL_COUNT interleaved runs, cpu $CPUS) =="
reps "$SMALL_COUNT" "$SMALL_BENCHTIME" . 'BenchmarkAllReduce$/.*/dim1024$'

echo "== large allreduce (benchtime $BENCHTIME, $LARGE_COUNT interleaved runs, cpu $CPUS) =="
reps "$LARGE_COUNT" "$BENCHTIME" . 'BenchmarkAllReduce$/.*/dim(65536|1048576)$'

echo "== ring transport (benchtime $BENCHTIME, $LARGE_COUNT interleaved runs, cpu $CPUS) =="
reps "$LARGE_COUNT" "$BENCHTIME" . 'BenchmarkRingTransport'

if [ -z "$BENCH_ONLY" ]; then
	echo "== live-vs-sequential (benchtime $BENCHTIME, $TRAIN_COUNT interleaved runs, cpu $CPUS) =="
	reps "$TRAIN_COUNT" "$BENCHTIME" . 'BenchmarkTrainMLPLiveVsSequential'

	echo "== elastic join latency (benchtime $BENCHTIME, $TRAIN_COUNT interleaved runs, cpu $CPUS) =="
	reps "$TRAIN_COUNT" "$BENCHTIME" . 'BenchmarkElasticJoin'

	echo "== tensor kernels (benchtime $KERNEL_BENCHTIME, $KERNEL_COUNT interleaved runs, cpu $CPUS) =="
	reps "$KERNEL_COUNT" "$KERNEL_BENCHTIME" ./internal/tensor 'BenchmarkMatMul|BenchmarkMulBT|BenchmarkAddMulAT'
	reps "$KERNEL_COUNT" "$KERNEL_BENCHTIME" ./internal/nn 'BenchmarkLinearForwardBackward|BenchmarkMLPStep$'
fi

awk -v host_cores="$HOST_CORES" -v cpus="$CPUS" '
# go test -cpu appends "-N" (the GOMAXPROCS value) to benchmark names —
# except at GOMAXPROCS 1, where the name is left bare.
function cpuof(name,   c) {
	if (name !~ /-[0-9]+$/) return 1
	c = name; sub(/^.*-/, "", c); return c
}
function stripcpu(name) { sub(/-[0-9]+$/, "", name); return name }
# -count > 1 repeats every benchmark line; keep the minimum ns/op per key
# (scheduler noise only ever adds time, so min is the honest estimate).
function keepmin(arr, key, val) {
	if (!(key in arr) || val + 0 < arr[key] + 0) { arr[key] = val; return 1 }
	return 0
}
# BenchmarkAllReduce/n<N>/dim<D>/<algorithm> rows: the sequential reference
# reduce per worker count, payload, and algorithm (ring, hd, auto).
/^BenchmarkAllReduce\// {
	split($1, parts, "/")
	sub(/^n/, "", parts[2]); sub(/^dim/, "", parts[3])
	alg = parts[4]
	cpu = cpuof(alg); alg = stripcpu(alg)
	key = parts[2] SUBSEP parts[3] SUBSEP alg SUBSEP cpu
	keepmin(arns, key, $3)
	if (!(key in arseen)) { arorder[++arn] = key; arseen[key] = 1 }
}
# BenchmarkRingTransport/<transport> rows: the reduce over the pluggable
# transports; a -hd suffix names the collective algorithm the chan ring ran
# (bare names mean ring); tcp rows carry bytes/hop and msgs
# coalesced per network write as trailing custom metrics (taken from the
# fastest repetition).
/^BenchmarkRingTransport\// {
	split($1, parts, "/")
	tname = parts[2]
	cpu = cpuof(tname); tname = stripcpu(tname)
	talg = "ring"
	if (sub(/-hd$/, "", tname)) talg = "hd"
	bph = 0; mpb = 0
	for (i = 4; i <= NF; i++) {
		if ($i == "bytes/hop") bph = $(i-1)
		if ($i == "msgs/batch") mpb = $(i-1)
	}
	key = tname SUBSEP talg SUBSEP cpu
	if (keepmin(rtns, key, $3)) { rtbph[key] = bph; rtmpb[key] = mpb }
	if (!(key in rtseen)) { rtorder[++rtn] = key; rtseen[key] = 1 }
}
/^BenchmarkTrainMLPLiveVsSequential\// {
	split($1, parts, "/")
	sub(/^w/, "", parts[2])
	backend = parts[3]
	cpu = cpuof(backend); backend = stripcpu(backend)
	key = parts[2] "/" cpu
	keepmin(t, key "/" backend, $3)
	if (!(key in seen)) { order[++n] = key; seen[key] = 1 }
}
# BenchmarkElasticJoin/w<F>to<T>/<leg> rows: the hot-join run (join) vs the
# identical training arithmetic as two checkpoint-handed static runs
# (split); join/split is the elasticity tax benchcheck caps.
/^BenchmarkElasticJoin\// {
	split($1, parts, "/")
	conf = parts[2]
	leg = parts[3]
	cpu = cpuof(leg); leg = stripcpu(leg)
	sub(/^w/, "", conf); split(conf, ft, "to")
	key = ft[1] SUBSEP ft[2] SUBSEP cpu
	keepmin(ejns, key SUBSEP leg, $3)
	if (!(key in ejseen)) { ejorder[++ejn] = key; ejseen[key] = 1 }
}
/^BenchmarkMatMul|^BenchmarkMulBT|^BenchmarkAddMulAT|^BenchmarkLinearForwardBackward|^BenchmarkMLPStep/ {
	name = $1
	cpu = cpuof(name); name = stripcpu(name)
	sub(/^Benchmark/, "", name)
	key = name SUBSEP cpu
	keepmin(kns, key, $3)
	if (!(key in kseen)) { korder[++kn] = key; kseen[key] = 1 }
}
END {
	gp = cpus; gsub(/,/, ", ", gp)
	printf "{\n  \"host_cores\": %s,\n  \"gomaxprocs\": [%s],\n", host_cores, gp
	printf "  \"allreduce\": [\n"
	for (i = 1; i <= arn; i++) {
		key = arorder[i]; split(key, kp, SUBSEP)
		printf "    {\"transport\": \"chan\", \"algorithm\": \"%s\", \"workers\": %s, \"dim\": %s, \"cpu\": %s, \"ns_per_op\": %s}%s\n", \
			kp[3], kp[1], kp[2], kp[4], arns[key], (i < arn) ? "," : ""
	}
	printf "  ],\n"
	printf "  \"train_mlp\": [\n"
	for (i = 1; i <= n; i++) {
		key = order[i]
		split(key, kp, "/")
		speedup = (t[key "/live"] > 0) ? t[key "/sim"] / t[key "/live"] : 0
		printf "    {\"transport\": \"chan\", \"workers\": %s, \"cpu\": %s, \"sim_ns_per_op\": %s, \"live_ns_per_op\": %s, \"live_speedup\": %.4f}%s\n", \
			kp[1], kp[2], t[key "/sim"], t[key "/live"], speedup, (i < n) ? "," : ""
	}
	printf "  ],\n"
	printf "  \"join_latency\": [\n"
	for (i = 1; i <= ejn; i++) {
		key = ejorder[i]; split(key, kp, SUBSEP)
		jns = ejns[key SUBSEP "join"]; sns = ejns[key SUBSEP "split"]
		ratio = (sns > 0) ? jns / sns : 0
		printf "    {\"transport\": \"chan\", \"workers_from\": %s, \"workers_to\": %s, \"cpu\": %s, \"join_ns_per_op\": %s, \"split_ns_per_op\": %s, \"join_over_split\": %.4f}%s\n", \
			kp[1], kp[2], kp[3], jns, sns, ratio, (i < ejn) ? "," : ""
	}
	printf "  ],\n"
	printf "  \"ring_transport\": [\n"
	for (i = 1; i <= rtn; i++) {
		key = rtorder[i]; split(key, kp, SUBSEP)
		printf "    {\"transport\": \"%s\", \"algorithm\": \"%s\", \"workers\": 4, \"dim\": 65536, \"cpu\": %s, \"ns_per_op\": %s, \"bytes_per_hop\": %s, \"msgs_per_batch\": %s}%s\n", \
			kp[1], kp[2], kp[3], rtns[key], rtbph[key], rtmpb[key], (i < rtn) ? "," : ""
	}
	printf "  ],\n"
	printf "  \"kernels\": [\n"
	for (i = 1; i <= kn; i++) {
		key = korder[i]; split(key, kp, SUBSEP)
		printf "    {\"name\": \"%s\", \"cpu\": %s, \"ns_per_op\": %s}%s\n", \
			kp[1], kp[2], kns[key], (i < kn) ? "," : ""
	}
	printf "  ]\n}\n"
}' "$RAW" > "$OUT"

echo "== wrote $OUT =="
cat "$OUT"

# Policy: every configuration present at every GOMAXPROCS value; live >=
# sequential on like-for-like rows (loud failure if no row qualifies);
# all-reduce must not get slower with more cpus (every algorithm at
# dim=1024, ring/auto at the large dims); auto must beat the committed
# ring rows by >= 2x at w8/dim1024; and, against the committed baseline, no
# matching row more than 15% slower. The filtered run checks only the
# collective sections.
ONLY=""
[ "$BENCH_ONLY" = allreduce ] && ONLY="-only allreduce"
if [ -n "$BASE" ]; then
	go run ./scripts/benchcheck $ONLY "$OUT" "$BASE"
else
	echo "== no committed BENCH_runtime.json in HEAD; skipping trajectory gate =="
	go run ./scripts/benchcheck $ONLY "$OUT"
fi
