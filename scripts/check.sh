#!/usr/bin/env bash
# Tier-1 verify plus a ThreadSanitizer pass over the concurrency-heavy
# tests (DESIGN.md §8, §9), an AddressSanitizer pass over the kernel tests
# (DESIGN.md §15) and the byte decoders (DESIGN.md §11) and a bench smoke
# against the committed hot-path baseline.
#
#   scripts/check.sh              # full: tier-1 build+ctest, socket subset, TSan subset, ASan kernels+decoders, bench (executor, Relu-vs-copy, serving) + profiler + optimizer + input smoke
#   scripts/check.sh --tsan-only
#   scripts/check.sh --asan-only  # also accepted as --asan-kernels
#   scripts/check.sh --bench-only
#   scripts/check.sh --socket-only
#   scripts/check.sh --profiler-only
#   scripts/check.sh --optimizer-only
#   scripts/check.sh --input-only
#
# The TSan and ASan builds live in build-tsan/ and build-asan/ so they
# never pollute the regular build/ tree.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
TSAN_TESTS=(metrics_test tracing_test fault_tolerance_test queue_test
            threadpool_test rendezvous_stress_test chaos_test
            serving_test session_stress_test optimizer_fuzz_test
            dataset_test data_service_test)
# Three chaos seeds and five fuzz seeds under TSan keep the pass under a
# few minutes; the full sweeps run in the regular tier-1 ctest.
declare -A TSAN_FILTER=(
  [chaos_test]="--gtest_filter=ChaosTest.Seed0:ChaosTest.Seed1:ChaosTest.Seed2"
  [optimizer_fuzz_test]="--gtest_filter=OptimizerFuzzTest.Seed0:OptimizerFuzzTest.Seed1:OptimizerFuzzTest.Seed2:OptimizerFuzzTest.Seed3:OptimizerFuzzTest.Seed4"
)

run_tier1() {
  echo "== tier-1: configure + build + ctest =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")
}

# Socket-transport subset (DESIGN.md §11): the distributed suite re-run
# with every task as a real worker_main process, plus the SIGKILL chaos
# smoke. Both are also tier-1 ctest entries (distributed_socket_test,
# socket_chaos_test); this target runs them standalone with hard timeouts
# so a wedged worker process can never hang the check.
run_socket() {
  echo "== socket transport: distributed_test over real processes + SIGKILL chaos =="
  cmake --build build -j "$JOBS" --target distributed_test socket_chaos_test worker_main
  TFREPRO_TRANSPORT=socket TFREPRO_WORKER_BINARY="$PWD/build/bin/worker_main" \
      timeout 300 ./build/tests/distributed_test
  TFREPRO_WORKER_BINARY="$PWD/build/bin/worker_main" \
      timeout 120 ./build/tests/socket_chaos_test
}

run_tsan() {
  echo "== TSan (TFREPRO_SANITIZE=thread): ${TSAN_TESTS[*]} =="
  cmake -B build-tsan -S . -DTFREPRO_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
  for t in "${TSAN_TESTS[@]}"; do
    echo "-- $t (tsan)"
    "build-tsan/tests/$t" ${TSAN_FILTER[$t]:-}
  done
}

# ASan over the kernels and the decoders. Kernels: the GEMM's packing
# tails and the im2col/col2im chunk edges are where an out-of-bounds read
# would come from, and the reference sweeps in kernels_test walk every
# ragged edge. Decoders: codec_fuzz_test feeds every core/bytes.h decoder
# truncated and mutated input; the tensor, rpc, profiler (StepStats) and
# train (checkpoint) tests cover their round trips.
ASAN_TESTS=(kernels_test nn_test gradients_test codec_fuzz_test tensor_test
            rpc_transport_test profiler_test train_test)
run_asan() {
  echo "== ASan (TFREPRO_SANITIZE=address): ${ASAN_TESTS[*]} =="
  cmake -B build-asan -S . -DTFREPRO_SANITIZE=address
  cmake --build build-asan -j "$JOBS" --target "${ASAN_TESTS[@]}"
  for t in "${ASAN_TESTS[@]}"; do
    echo "-- $t (asan)"
    "build-asan/tests/$t"
  done
}

# Bench smoke: re-run bench_executor and fail if null-step latency
# (BM_CachedStepOverhead) or the fused-chain latency (BM_NullOpChain/1000,
# the elementwise-fusion acceptance gate) regressed >25% against the
# committed "after" baseline in BENCH_executor.json. A generous bound —
# this is a tripwire for "someone re-introduced a lock on the hot path"
# or "fusion stopped firing", not a precision benchmark; CI containers
# are noisy.
run_bench_smoke() {
  echo "== bench smoke: BM_CachedStepOverhead + BM_NullOpChain vs BENCH_executor.json =="
  cmake --build build -j "$JOBS" --target bench_executor
  local fresh=/tmp/bench_smoke_executor.json
  # TFREPRO_PROFILE_EVERY=0 pins the sampling profiler off: the null-step
  # gate doubles as the profiler's disabled-overhead guard — a profiler
  # that costs anything when disabled trips the same >25% tripwire.
  TFREPRO_PROFILE_EVERY=0 ./build/bench/bench_executor --json "$fresh" \
      --benchmark_filter='BM_CachedStepOverhead|BM_NullOpChain/1000' \
      --benchmark_min_time=0.2
  python3 - "$fresh" BENCH_executor.json <<'PYEOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))

def wall_ms(doc, name):
    for r in doc["results"]:
        if r["name"] == name:
            return r["wall_ms"]
    raise SystemExit(f"bench smoke: {name} missing from results")

failed = False
for name, what in [("BM_CachedStepOverhead", "null-step latency"),
                   ("BM_NullOpChain/1000", "fused-chain latency")]:
    new = wall_ms(fresh, name)
    old = wall_ms(baseline["after"], name)
    ratio = new / old
    print(f"bench smoke: {what} {new*1e6:.0f}ns vs baseline "
          f"{old*1e6:.0f}ns ({ratio:.2f}x)")
    if ratio > 1.25:
        print(f"bench smoke FAILED: {what} regressed >25% ({ratio:.2f}x)")
        failed = True
if failed:
    raise SystemExit(1)
print("bench smoke: ok")
PYEOF
}

# Memory-bound kernel smoke (DESIGN.md §15): BM_Relu over the convnet's
# conv1 activations ([64,16,16,16], mixed signs) against BM_Copy, which
# fetches the same bytes through an Identity, so both rows pay the same
# session Run and fetch copy. A Relu whose loop branches per element
# (mispredicting on mixed signs) costs about 30x the copy; the branch-free
# loop about 2x. The bound is a ratio of two rows of one run, so it does
# not move with the host's speed.
run_kernel_ratio_smoke() {
  echo "== bench smoke: BM_Relu/conv1 <= 5x BM_Copy/conv1 =="
  cmake --build build -j "$JOBS" --target bench_micro
  local fresh=/tmp/bench_smoke_micro.json
  ./build/bench/bench_micro --json "$fresh" \
      --benchmark_filter='^BM_(Relu|Copy)/conv1$' --benchmark_min_time=0.2
  python3 - "$fresh" <<'PYEOF'
import json, sys

fresh = json.load(open(sys.argv[1]))

def wall_ms(name):
    for r in fresh["results"]:
        if r["name"] == name:
            return r["wall_ms"]
    raise SystemExit(f"bench smoke: {name} missing from results")

relu, copy = wall_ms("BM_Relu/conv1"), wall_ms("BM_Copy/conv1")
ratio = relu / copy
print(f"bench smoke: Relu {relu*1e3:.0f}us vs copy {copy*1e3:.0f}us "
      f"({ratio:.2f}x)")
if ratio > 5.0:
    raise SystemExit(f"bench smoke FAILED: Relu costs {ratio:.2f}x a copy "
                     "of its bytes (bound 5x)")
print("bench smoke: ok")
PYEOF
}

# Serving bench smoke: short closed-loop run; fail if batched serving
# throughput fell >25% below the committed BENCH_serving.json baseline.
# Same philosophy as the executor smoke — a tripwire for "the batcher
# stopped batching", not a precision benchmark.
run_serving_bench_smoke() {
  echo "== bench smoke: serve_batched vs BENCH_serving.json =="
  cmake --build build -j "$JOBS" --target bench_serving
  local fresh=/tmp/bench_smoke_serving.json
  ./build/bench/bench_serving --seconds 1.5 --json "$fresh"
  python3 - "$fresh" BENCH_serving.json <<'PYEOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))

def row(doc, name):
    for r in doc["results"]:
        if r["name"] == name:
            return r
    raise SystemExit(f"bench smoke: {name} missing from results")

new = row(fresh, "serve_batched")["steps_per_s"]
old = row(baseline, "serve_batched")["steps_per_s"]
ratio = new / old
print(f"bench smoke: batched serving {new:.0f} req/s vs baseline "
      f"{old:.0f} req/s ({ratio:.2f}x)")
if ratio < 0.75:
    raise SystemExit("bench smoke FAILED: batched serving throughput "
                     f"regressed >25% ({ratio:.2f}x)")
print("bench smoke: ok")
PYEOF
}

# Optimizer smoke (DESIGN.md §13): the differential harness in brief.
# Five fuzz seeds compare optimized vs unoptimized executions bit-for-bit,
# then the MLP training example runs twice — optimizer tier off vs on —
# and the two loss trajectories (hex floats, one per step) must be
# byte-identical. Any numeric divergence introduced by a rewrite pass
# fails the diff.
run_optimizer_smoke() {
  echo "== optimizer smoke: fuzz seeds 0-4 + mlp_training loss diff (tier off vs on) =="
  cmake --build build -j "$JOBS" --target optimizer_fuzz_test mlp_training
  ./build/tests/optimizer_fuzz_test \
      --gtest_filter='OptimizerFuzzTest.Seed0:OptimizerFuzzTest.Seed1:OptimizerFuzzTest.Seed2:OptimizerFuzzTest.Seed3:OptimizerFuzzTest.Seed4'
  local off=/tmp/mlp_loss_off.txt on=/tmp/mlp_loss_on.txt
  TFREPRO_OPTIMIZER=off ./build/examples/mlp_training --steps 50 --loss-out "$off"
  ./build/examples/mlp_training --steps 50 --loss-out "$on"
  if ! cmp -s "$off" "$on"; then
    echo "optimizer smoke FAILED: loss trajectories diverge with tier on"
    diff "$off" "$on" | head -20
    exit 1
  fi
  echo "optimizer smoke: $(wc -l < "$on") steps, trajectories identical — ok"
}

# Input-pipeline smoke (DESIGN.md §14): a fresh bench_input run must hold
# the tentpole's acceptance ratio — in-graph pipeline throughput >= 2x the
# feed-dict baseline on the latency-bound workload (the real ratio runs
# ~5-7x; 2x leaves room for CI noise) — and the data-service chaos test
# must pass under two different kill schedules (TFREPRO_CHAOS_SEED).
run_input_smoke() {
  echo "== input smoke: bench_input pipeline >= 2x feed_dict + data-service chaos seeds =="
  cmake --build build -j "$JOBS" --target bench_input data_service_test
  local fresh=/tmp/bench_smoke_input.json
  timeout 120 ./build/bench/bench_input --seconds 1.5 --json "$fresh"
  python3 - "$fresh" <<'PYEOF'
import json, sys

fresh = json.load(open(sys.argv[1]))

def rate(name):
    for r in fresh["results"]:
        if r["name"] == name:
            return r["steps_per_s"]
    raise SystemExit(f"input smoke: {name} missing from results")

pipeline, feed = rate("pipeline"), rate("feed_dict")
ratio = pipeline / feed
print(f"input smoke: pipeline {pipeline:.0f} steps/s vs feed_dict "
      f"{feed:.0f} steps/s ({ratio:.2f}x)")
if ratio < 2.0:
    raise SystemExit(f"input smoke FAILED: pipeline < 2x feed_dict ({ratio:.2f}x)")
print("input smoke: ok")
PYEOF
  for seed in 1 2; do
    echo "-- data_service_test (chaos seed $seed)"
    TFREPRO_CHAOS_SEED="$seed" timeout 120 ./build/tests/data_service_test \
        --gtest_filter='DataServiceTest.KillingPipelineTaskMidEpochLosesNothing'
  done
}

# Profiler smoke (DESIGN.md §12): run the distributed training example
# with sampling enabled and check the dumped profile is well-formed —
# sampled steps were taken and per-node entries aggregated.
run_profiler_smoke() {
  echo "== profiler smoke: distributed_training --profile-out =="
  cmake --build build -j "$JOBS" --target distributed_training
  local profile=/tmp/profiler_smoke.json
  rm -f "$profile"
  TFREPRO_PROFILE_EVERY=5 timeout 300 \
      ./build/examples/distributed_training --profile-out "$profile"
  python3 - "$profile" <<'PYEOF'
import json, sys

profile = json.load(open(sys.argv[1]))
steps = profile["steps"]
entries = profile["entries"]
if steps <= 0:
    raise SystemExit("profiler smoke FAILED: no sampled steps recorded")
if not entries:
    raise SystemExit("profiler smoke FAILED: no profile entries aggregated")
bad = [e for e in entries if e["count"] <= 0 or e["mean_us"] < 0]
if bad:
    raise SystemExit(f"profiler smoke FAILED: malformed entries {bad[:3]}")
print(f"profiler smoke: {steps} sampled steps, {len(entries)} entries — ok")
PYEOF
}

case "${1:-}" in
  --tsan-only)
    run_tsan
    ;;
  --asan-only|--asan-kernels)
    run_asan
    ;;
  --bench-only)
    run_bench_smoke
    run_kernel_ratio_smoke
    run_serving_bench_smoke
    ;;
  --socket-only)
    run_socket
    ;;
  --profiler-only)
    run_profiler_smoke
    ;;
  --optimizer-only)
    run_optimizer_smoke
    ;;
  --input-only)
    run_input_smoke
    ;;
  *)
    run_tier1
    run_socket
    run_tsan
    run_asan
    run_bench_smoke
    run_kernel_ratio_smoke
    run_serving_bench_smoke
    run_profiler_smoke
    run_optimizer_smoke
    run_input_smoke
    ;;
esac
echo "check.sh: all green"
