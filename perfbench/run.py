#!/usr/bin/env python3
"""Builds and runs the repo benchmark, then checks its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--wrong-reference]

Run from the repository root. The first run configures and builds the
library, worker_main and the perfbench binary into .bench_build/perfbench;
later runs rebuild only what changed. Build output and logs go to stderr.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: every end_to_end metric of BENCHMARK.json with
--trace 0, every per_layer metric with --trace 1. APPLIES below names the
workloads each per-layer metric applies to: a workload must report exactly
those, and the others are reported as 0 (that layer is not on the
workload's path).

--wrong-reference corrupts the reference answers the correctness checks
compare against; the run must then report failures.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# The binary's time limit: setups, probes and tear-down, plus the measured
# --seconds with room for a slowed host.
TIMEOUT_BASE_S = 90
TIMEOUT_PER_SECOND = 3
# Idle time before the binary starts. A run started right after a run that
# kept every core busy (another workload, or the build) kept reading higher
# CPU costs for its whole length: serve_open_loop's cpu_us_per_sample by
# 20-40%. After 5 s of idle it read as after a light run.
SETTLE_S = 5

CONVNET = "train_convnet_local"
SYNC = "train_sync_socket"
SERVE = "serve_open_loop"
ALL = {CONVNET, SYNC, SERVE}
# The workloads each per-layer metric applies to (perfbench/README.md says
# how each is measured).
APPLIES = {
    "setup_wall_s": ALL,
    "samples_per_s": ALL,
    "step_p50_ms": ALL,
    "step_p99_ms": ALL,
    "req_p50_ms.low": {SERVE},
    "req_p99_ms.low": {SERVE},
    "req_p50_ms.high": {SERVE},
    "req_p99_ms.high": {SERVE},
    "slo_max_rps": {SERVE},
    "kernels.matmul_nn_gflops": ALL,
    "kernels.matmul_tn_gflops": ALL,
    "kernels.matmul_nt_gflops": ALL,
    "kernels.conv2d_fwd_gflops": ALL,
    "kernels.conv2d_bwd_input_gflops": ALL,
    "kernels.conv2d_bwd_filter_gflops": ALL,
    "kernels.matmul_small_us": ALL,
    "kernels.matmul_ms_per_step": ALL,
    "kernels.conv2d_ms_per_step": {CONVNET},
    "kernels.elementwise_ms_per_step": ALL,
    "kernels.other_ms_per_step": ALL,
    "kernels.flops_per_step": ALL,
    "kernels.bytes_per_step": ALL,
    "runtime.self_ms_per_step": ALL,
    "runtime.nodes_per_step": ALL,
    "runtime.null_step_us": ALL,
    "runtime.compile_ms": ALL,
    "runtime.optimize_ms": ALL,
    "core.threadpool_tasks_per_step": ALL,
    "core.threadpool_task_wait_ms_mean": ALL,
    "core.tensor_codec_mb_per_s": ALL,
    "autodiff.gradients_ms": ALL,
    "data.getnext_wait_ms_per_step": {CONVNET},
    "data.pipeline_records_per_s": ALL,
    "data.service_wait_ms_per_step": {SYNC},
    "distributed.transfers_per_step": {SYNC},
    "distributed.transfer_bytes_per_step": {SYNC},
    "distributed.recv_wait_ms_per_step": {SYNC},
    "distributed.cluster_create_ms": {SYNC},
    "distributed.scaling_efficiency": {SYNC},
    "rpc.bytes_per_sample": {SYNC},
    "rpc.calls_per_step": {SYNC},
    "rpc.call_mean_us": {SYNC},
    "train.queue_block_ms_per_round": {SYNC},
    "train.apply_ms_per_step": {CONVNET, SYNC},
    "serving.batch_size_mean.low": {SERVE},
    "serving.batch_size_mean.high": {SERVE},
    "serving.queue_wait_ms_mean": {SERVE},
    "serving.batch_run_ms_mean": {SERVE},
    "serving.servable_run_us.b1": {SERVE},
    "serving.servable_run_us.b32": {SERVE},
    "serving.gen_lag_p99_ms": {SERVE},
    "trace_overhead_ratio": ALL,
}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, argv, timeout):
    """Runs the binary in its own process group, so a timeout also stops
    the worker processes it started."""
    proc = subprocess.Popen([binary, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"benchmark exceeded {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited with code {proc.returncode}")
    return out.splitlines()


def check_result(result, spec, workload, trace):
    """Validates the binary's result against BENCHMARK.json and APPLIES, and
    fills the per-layer metrics that do not apply to the workload with 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if trace and set(APPLIES) != {m["name"] for m in wanted}:
        raise RuntimeError("APPLIES and BENCHMARK.json name different "
                           "per-layer metrics")
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in units:
            raise RuntimeError(f"metric {name} is not in BENCHMARK.json")
        if metric["unit"] != units[name]:
            raise RuntimeError(f"metric {name} has unit {metric['unit']}, "
                               f"BENCHMARK.json says {units[name]}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"metric {name} has no finite value")
    for name, unit in units.items():
        applies = not trace or workload in APPLIES[name]
        if applies and name not in metrics:
            raise RuntimeError(f"metric {name} is missing")
        if not applies:
            if name in metrics:
                raise RuntimeError(f"metric {name} does not apply to "
                                   f"{workload}, yet it was reported")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    if result["attempted"] < 1:
        raise RuntimeError("nothing was attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise RuntimeError(f"unknown workload {args.workload}")
        binary = build()
        time.sleep(SETTLE_S)
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.wrong_reference:
            argv.append("--wrong-reference")
        lines = run_binary(binary, argv,
                           TIMEOUT_BASE_S + TIMEOUT_PER_SECOND * args.seconds)
        if not lines:
            raise RuntimeError("benchmark printed nothing")
        result = json.loads(lines[-1])
        check_result(result, spec, args.workload, args.trace == 1)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.CalledProcessError) as e:
        log(f"failed: {e}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
