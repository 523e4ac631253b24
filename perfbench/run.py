#!/usr/bin/env python3
"""Layer-by-layer AVT benchmark: one command per (workload, seed).

    python3 perfbench/run.py --workload churn-300k --seed 1 --seconds 10 --trace 0

Builds avt_perfbench from source (library in src/, program in perfbench/)
under .bench_build/perfbench, generates the workload's seeded .avtb input
once per (workload, seed) and caches it there, then replays it in a child
process that runs only this workload, so its peak RSS is the workload's
own. --trace 0 prints the end-to-end metrics; --trace 1 runs the same
replay untraced and then traced, and prints the per-layer split plus the
tracing overhead. Every run verifies outputs; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. Exit status is
non-zero on a failed transaction, a verification mismatch, a degenerate
main workload, or when the library sources are missing. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "avt_perfbench")
INPUTS = os.path.join(BUILD, "inputs")
WORKLOADS = ("churn-300k", "window-200k-durable", "cold-1m", "er-adversarial")
RUN_BUDGET_S = 170  # everything after the build must end within this

class BenchError(Exception):
    """Ends the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as out:
        result = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT, timeout=timeout)
    if result.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-3000:]
        raise BenchError(f"{cmd[0]} failed (exit {result.returncode}):\n{tail}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found: expected "
                         f"{os.path.join(ROOT, 'src')} next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"), 600)
    run_logged(["cmake", "--build", BUILD, "-j2"],
               os.path.join(BUILD, "build.log"), 880)


def child(args, deadline):
    """Runs avt_perfbench and returns (exit code, stdout lines)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        result = subprocess.run([BINARY] + args, cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"avt_perfbench {args[0]} ran out of time")
    if result.stderr:
        log(result.stderr.rstrip())
    return result.returncode, result.stdout.splitlines()


def ensure_input(workload, seed, deadline):
    """Generates the (workload, seed) input once; later runs reuse it."""
    os.makedirs(INPUTS, exist_ok=True)
    stem = os.path.join(INPUTS, f"{workload}-{seed}")
    log_path, meta_path = stem + ".avtb", stem + ".meta"
    if not (os.path.isfile(log_path) and os.path.isfile(meta_path)):
        tmp = f"{stem}.tmp{os.getpid()}"
        try:
            code, _ = child(["gen", f"--workload={workload}", f"--seed={seed}",
                             f"--out={tmp}.avtb", f"--meta={tmp}.meta"],
                            deadline)
            if code != 0:
                raise BenchError(f"input generation failed (exit {code})")
            os.replace(tmp + ".avtb", log_path)
            os.replace(tmp + ".meta", meta_path)
        finally:
            for leftover in (tmp + ".avtb", tmp + ".meta"):
                if os.path.exists(leftover):
                    os.remove(leftover)
    with open(meta_path) as f:
        shape = json.loads(f.readline())
    return log_path, meta_path, stem + ".digest", shape


def replay(workload, seed, seconds, paths, deadline, setups=None, trace=None):
    log_path, meta_path = paths
    workdir = os.path.join(BUILD, "work", f"{workload}-{seed}-{os.getpid()}")
    args = ["run", f"--workload={workload}", f"--seed={seed}",
            f"--input={log_path}", f"--meta={meta_path}",
            f"--seconds={seconds}", f"--workdir={workdir}"]
    if setups is not None:
        args.append(f"--setups={setups}")
    if trace is not None:
        args.append(f"--trace={trace}")
    try:
        code, lines = child(args, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    if code == 3:
        raise BenchError(f"{workload} is degenerate on seed {seed}: empty "
                         "k-core or a snapshot with zero followers")
    if not lines or not lines[-1].startswith("{"):
        raise BenchError(f"avt_perfbench run failed (exit {code})")
    result = json.loads(lines[-1])
    result["exit_code"] = code
    return result


def check_digest(digest_path, results):
    """The anchor track of one seed must repeat exactly across runs."""
    digests = {r["digest"] for r in results}
    if os.path.isfile(digest_path):
        with open(digest_path) as f:
            digests.add(f.read().strip())
    else:
        with open(digest_path, "w") as f:
            f.write(results[0]["digest"] + "\n")
    return len(digests) == 1


def metric_units():
    """(end-to-end, per-layer) metric names and units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        log_path, meta_path, digest_path, shape = ensure_input(
            args.workload, args.seed, deadline)
        paths = (log_path, meta_path)
        if args.trace:
            # Same replay untraced, then traced: the difference is the
            # tracing overhead.
            plain = replay(args.workload, args.seed, args.seconds, paths,
                           deadline, setups=1)
            traced = replay(args.workload, args.seed, args.seconds, paths,
                            deadline, trace=os.path.join(
                                BUILD, f"spans-{args.workload}-{args.seed}.jsonl"))
            results = [plain, traced]
        else:
            results = [replay(args.workload, args.seed, args.seconds, paths,
                              deadline)]
    except BenchError as error:
        log(f"error: {error}")
        return 1

    end_to_end, per_layer = metric_units()
    main_run = results[-1]
    shape.update(kcore=main_run["kcore"], kshell=main_run["kshell"])
    print(f"input {args.workload} seed {args.seed}: " + ", ".join(
        f"{key}={value}" for key, value in shape.items()))
    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results)
    digest_ok = check_digest(digest_path, results)
    if not digest_ok:
        print("MISMATCH anchor-track digest differs from an earlier run "
              "of this seed")
        failed += 1
    correct = failed == 0 and all(r["exit_code"] == 0 for r in results)

    if args.trace:
        layers = dict(main_run["layers"])
        layers["trace.overhead_pct"] = 100.0 * (
            main_run["prefix_p50_ms"] / results[0]["prefix_p50_ms"] - 1.0)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer}
    else:
        metrics = {name: {"value": main_run[name], "unit": unit}
                   for name, unit in end_to_end}
    print(f"deltas={int(main_run['deltas'])} "
          f"tail=p{main_run['delta_tail_pct']:.2f} "
          f"setups={int(main_run['setups'])} "
          f"failed_frac={failed / max(attempted, 1):.6f} "
          f"digest={main_run['digest']}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
