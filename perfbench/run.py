#!/usr/bin/env python3
"""End-to-end benchmark of jstraced (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload batch_wild_mix --seed 1 \
        --seconds 10 --trace 0

Builds jstbench and jstraced-server from ../src into $CARGO_TARGET_DIR
(default .bench_build), trains the detectors three times in separate
processes (setup_s takes the median), runs the workload, and prints as
its last stdout line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones (from a traced run). The
line before it stamps the environment, per-phase failure tallies and the
correctness digests.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_wild_mix", "daemon_open_loop", "snapshot_recrawl")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
TRAINING_RUNS = 3
DEADLINE_S = 175.0  # a run must end within 180 s once built


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(command, timeout, **kwargs):
    """Runs a command in its own process group; kills the group on timeout."""
    process = subprocess.Popen(command, cwd=ROOT, start_new_session=True,
                               stdout=subprocess.PIPE, **kwargs)
    try:
        out, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail(f"timed out: {' '.join(command)}", 3)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    return process.returncode, out.decode()


def build(build_dir, jobs):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], 300,
                            stderr=sys.stderr)
        if code != 0:
            fail("cmake configure failed", 4)
    code, _ = run_quiet(["cmake", "--build", build_dir, "-j", str(jobs),
                         "--target", "jstbench", "jstraced-server"], 850,
                        stderr=sys.stderr)
    if code != 0:
        fail("build failed", 4)


def revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("jstraced sources (src/) not found next to perfbench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    lanes = len(os.sched_getaffinity(0))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.relpath(os.path.join(ROOT, target), ROOT)
    build_dir = os.path.join(build_root, "perfbench-" + BUILD_TYPE.lower())
    build(build_dir, lanes)
    built = time.monotonic()
    jstbench = os.path.join(build_dir, "jstbench")
    server = os.path.join(build_dir, "jst", "server", "jstraced-server")

    work_dir = os.path.join(build_root, "runs",
                            f"{args.workload}-{os.getpid()}")
    shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work_dir))
    env = dict(os.environ, JST_THREADS=str(lanes))
    try:
        # Set-up cost 1: training at the fixed scale, measured several times.
        train_s = []
        models = []
        model_paths = [os.path.join(work_dir, f"model-{i}.bin")
                       for i in range(TRAINING_RUNS)]
        for model in model_paths:
            code, out = run_quiet([jstbench, "train", "--out", model],
                                  DEADLINE_S - (time.monotonic() - built),
                                  env=env, stderr=sys.stderr)
            if code != 0:
                fail("training failed", 5)
            train_s.append(json.loads(out.strip().splitlines()[-1])["train_s"])
            with open(os.path.join(ROOT, model), "rb") as handle:
                models.append(handle.read())
        deterministic = all(blob == models[0] for blob in models)

        code, out = run_quiet(
            [jstbench, "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--model", model_paths[0],
             "--server", server, "--work-dir", work_dir,
             "--trace-dir", os.path.join(build_root, "traces"),
             "--lanes", str(lanes)],
            DEADLINE_S - (time.monotonic() - built), env=env,
            stderr=sys.stderr)
        if code != 0 or not out.strip():
            fail(f"jstbench exited with status {code}", 5)
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)

    errors = list(result["errors"])
    if not deterministic:
        errors.append("the training runs produced different models")
    source = dict(result["end_to_end"] if not args.trace
                  else result["per_layer"])
    source["setup_s"] = {
        "value": statistics.median(train_s) + result["setup_inproc_s"],
        "unit": "s"}
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in source:
            fail(f"workload {args.workload} did not report {name}", 6)
        metrics[name] = {"value": source[name]["value"],
                         "unit": metric["unit"]}

    correct = bool(result["correct"]) and not errors
    print(json.dumps({
        "env": dict(result["env"], seed=args.seed, workload=args.workload,
                    seconds=args.seconds, trace=args.trace,
                    revision=revision(), train_s=train_s),
        "phases": result["phases"],
        "digests": result["digests"],
        "errors": errors,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
