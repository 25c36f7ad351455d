#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (perfbench/msc_perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload noise_merge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/CMakeLists.txt (which
compiles the library from ../src) into .bench_build/perfbench, runs the
benchmark program once, checks that the metric names it printed are the
ones BENCHMARK.json lists for that mode, and forwards its output. The
last stdout line is the result object. Build output goes to
.bench_build/perfbench/build.log and is shown only when the build fails.

--self-test checks the benchmark itself: a flipped output byte is
counted as a failed job, every workload prints exactly the metric names
of BENCHMARK.json in both modes, a second seed changes the inputs and
still passes, and an MSC_* override variable stops a run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
BINARY = BUILD_DIR / "msc_perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_step(cmd, log):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    log.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "build.log", "w") as log:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not build_step(cmd, log):
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if not build_step(["cmake", "--build", str(BUILD_DIR), "--target", "msc_perfbench",
                           "-j", jobs], log):
            fail("build failed")


def expected_names(trace):
    spec = json.loads(BENCHMARK_JSON.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(workload, seed, seconds, trace, extra=(), env=None):
    """Run the program; return (exit code, stdout lines, parsed result or None)."""
    work_dir = BUILD_DIR / f"run-{os.getpid()}-{workload}-{seed}-{trace}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work_dir),
           *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: the benchmark did not finish within 170 s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def names_match(result, trace):
    want = expected_names(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    return got == want


def measure(args):
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    build()
    code, lines, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    body = lines[:-1] if result is not None else lines
    for line in body:
        print(line)
    sys.stdout.flush()
    if result is None:
        fail(f"the benchmark printed no result (exit code {code})")
    if not names_match(result, args.trace):
        fail("printed metric names or units differ from BENCHMARK.json")
    # A failed job still shows its result, but the run does not pass.
    print(lines[-1])
    if code != 0:
        sys.exit(code)


def self_test():
    build()
    workloads = [w["name"] for w in json.loads(BENCHMARK_JSON.read_text())["workloads"]]
    problems = []

    # 1. A flipped output byte must count as a failed job.
    code, _, result = run_once("volume_guarded", 1, 2, 0, extra=["--corrupt-job", "1"])
    if code == 0 or result is None or result["failed"] < 1 or result["correct"]:
        problems.append("a flipped output byte was not counted as a failed job")

    # 2. Names match BENCHMARK.json in both modes; 3. a second seed
    # changes the inputs and still passes every check.
    for w in workloads:
        digests = {}
        for trace, seed in ((0, 1), (1, 2)):
            code, lines, result = run_once(w, seed, 1, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{w} seed {seed} trace {trace}: run failed (exit {code})")
                continue
            if not names_match(result, trace):
                problems.append(f"{w} trace {trace}: metric names differ from BENCHMARK.json")
            for line in lines:
                if line.startswith("workload:"):
                    digests[seed] = [f for f in line.split() if f.startswith("input_digest=")]
        if len(digests) == 2 and digests[1] == digests[2]:
            problems.append(f"{w}: seeds 1 and 2 gave the same input")

    # 4. An MSC_* override variable stops the run before it measures.
    env = dict(os.environ, MSC_PREMERGE="0")
    code, _, result = run_once("jet_compute", 1, 1, 0, env=env)
    if code == 0 or result is not None:
        problems.append("an MSC_* override variable did not stop the run")

    for p in problems:
        print(f"self-test: FAILED {p}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    else:
        measure(args)


if __name__ == "__main__":
    main()
