#!/usr/bin/env python3
"""Fleet benchmark entry point.

Builds the benchmark (and the PSCP library it links) from the sources in
this checkout, runs one workload, and prints the result as the last line
of standard output:

    python3 fleetbench/run.py --workload smd_busy --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and run artefacts (per-run records, span files,
journals) to .bench_out, both relative to the working directory.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("smd_busy", "smd_idle", "smd_sparse")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(message, code=1):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the binary up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no PSCP sources at {ROOT / 'src'}; run from a full checkout", 2)
    build_dir = Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target", "fleetbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
                fail("build failed: " + " ".join(step))
    return build_dir / "fleetbench"


def result_line(text):
    """The last stdout line as a result object, or None."""
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    out_dir = Path(os.path.abspath(".bench_out"))
    out_dir.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out_dir)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")

    result = result_line(done.stdout)
    body = done.stdout.strip().splitlines()[:-1 if result else None]
    for line in body:
        print(line)
    if result is None:
        # The process died without a result, e.g. an instance fault on a
        # pool worker reached std::terminate: report it as a failed run.
        faults = [l for l in done.stderr.splitlines() if "fault" in l or "what()" in l]
        reason = faults[-1] if faults else (done.stderr.strip().splitlines() or ["no output"])[-1]
        print(f"error exit code {done.returncode}: {reason}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        print(f"error metrics missing: {', '.join(missing)}")
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(done.returncode if result["correct"] else max(done.returncode, 1))


if __name__ == "__main__":
    main()
