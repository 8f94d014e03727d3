#!/usr/bin/env python3
"""Self-test of the fleet benchmark at tiny size.

    python3 fleetbench/selftest.py

Run from the root of a checkout; takes under a minute. Checks that:
  - every end-to-end and per-layer metric in BENCHMARK.json is emitted,
    finite and validly named, and every run passes its oracle check;
  - the simulated (sim) metrics repeat exactly across two runs with the
    same seed, and across PSCP_JIT=off and PSCP_JIT=always (the binary
    itself also fails a run whose native and interpreter mirrors disagree);
  - in a directory holding only BENCHMARK.json and fleetbench/, run.py
    exits non-zero without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own entry point)

TINY = ["--scale", "0.02", "--seconds", "0.4"]
SIM_METRICS = ("fleet.quiescent_share", "pscp.machine_cycles_per_lockstep_cycle",
               "pscp.bus_stall_cycles_per_lockstep_cycle", "sla.selected_per_decode")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

problems = []


def check(ok, what):
    if not ok:
        problems.append(what)
        print(f"FAIL {what}", flush=True)


def tiny_run(binary, out_dir, workload, trace, seed=7, jit=None):
    env = dict(os.environ)
    env.pop("PSCP_JIT", None)
    if jit is not None:
        env["PSCP_JIT"] = jit
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out", str(out_dir)] + TINY
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=170)
    result = run.result_line(done.stdout)
    label = f"{workload} trace={trace} jit={jit or 'default'}"
    check(done.returncode == 0 and result is not None,
          f"{label}: exit {done.returncode} {done.stdout[-300:]} {done.stderr[-300:]}")
    if result is None:
        return {}
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: oracle or accounting failed: {done.stdout[-300:]}")
    return result["metrics"]


def check_metrics(metrics, wanted, label):
    for spec in wanted:
        m = metrics.get(spec["name"])
        check(m is not None, f"{label}: {spec['name']} missing")
        if m is None:
            continue
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{label}: {spec['name']} is not finite")
        check(m["unit"] == spec["unit"], f"{label}: {spec['name']} unit {m['unit']}")
    for name, m in metrics.items():
        check(NAME.fullmatch(name) is not None, f"{label}: bad metric name {name!r}")
        check(UNIT.fullmatch(m["unit"]) is not None, f"{label}: bad unit {m['unit']!r}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    out_dir = Path(os.path.abspath(".bench_out")) / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)

    for workload in run.WORKLOADS:
        print(f"selftest: {workload}", flush=True)
        check_metrics(tiny_run(binary, out_dir, workload, 0), spec["end_to_end"],
                      f"{workload} trace=0")
        first = tiny_run(binary, out_dir, workload, 1)
        check_metrics(first, spec["per_layer"], f"{workload} trace=1")
        for label, again in (("rerun", tiny_run(binary, out_dir, workload, 1)),
                             ("jit=off", tiny_run(binary, out_dir, workload, 1, jit="off")),
                             ("jit=always", tiny_run(binary, out_dir, workload, 1, jit="always"))):
            for name in SIM_METRICS:
                a = first.get(name, {}).get("value")
                b = again.get(name, {}).get("value")
                check(a is not None and a == b, f"{workload}: sim {name} {a} vs {b} ({label})")

    stripped = out_dir / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(run.HERE, stripped / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    done = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "smd_busy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=stripped, capture_output=True, text=True, timeout=170)
    check(done.returncode != 0 and run.result_line(done.stdout) is None,
          f"stripped directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    shutil.rmtree(stripped, ignore_errors=True)

    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
