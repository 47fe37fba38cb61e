"""Runs the benchmark over several seeds and writes medians, spreads and provenance.

    python3 perfbench/baseline.py

For each of the seeds 1 to 10, every workload of ``BENCHMARK.json`` runs
once untraced (seed-major, so that slow and fast spells of a shared machine
fall on all workloads alike); then each workload runs traced with seed 1.
The result goes to ``perfbench/baseline.json``.  For every metric the
output holds the values, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
which is what a bound in ``BENCHMARK.json`` is compared against.  Also
recorded: the report lines of every run (ops, failures, verdict errors),
and the machine, the interpreter, numpy, scipy, the git commit and whether
``ZMC_THREADS`` was set.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:1]
OUT = HERE / "baseline.json"


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads("\n".join(lines[:-1]))["report"]
    return {"seed": seed, "elapsed_s": elapsed, "result": result, "report": report}


def summarize(runs: list) -> dict:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        entry = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                 "median": statistics.median(values), "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / entry["median"] if entry["median"] else None)
        out[name] = entry
    return out


def provenance(seeds: list) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    import numpy
    import scipy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit or "unknown",
        "seeds": seeds,
        "zmc_threads": os.environ.get("ZMC_THREADS", "unset"),
    }


def main() -> int:
    cfg = bench_config()
    workloads = [w["name"] for w in cfg["workloads"]]
    plain = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            r = run_once(w, seed, cfg["run_seconds"], 0)
            plain[w].append(r)
            print(w, seed, f"{r['elapsed_s']:.1f}s",
                  {k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()},
                  file=sys.stderr, flush=True)
    traced = {w: [run_once(w, s, cfg["run_seconds"], 1)
                  for s in TRACED_SEEDS] for w in workloads}
    doc = {
        "provenance": provenance(SEEDS),
        "run_seconds": cfg["run_seconds"],
        "workloads": {
            w: {
                "end_to_end": summarize(plain[w]),
                "per_layer": summarize(traced[w]) if traced[w] else {},
                "runs": [{"seed": r["seed"], "elapsed_s": r["elapsed_s"],
                          "correct": r["result"]["correct"],
                          "attempted": r["result"]["attempted"],
                          "failed": r["result"]["failed"], "report": r["report"]}
                         for r in plain[w] + traced[w]],
            }
            for w in workloads
        },
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    for w in workloads:
        for name, e in doc["workloads"][w]["end_to_end"].items():
            print(f"{w:15s} {name:12s} median {e['median']:.4f} spread "
                  f"{e.get('spread') or 0:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
