"""zmcgraph benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``jobs.py`` for the job lists):

* ``construct``: ``zmc construct`` for seeded rational c, quartic cases at
  orders 16 to 48 and the cubic case at 12 to 24, with ``bounds`` and
  ``verify`` jobs interleaved.  Exact ``Fraction`` work in ``poly`` and
  ``series``; the grid layers are idle.
* ``classify-exact``: ``zmc classify --coeffs`` with exact signs on series
  built before timing.  ``af_bf_exact`` per grid point; no construction.
* ``mesh-export``: ``zmc mesh`` over series and catalog surfaces up to
  201 x 201 in ASCII PLY, binary PLY and OBJ, plus float ``classify``
  jobs.  Float jets, causal classification and file writing.

Every job is a ``zmcgraph.cli.main(argv)`` call in one workload process
(``worker.py``), one after another: a closed loop with one client and no
extra threads, ``ZMC_THREADS`` unset.  Inputs are made from the seed before
timing.  A pass is a list of 50 timed jobs; each pass draws its own inputs
from the seed and its index.  The number of passes depends only on the
workload and ``--seconds`` (``--seconds`` divided by the pass time on the
reference machine, rounded up, at least two), so that two versions of the
program given the same arguments run the very same jobs.  Outputs are
checked afterwards, untimed.

End-to-end metrics (``--trace 0``), all lower-is-better:

* ``setup_s``: median over nine fresh interpreters of the time to import
  ``zmcgraph`` and finish first-call set-up (``tau_constant()``, the catalog
  registry), after one warm-up interpreter.  Five run before the workload
  process and four after it, so that a short slow spell of the machine
  touches only a few of them.
* ``wall_s``: median over passes of the summed job times of one pass.
* ``job_p50_s``, ``job_tail_s``: median and 90th percentile of per-job
  latency over every timed job of the run.  A run has at least two passes
  of 50 timed jobs, so at least 10 jobs lie beyond the 90th percentile.
* ``peak_rss_mb``: peak resident memory of the workload process.

The result line reports ``attempted`` and ``failed`` over the timed jobs.
A job fails on an uncaught exception, an exit code other than the one it
expects, or an output check that does not hold; ``correct`` is true when
none failed.  Probe jobs hit known defects (``bounds --delta nan`` exits 0;
the ``hyperbolic_catenoid`` default grid samples its cone point and raises
``ZeroDivisionError``).  They run after each pass, untimed, so that a crash
that returns early is never timed as work, and they are counted with the
timed jobs only in the report printed above the result line: ``ops``,
``ops_failed``, ``ops_failed_frac``.  The report also gives
``verdict_error_frac``: the share of sampled grid points of float-path
series jobs (``classify --no-exact`` and series ``mesh`` colours) whose
printed verdict differs from the exact sign of B from ``af_bf_exact``.

``--trace 1`` runs the job list untraced, then again with span wrappers
(``spans.py``) for the same number of passes, and reports per-layer
metrics, plus ``trace.overhead_s``: traced minus untraced ``wall_s``.
Counts and times are per pass, except ``bounds.tau_s`` (first-call set-up,
once per process), ``series.coeff_max_bits`` (largest in the run) and the
ratios, taken over the run; a layer a workload does not use reads 0.
Layer counts and times leave the probe jobs out; ``cli.jobs`` and
``cli.jobs_failed`` count every ``main`` call of a pass, probes included,
as ``ops`` and ``ops_failed`` do.
Times named ``*_s`` are inclusive unless named ``self``.  Spans go to
``.perfbench_out/``.

Exit code 2, and no result line, when the checkout has no ``src/zmcgraph``
or the workload process fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2
# job time of one pass on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11); it fixes how many passes a given --seconds runs
PASS_SECONDS = {"construct": 8.0, "classify-exact": 7.0, "mesh-export": 7.5}
TAIL_PERCENTILE = 90
SETUP_RUNS = (5, 4)  # set-up interpreters before and after the workload process
RUN_DEADLINE_S = 170  # a run must end within 180 s
_START = time.monotonic()

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import zmcgraph
from zmcgraph import bounds, catalog, cli
bounds.tau_constant()
for name in zmcgraph.SURFACE_NAMES:
    catalog.entry(name)
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ZMC_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def remaining() -> float:
    """Seconds a child process may still take before the run's deadline."""
    return max(1.0, RUN_DEADLINE_S - (time.monotonic() - _START))


def measure_setup(runs: int) -> list:
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=remaining(),
        )
        if out.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{out.stderr}")
        times.append(float(out.stdout))
    return times


def run_worker(work: Path, tag: str, spec: dict) -> dict:
    spec = dict(spec, result=str(work / f"result-{tag}.json"))
    path = work / f"spec-{tag}.json"
    path.write_text(json.dumps(spec))
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(path)], cwd=ROOT,
        env=child_env(), capture_output=True, text=True, timeout=remaining(),
    )
    if out.returncode != 0:
        raise BenchError(f"workload process failed:\n{out.stderr[-4000:]}")
    return json.loads(Path(spec["result"]).read_text())


def check_run(checker, pass_jobs, result):
    """Per-job outcomes; returns (timed records, probe records)."""
    by_id = {j["id"]: j for jobs in pass_jobs for j in jobs}
    timed, probes = [], []
    for rec in result["records"]:
        job = by_id[rec["id"]]
        rec["label"] = job["label"]
        if rec["error"] is not None:
            rec["failure"] = rec["error"]
        elif rec["rc"] != job["expect"]:
            rec["failure"] = f"exit {rec['rc']}, expected {job['expect']}"
        elif (why := checker.check(job)) is not None:
            rec["failure"] = f"check: {why}"
        (probes if job["probe"] else timed).append(rec)
    return timed, probes


def pass_walls(timed, passes):
    walls = [0.0] * passes
    for rec in timed:
        walls[rec["pass"]] += rec["seconds"]
    return walls


def report(workload, seed, passes, timed, probes, checker, pass_jobs):
    ops = len(timed) + len(probes)
    failed = [r for r in timed + probes if "failure" in r]
    keys = [(j["case"], j["order"]) for jobs in pass_jobs
            for j in jobs if j["kind"] == "construct"]
    seen, repeats = set(), 0
    for k in keys:  # jobs whose (case, order) an earlier job already built
        repeats += k in seen
        seen.add(k)
    return {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "job_samples": len(timed),
        "tail_percentile": TAIL_PERCENTILE,
        "ops": ops,
        "ops_failed": len(failed),
        "ops_failed_frac": len(failed) / ops,
        "probe_ops": len(probes),
        "probe_ops_failed": sum("failure" in r for r in probes),
        "verdict_samples": checker.verdict_samples,
        "verdict_error_frac": (checker.verdict_errors / checker.verdict_samples
                               if checker.verdict_samples else None),
        "construct_key_repeat_share": repeats / len(keys) if keys else None,
        "failures": sorted({f"{r['label']}: {r['failure']}" for r in failed}),
    }


def per_layer(layers, passes, rep, checker, pass_jobs, timed, overhead):
    def tot(name, field):
        return layers.get(name, {}).get(field, 0)

    def per(name, field):
        return tot(name, field) / passes

    jobs = {j["id"]: j for js in pass_jobs for j in js}
    ok = [jobs[r["id"]] for r in timed if "failure" not in r]
    exact_points = sum(j["grid"][2] * j["grid"][5] for j in ok
                       if j["kind"] == "classify" and j["series"]
                       and j["exact"] and j["expect"] == 0)
    meshes = [j for j in ok if j["kind"] == "mesh"]
    solves = tot("catalog.implicit_solve", "calls")
    return {
        "poly.mul_calls": (per("poly.mul", "calls"), "count"),
        "poly.mul_s": (per("poly.mul", "s"), "s"),
        "poly.add_calls": (per("poly.add", "calls"), "count"),
        "poly.eval_exact_calls": (per("poly.eval_exact", "calls"), "count"),
        "poly.eval_exact_s": (per("poly.eval_exact", "s"), "s"),
        "poly.derivative_calls": (per("poly.derivative", "calls"), "count"),
        "series.recursion_s": (per("series.recursion", "s"), "s"),
        "series.pqr_terms_s": (per("series.pqr_terms", "s"), "s"),
        "series.expansion_s": (per("series.expansion", "s"), "s"),
        "series.coeff_max_bits": (checker.coeff_max_bits, "bits"),
        "series.json_s": (per("series.to_json", "s") + per("series.from_json", "s"), "s"),
        "series.exact_sign_calls": (per("series.exact_sign", "calls"), "count"),
        "series.exact_sign_s": (per("series.exact_sign", "s"), "s"),
        "series.exact_sign_per_point": (
            tot("series.exact_sign", "calls") / exact_points if exact_points else 0.0,
            "ratio"),
        "series.float_jet_calls": (per("series.float_jet", "calls"), "count"),
        "series.float_jet_s": (per("series.float_jet", "s"), "s"),
        "series.float_verdict_error_frac": (rep["verdict_error_frac"] or 0.0, "ratio"),
        "series.key_repeat_share": (rep["construct_key_repeat_share"] or 0.0, "ratio"),
        "lorentz.classify_calls": (per("lorentz.classify", "calls"), "count"),
        "lorentz.classify_s": (per("lorentz.classify", "s"), "s"),
        "lorentz.first_form_s": (per("lorentz.first_form", "s"), "s"),
        "catalog.jet_calls": (per("catalog.jet", "calls"), "count"),
        "catalog.jet_s": (per("catalog.jet", "s"), "s"),
        "catalog.newton_evals_per_solve": (
            tot("catalog.cone_type_implicit", "calls") / solves if solves else 0.0,
            "ratio"),
        "catalog.implicit_solve_failures": (per("catalog.implicit_solve", "raised"), "count"),
        "bounds.certificate_s": (per("bounds.certificate", "s"), "s"),
        "bounds.growth_s": (per("bounds.growth", "s"), "s"),
        "bounds.growth_checks": (checker.growth_checks / passes, "count"),
        "bounds.tau_s": (tot("bounds.tau", "s"), "s"),
        "mesh.build_self_s": (per("mesh.build", "self_s"), "s"),
        "mesh.write_s": (per("mesh.write", "s"), "s"),
        "mesh.bytes_written": (sum(os.path.getsize(j["out"]) for j in meshes) / passes,
                               "bytes"),
        "mesh.vertices": (sum(j["grid"][2] * j["grid"][5] for j in meshes) / passes,
                          "count"),
        "cli.self_s": (per("cli.main", "self_s"), "s"),
        "cli.jobs": (rep["ops"] / passes, "count"),
        "cli.jobs_failed": (rep["ops_failed"] / passes, "count"),
        "trace.overhead_s": (overhead, "s"),
    }


def run(args, work: Path):
    import jobs as jobs_mod  # imports zmcgraph, so only once src/ is on the path

    pool = jobs_mod.build_pool(args.workload, args.seed, work)
    out = work / "out"
    out.mkdir()
    passes = max(MIN_PASSES, math.ceil(args.seconds / PASS_SECONDS[args.workload]))
    pass_jobs = [jobs_mod.make_pass(args.workload, args.seed, k, pool, out)
                 for k in range(passes)]
    spec = {"pass_jobs": pass_jobs, "trace": False}
    if not args.trace:
        measure_setup(1)  # warm-up: the first interpreter may compile bytecode
        setup_times = measure_setup(SETUP_RUNS[0])
    result = run_worker(work, "plain", spec)
    if args.trace:
        plain = result
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        spec.update(trace=True,
                    spans=str(spans_dir / f"spans-{args.workload}-{args.seed}.jsonl"))
        result = run_worker(work, "traced", spec)
    else:
        setup_times += measure_setup(SETUP_RUNS[1])

    checker = jobs_mod.Checker(args.workload, args.seed, pool)
    timed, probes = check_run(checker, pass_jobs, result)
    rep = report(args.workload, args.seed, passes, timed, probes, checker, pass_jobs)
    wall = statistics.median(pass_walls(timed, passes))
    latencies = [r["seconds"] for r in timed]
    if args.trace:
        plain_timed = [r for r in plain["records"] if not r["probe"]]
        overhead = wall - statistics.median(pass_walls(plain_timed, passes))
        metrics = per_layer(result["layers"], passes, rep, checker, pass_jobs,
                            timed, overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (statistics.quantiles(latencies, n=100, method="inclusive")
                           [TAIL_PERCENTILE - 1], "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
    n_failed = sum("failure" in r for r in timed)
    print(json.dumps({"report": rep}, indent=1))
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": len(timed),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["construct", "classify-exact", "mesh-export"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "zmcgraph" / "__init__.py").is_file():
        print(f"error: no zmcgraph package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run(args, work)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
