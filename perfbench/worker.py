"""The workload process: runs the jobs of a spec through ``zmcgraph.cli.main``.

    python3 perfbench/worker.py SPEC.json

One client, one process, no extra threads: each job is a ``main(argv)``
call made after the previous one returned.  Only the call is timed.  The
worker runs every pass of the spec.  Probe jobs run after their pass and are
not timed; in the traced run their spans and aggregates are dropped, so the
layer figures cover only the timed jobs.  Outputs are checked later by the
harness, so that checking adds neither time nor memory here.  The result
goes to ``spec["result"]``.
"""
from __future__ import annotations

import gc
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter


def run_job(cli, argv):
    """(exit code or None, error text or None, seconds) of one main() call."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        try:
            rc, err = cli.main(argv), None
        except SystemExit as e:  # argparse rejects its arguments this way
            rc, err = e.code, None
        except Exception as e:  # a traceback is a failed job, not a crash
            rc, err = None, f"{type(e).__name__}: {e}"
        t1 = perf_counter()
    return rc, err, t1 - t0


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import zmcgraph
    from zmcgraph import bounds, catalog, cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    # first-call set-up, as a user's first command would pay it
    bounds.tau_constant()
    for name in zmcgraph.SURFACE_NAMES:
        catalog.entry(name)

    records = []
    for n, jobs in enumerate(spec["pass_jobs"]):
        gc.collect()
        for job in jobs:
            mark = None
            if tracer is not None:
                tracer.job = job["id"]
                if job["probe"]:
                    mark = tracer.mark()
            rc, err, dt = run_job(cli, job["argv"])
            records.append({"id": job["id"], "pass": n, "probe": job["probe"],
                            "rc": rc, "error": err, "seconds": dt})
            if mark is not None:
                tracer.rollback(mark)

    result = {
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.job = None
        result["layers"] = tracer.totals()
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
