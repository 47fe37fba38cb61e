"""Workload definitions: seeded job lists, the inputs they read, and output checks.

A workload is a fixed list of job slots, one *pass*.  Every pass holds the
same slots; the seed and the pass index choose the values inside them (the
rational ``c`` of each construction or prepared series, the grid bounds),
so two seeds give the same mix of costs with different inputs.  Slot counts
are chosen so that the median job and the 90th-percentile job each fall in
the middle of a block of similar jobs, not on the edge between a cheap and
an expensive kind, which keeps ``job_p50_s`` and ``job_tail_s`` steady from
seed to seed.

Jobs that hit a known defect are *probes*: they run after each pass, are
not timed, and are counted apart from the timed jobs (see ``run.py``).
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from zmcgraph import bounds
from zmcgraph.catalog import SURFACE_NAMES, entry
from zmcgraph.mesh import CAUSAL_COLORS, read_ply, write_ply
from zmcgraph.poly import RationalPoly
from zmcgraph.series import (
    SeedCondition,
    SeriesCase,
    af_bf_exact,
    series_from_expansion,
    series_from_json,
    series_from_recursion,
    series_to_json,
)

# bit lengths of the denominator of c; the numerator is within a factor 2
HEIGHTS = (1, 3, 8, 16, 32)

# the harness prepares these series before timing: (key, case, order)
POOLS = {
    "classify-exact": (
        ("iii16", "iii", 16), ("ii16", "ii", 16), ("i16", "i", 16),
        ("iii20", "iii", 20), ("ii20", "ii", 20), ("i20", "i", 20),
        ("iii24", "iii", 24), ("ii24", "ii", 24),
    ),
    "mesh-export": (
        ("iii16", "iii", 16), ("ii16", "ii", 16), ("i16", "i", 16),
        ("iii20", "iii", 20), ("ii20", "ii", 20), ("iii24", "iii", 24),
    ),
}

# construct slots: (case tag, order, count); "q" alternates ii and iii.
# Orders above 48 are left out only because construct --case ii|iii has no
# order cap and does not finish at large orders.
CONSTRUCT_SLOTS = (
    ("q", 48, 1), ("q", 40, 1), ("i", 24, 1), ("q", 32, 6), ("i", 16, 4),
    ("q", 24, 22), ("i", 12, 2), ("q", 16, 5),
)
N_BOUNDS = 6
# quartic constructions per pass re-built by the independent expansion path
N_ORACLE = 2
ORACLE_MAX_ORDER = 32

CATALOG_OK = tuple(n for n in SURFACE_NAMES if n != "hyperbolic_catenoid")

EXPECTED_VERDICT = {"iii": "time-like", "ii": "maximal type", "i": "mixed type"}

# grid points per float-path series job whose verdict is compared with the
# exact sign of B
VERDICT_SAMPLES = 6


def rand_c(rng: random.Random, bits: int, negative: bool) -> Fraction:
    q = rng.getrandbits(bits) | (1 << (bits - 1))
    p = max(1, round(q * rng.uniform(0.5, 2.0)))
    return Fraction(-p if negative else p, q)


def _seed(case: str, c: Fraction) -> SeedCondition:
    return SeedCondition(SeriesCase(case), c)


def build_pool(workload: str, seed: int, directory: Path) -> dict:
    """Writes the series a workload reads; returns key -> info."""
    rng = random.Random(f"pool:{workload}:{seed}")
    pool = {}
    for n, (key, case, order) in enumerate(POOLS.get(workload, ())):
        c = rand_c(rng, HEIGHTS[n % len(HEIGHTS)], case == "ii")
        path = directory / f"series-{key}.json"
        build = series_from_expansion if case == "i" else series_from_recursion
        s = build(_seed(case, c), order)
        path.write_text(json.dumps(series_to_json(s), indent=2) + "\n")
        pool[key] = {"case": case, "c": str(c), "order": order, "path": str(path)}
    return pool


def _grid_arg(g) -> str:
    x0, x1, nx, y0, y1, ny = g
    return f"--grid={x0!r}:{x1!r}:{nx},{y0!r}:{y1!r}:{ny}"


def _inside_grid(rng, c: Fraction, nx: int, ny: int):
    """Seeded grid inside the certified rectangle, straddling x = 0."""
    half = 0.99 * bounds.u_halfwidth(c, 0.0)
    return (
        -half * rng.uniform(0.6, 1.0), half * rng.uniform(0.6, 1.0), nx,
        -rng.uniform(0.3, 0.999), rng.uniform(0.3, 0.999), ny,
    )


def _default_grid(c: Fraction, n: int):
    half = 0.999 * bounds.u_halfwidth(c, 0.0)
    return (-half, half, n, -0.999, 0.999, n)


def make_pass(workload: str, seed: int, index: int, pool: dict, out: Path) -> list:
    """Jobs of one pass: timed jobs in seeded order, then the probes."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    make = {
        "construct": _construct_pass,
        "classify-exact": _classify_pass,
        "mesh-export": _mesh_pass,
    }[workload]
    timed, probes = make(rng, index, pool)
    rng.shuffle(timed)
    jobs = timed + probes
    for n, job in enumerate(jobs):
        job["id"] = f"p{index}j{n}"
        job["probe"] = n >= len(timed)
        job["label"] = label(job)
        if "out_ext" in job:
            job["out"] = str(out / f"{job['id']}.{job.pop('out_ext')}")
            job["argv"] += ["--out", job["out"]]
    return jobs


def _construct_pass(rng, index, pool):
    jobs = []
    slot = index
    for tag, order, count in CONSTRUCT_SLOTS:
        for _ in range(count):
            slot += 1
            case = ("ii", "iii")[slot % 2] if tag == "q" else tag
            c = rand_c(rng, HEIGHTS[slot % len(HEIGHTS)], case == "ii")
            jobs.append({
                "kind": "construct", "case": case, "c": str(c), "order": order,
                "argv": ["construct", "--case", case, f"--c={c}", "--order", str(order)],
                "expect": 0, "out_ext": "json",
            })
    small = [j for j in jobs if j["case"] != "i" and j["order"] <= ORACLE_MAX_ORDER]
    for j in rng.sample(small, N_ORACLE):
        j["oracle"] = True
    for n in range(N_BOUNDS):
        c = rand_c(rng, HEIGHTS[(slot + n) % len(HEIGHTS)], rng.random() < 0.5)
        delta = rng.choice((1.0, 1.5, 2.0, 4.0))
        jobs.append({
            "kind": "bounds", "c": str(c), "delta": delta,
            "argv": ["bounds", f"--c={c}", "--delta", repr(delta)],
            "expect": 0, "out_ext": "json",
        })
    for suite in ("recursion", "growth"):
        jobs.append({
            "kind": "verify", "argv": ["verify", "--suite", suite],
            "expect": 0, "out_ext": "json",
        })
    c = rand_c(rng, 3, False)
    probes = [{  # known defect: a NaN delta exits 0 with a NaN certificate
        "kind": "bounds", "c": str(c), "delta": "nan",
        "argv": ["bounds", f"--c={c}", "--delta", "nan"],
        "expect": 2, "out_ext": "json",
    }]
    return jobs, probes


def _classify(rng, pool, key, shape, certified=False, exact=True):
    info = pool[key]
    c = Fraction(info["c"])
    if shape == "default":
        grid = _default_grid(c, 21)
        extra = []
    else:
        grid = _inside_grid(rng, c, *shape)
        extra = [_grid_arg(grid)]
    argv = ["classify", "--coeffs", info["path"]] + extra
    if not exact:
        argv.append("--no-exact")
    if certified:
        argv.append("--certified")
    return {
        "kind": "classify", "series": key, "grid": grid, "exact": exact,
        "argv": argv, "expect": 0, "out_ext": "json",
    }


def _classify_pass(rng, index, pool):
    quartic = [k for k, v in pool.items() if v["case"] != "i"]

    def cycle(keys, n, start):
        return [keys[(start + i) % len(keys)] for i in range(n)]

    jobs = [
        _classify(rng, pool, "ii16", "default", certified=True),
        _classify(rng, pool, "iii16", "default"),
        _classify(rng, pool, "i20", (7, 7)),
    ]
    jobs += [_classify(rng, pool, "i16", (4, 4)) for _ in range(6)]
    jobs += [_classify(rng, pool, k, (5, 5)) for k in cycle(("iii20", "ii20"), 4, index)]
    jobs += [
        _classify(rng, pool, k, (3, 3), certified=n % 4 == 0)
        for n, k in enumerate(cycle(("iii24", "ii24"), 24, index))
    ]
    jobs += [_classify(rng, pool, k, (3, 3)) for k in cycle(("iii16", "ii16"), 12, index)]
    # a --certified grid reaching past the certified rectangle must exit 3
    key = quartic[index % len(quartic)]
    c = Fraction(pool[key]["c"])
    half = 2.0 * bounds.u_halfwidth(c, 0.0)
    grid = (-half, half, 3, -0.5, 0.5, 3)
    jobs.append({
        "kind": "classify", "series": key, "grid": grid, "exact": True,
        "argv": ["classify", "--coeffs", pool[key]["path"], _grid_arg(grid),
                 "--certified"],
        "expect": 3,
    })
    return jobs, []


def _series_mesh(rng, pool, key, n, fmt, default=False):
    info = pool[key]
    c = Fraction(info["c"])
    grid = _default_grid(c, 33) if default else _inside_grid(rng, c, n, n)
    argv = ["mesh", "--coeffs", info["path"]] + ([] if default else [_grid_arg(grid)])
    return _mesh_job(argv, fmt, grid, series=key)


def _surface_mesh(name, n, fmt):
    argv = ["mesh", "--surface", f"catalog:{name}"]
    if n is None:  # the default 33 x 33 grid over the entry's domain
        grid = (None, None, 33, None, None, 33)
    else:
        (u0, u1), (v0, v1) = entry(name).domain
        grid = (u0, u1, n, v0, v1, n)
        argv.append(_grid_arg(grid))
    return _mesh_job(argv, fmt, grid, surface=name)


def _surface_classify(name):
    return {
        "kind": "classify", "series": None, "surface": name, "grid": None, "exact": False,
        "argv": ["classify", "--surface", f"catalog:{name}"],
        "expect": 0, "out_ext": "json",
    }


def _mesh_job(argv, fmt, grid, series=None, surface=None):
    if fmt == "obj":
        argv = argv + ["--format", "obj"]
    elif fmt == "ply-binary":
        argv = argv + ["--ply-binary"]
    return {
        "kind": "mesh", "series": series, "surface": surface, "grid": grid,
        "format": fmt, "argv": argv, "expect": 0,
        "out_ext": "obj" if fmt == "obj" else "ply",
    }


def _mesh_pass(rng, index, pool):
    keys = list(pool)
    fmts = ("ply-ascii", "ply-binary", "obj")

    def key(n):
        return keys[(index + n) % len(keys)]

    jobs = [
        _series_mesh(rng, pool, "iii16", 201, "ply-ascii"),
        _series_mesh(rng, pool, "ii20", 201, "ply-binary"),
        _series_mesh(rng, pool, "i16", 161, "obj"),
        _series_mesh(rng, pool, "iii24", 81, "ply-binary"),
    ]
    jobs += [_surface_mesh(name, 101, fmts[n % 3]) for n, name in enumerate(CATALOG_OK)]
    jobs += [_series_mesh(rng, pool, key(n), 45, fmts[n % 2]) for n in range(4)]
    jobs += [_series_mesh(rng, pool, key(n), 25, fmts[n % 3]) for n in range(23)]
    jobs.append(_series_mesh(rng, pool, key(0), 33, "ply-ascii", default=True))
    jobs += [_surface_mesh(name, None, fmts[n % 2]) for n, name in enumerate(CATALOG_OK)]
    jobs += [_surface_classify(name) for name in CATALOG_OK]
    jobs += [
        _classify(rng, pool, key(n), "default" if n < 2 else (21, 21), exact=False)
        for n in range(3)
    ]
    # known defect: the default grid samples the cone point (0, 0)
    probes = [
        _surface_classify("hyperbolic_catenoid"),
        _surface_mesh("hyperbolic_catenoid", None, "ply-ascii"),
        _surface_mesh("hyperbolic_catenoid", 101, "ply-binary"),
    ]
    return jobs, probes


def label(job: dict) -> str:
    """Short description of a job, free of file paths."""
    kind = job["kind"]
    if kind == "construct":
        return f"construct case {job['case']} order {job['order']}"
    if kind == "bounds":
        return f"bounds --delta {job['delta']}"
    if kind == "verify":
        return " ".join(job["argv"][:3])
    target = job["series"] or f"catalog:{job['surface']}"
    if kind == "classify":
        return f"classify {target}{'' if job['exact'] else ' --no-exact'}"
    return f"mesh {target} {job['grid'][2]}x{job['grid'][5]} {job['format']}"


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _sign_char(b: Fraction) -> str:
    return "s" if b > 0 else ("t" if b < 0 else "n")


class Checker:
    """Checks job outputs after the timed run; holds the pool series."""

    def __init__(self, workload: str, seed: int, pool: dict):
        self.rng = random.Random(f"check:{workload}:{seed}")
        self.series = {k: series_from_json(json.loads(Path(v["path"]).read_text()))
                       for k, v in pool.items()}
        self.verdict_samples = 0
        self.verdict_errors = 0
        self.coeff_max_bits = 0
        self.growth_checks = 0

    def check(self, job: dict) -> str | None:
        """Why the output of a job that exited as expected is wrong, or None."""
        if job["expect"] != 0:
            return None
        try:
            getattr(self, "_" + job["kind"])(job)
        except CheckFailed as e:
            return str(e)
        except (OSError, ValueError, KeyError, IndexError) as e:
            return f"unreadable output ({type(e).__name__}: {e})"
        return None

    def _construct(self, job):
        text = Path(job["out"]).read_text()
        data = json.loads(text)
        s = series_from_json(data)
        _require(json.dumps(series_to_json(s), indent=2) + "\n" == text,
                 "JSON round trip is not string-identical")
        c = Fraction(job["c"])
        _require(s.seed.c == c and s.order == job["order"], "seed or order changed")
        if job["case"] == "i":
            _require(s.betas[3] == RationalPoly([0, 3 * c]), "beta_3 != 3cy")
        else:
            _require(s.betas[4] == RationalPoly([0, 4 * c]), "beta_4 != 4cy")
            _require(s.betas[6] == RationalPoly([0, 0, 0, -8 * c * c]),
                     "beta_6 != -8c^2y^3")
            _require(all(s.betas[k].is_zero for k in s.betas if k % 2),
                     "odd coefficient nonzero")
        if job.get("oracle"):
            ref = series_from_expansion(_seed(job["case"], c), job["order"])
            _require(ref.betas == s.betas, "recursion differs from expansion")
        for p in s.betas.values():
            for q in p.coeffs:
                self.coeff_max_bits = max(self.coeff_max_bits,
                                          abs(q.numerator).bit_length(),
                                          q.denominator.bit_length())

    def _bounds(self, job):
        data = json.loads(Path(job["out"]).read_text())
        cert = data["certificate"]
        _require(cert["c"] == f"{Fraction(job['c']).numerator}/"
                 f"{Fraction(job['c']).denominator}", "certificate for another c")
        _require(cert["delta"] == float(job["delta"]), "certificate for another delta")
        _require(all(math.isfinite(cert[k]) and cert[k] > 0
                     for k in ("M", "C_delta", "theta0")), "non-finite certificate")
        _require(data["witness"]["non_convex"], "no non-convexity witness")

    def _verify(self, job):
        rows = json.loads(Path(job["out"]).read_text())
        self.growth_checks += sum(r.get("suite") == "growth" for r in rows)
        _require(rows and all(r.get("pass", True) for r in rows
                              if r.get("kind") != "info"), "verification row failed")

    def _classify(self, job):
        rep = json.loads(Path(job["out"]).read_text())
        counts, rows = rep["counts"], rep["verdict_rows"]
        if job["grid"] is None:
            size = 21 * 21
        else:
            size = job["grid"][2] * job["grid"][5]
        _require(sum(counts.values()) == size, "counts do not sum to the grid size")
        _require(len(rows) * len(rows[0]) == size, "verdict rows do not cover the grid")
        if job["series"] is None:
            return
        if job["exact"]:
            case = self.series[job["series"]].seed.case.value
            _require(rep["verdict"] == EXPECTED_VERDICT[case],
                     f"verdict {rep['verdict']!r} for case {case}")
        else:
            self._sample_verdicts(job, lambda i, j: rows[i][j])

    def _mesh(self, job):
        nx, ny = job["grid"][2], job["grid"][5]
        n_faces = 2 * (nx - 1) * (ny - 1)
        if job["format"] == "obj":
            with open(job["out"]) as fh:
                lines = [ln[:2] for ln in fh]
            _require(lines.count("v ") == nx * ny, "OBJ vertex count")
            _require(lines.count("f ") == n_faces, "OBJ face count")
            return
        m = read_ply(job["out"])
        _require(len(m.vertices) == nx * ny, "PLY vertex count")
        _require(len(m.faces) == n_faces, "face count != 2(NX-1)(NY-1)")
        a = (np.arange(nx - 1)[:, None] * ny + np.arange(ny - 1)[None, :]).ravel()
        faces = np.stack([a, a + ny, a + 1, a + 1, a + ny, a + ny + 1], 1)
        _require(np.array_equal(m.faces, faces.reshape(-1, 3)), "face indices")
        again = job["out"] + ".again"
        write_ply(m, again, binary=job["format"] == "ply-binary")
        same = Path(again).read_bytes() == Path(job["out"]).read_bytes()
        Path(again).unlink()
        _require(same, "read_ply does not return what was written")
        if job["series"] is not None:
            colors = {v: k.value[0] for k, v in CAUSAL_COLORS.items()}
            rgb = m.vertices[:, 3:].astype(int).tolist()
            self._sample_verdicts(job, lambda i, j: colors[tuple(rgb[i * ny + j])])

    def _sample_verdicts(self, job, printed):
        """Compares the printed float verdict with the exact sign of B."""
        s = self.series[job["series"]]
        x0, x1, nx, y0, y1, ny = job["grid"]
        xs, ys = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
        for _ in range(VERDICT_SAMPLES):
            i, j = self.rng.randrange(nx), self.rng.randrange(ny)
            _, b = af_bf_exact(s, Fraction(float(xs[i])), Fraction(float(ys[j])))
            self.verdict_samples += 1
            self.verdict_errors += printed(i, j) != _sign_char(b)
