"""Command-line front end.

Subcommands:

* ``construct``: build a series by case tag and parameter, write coefficient JSON;
  every case substitutes c into the cached unit-c table.
* ``classify``: causal classification of a series or catalog surface on a grid.
  For a coefficient series the sign of B is exact: float arithmetic under a
  proven error bound decides most points, exact rational arithmetic the
  rest.  A catalog surface reads |B| <= --tol as null.  ``--certified``
  covers the quartic seeds only; on a case i series it exits 2.
* ``bounds``: convergence certificate, width profile and non-convexity witness.
* ``verify``: the verification suites (recursion equivalence, coefficient
  growth estimates, surface corpus); a corpus row fails where a residual or
  B is not finite.
* ``mesh``: triangulated export with causal vertex colors (PLY or OBJ),
  looked up from the same int8 signs as ``classify``; a vertex that is not
  finite exits 2.  ASCII is written per chunk of rows, each distinct value
  formatted once.

A catalog surface is sampled by ``catalog.sample_grid``, the sampler the
corpus uses too: one jet call on the grid's axes (for ``mixed_cone_type``,
one Newton solve and a closed-form jet).

Exit codes: 0 success, 1 verification failure, 2 argument violation (a
malformed coefficient file included), 3 certificate violation, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import bounds as bounds_mod
from . import catalog, mesh as mesh_mod
from .lorentz import classify
from .poly import RationalPoly
from .series import (
    GraphSeries,
    SeedCondition,
    SeriesCase,
    beta8_sign_note,
    _causal_signs,
    series_from_expansion,
    series_from_json,
    series_from_recursion,
    series_to_json,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_ARGS = 2
EXIT_CERT = 3
EXIT_IO = 4

# most points --grid may ask for: a 201 x 201 mesh holds 40401, and a mesh
# keeps a few hundred bytes per point, so this caps it at a few hundred MB
MAX_GRID_POINTS = 1_000_000

# largest |e| --c takes in "1e<e>": Fraction("1e999999999") takes minutes, and
# a c of over 4300 digits cannot be printed anyway (Python's int digit limit)
MAX_EXPONENT = 4300

# fewest points of a kind that make it part of the classify verdict
MIN_VERDICT_POINTS = 5

# the report's letter of each sign of B, indexed by the sign: 0, 1, -1
_SIGN_LETTERS = np.frombuffer(b"nst", dtype="S1")

# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        if _exponent(text) > MAX_EXPONENT:
            raise ValueError(f"a decimal exponent above {MAX_EXPONENT} in magnitude")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({e})")


def _exponent(text: str) -> int:
    """|e| for a text that ends in "e<e>", else 0 (Fraction judges the rest)."""
    _, mark, exp = text.lower().rpartition("e")
    try:
        return abs(int(exp)) if mark else 0
    except ValueError:
        return 0


def _grid(text: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        xpart, ypart = text.split(",")
        x0, x1, nx = xpart.split(":")
        y0, y1, ny = ypart.split(":")
        ends = [float(v) for v in (x0, x1, y0, y1)]
        if not np.isfinite(ends).all():
            raise ValueError("bounds must be finite")
        nx, ny = int(nx), int(ny)
        if max(nx, ny, nx * ny) > MAX_GRID_POINTS:
            raise ValueError(f"more than {MAX_GRID_POINTS} points")
        xs = np.linspace(ends[0], ends[1], nx)
        ys = np.linspace(ends[2], ends[3], ny)
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            f"grid must look like X0:X1:NX,Y0:Y1:NY (got {text!r}: {e})"
        )
    if len(xs) < 2 or len(ys) < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points per axis")
    return xs, ys


def _load_series(path: str) -> GraphSeries:
    with open(path) as fh:
        return series_from_json(json.load(fh))


def _write_json(payload, path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    case = SeriesCase(args.case)
    try:
        seed = SeedCondition(case, args.c)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARGS
    s = series_from_expansion(seed, args.order)
    _write_json(series_to_json(s), args.out)
    print(f"case {case.value}, c = {seed.c}, order {s.order}", file=sys.stderr)
    for k in sorted(s.betas):
        print(f"  beta_{k} = {s.betas[k]}", file=sys.stderr)
    if s.order >= 8 and case is not SeriesCase.MIXED_I:
        note = beta8_sign_note(s)
        print(f"  note: {note['detail']}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _summary_verdict(counts: dict[str, int]) -> str:
    ns, nt = counts["spacelike"], counts["timelike"]
    if ns >= MIN_VERDICT_POINTS and nt >= MIN_VERDICT_POINTS:
        return "mixed type"
    if ns >= MIN_VERDICT_POINTS:
        return "maximal type"
    if nt >= MIN_VERDICT_POINTS:
        return "time-like"
    return "light-like"


def _resolve_source(args, n: int):
    """The --coeffs or --surface source of ``classify`` and ``mesh``.

    Returns (label, xs, ys, sample, series).  ``sample()`` gives the points
    (x, y, t) of ``np.meshgrid(xs, ys, indexing="ij")``, shaped (NX, NY, 3),
    the int8 sign of B at each, exact for a series and outside the band
    |B| <= --tol for a catalog surface, and the exact fallback count (None
    for a catalog surface).  ``series`` is the GraphSeries for --coeffs, else
    None.  Without --grid the grid is n x n points spanning 0.999 of the
    delta = 1 certified rectangle (series) or the entry's domain (catalog).
    """
    classify(0.0, args.tol)  # rejects a bad --tol before any work or output
    if args.coeffs:
        s = _load_series(args.coeffs)
        label = f"series case {s.seed.case.value} (c = {s.seed.c})"
        half = 0.999 * bounds_mod.u_halfwidth(s.seed.c, 0.0)
        domain = ((-half, half), (-0.999, 0.999))

        def sample():
            signs, fallbacks, value = _causal_signs(s, xs, ys)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            return np.stack([X, Y, value], axis=-1), signs, fallbacks

    else:
        s = None
        e = catalog.entry(args.surface.removeprefix("catalog:"))
        label, domain = f"catalog:{e.name}", e.domain

        def sample():
            points, B = catalog.sample_grid(e, xs, ys)
            return points, (B > args.tol).astype(np.int8) - (B < -args.tol), None

    if args.grid is not None:
        xs, ys = args.grid
    else:
        xs, ys = (np.linspace(lo, hi, n) for lo, hi in domain)
    return label, xs, ys, sample, s


def cmd_classify(args) -> int:
    label, xs, ys, sample, s = _resolve_source(args, 21)
    if s is None and (args.certified or args.exact):
        flag = "--certified" if args.certified else "--exact"
        print(f"error: {flag} applies to coefficient series", file=sys.stderr)
        return EXIT_ARGS
    if args.certified and s.seed.case is SeriesCase.MIXED_I:
        print(
            "error: --certified: the certificate covers quartic seeds (cases ii "
            f"and iii) only, and {label} has the cubic seed",
            file=sys.stderr,
        )
        return EXIT_ARGS
    if args.certified:
        xmax, ymax = float(np.max(np.abs(xs))), float(np.max(np.abs(ys)))
        if not bounds_mod.u_membership(s.seed.c, xmax, ymax):
            print(
                f"error: grid corner ({xmax:g}, {ymax:g}) lies outside the "
                "certified domain",
                file=sys.stderr,
            )
            return EXIT_CERT

    _, signs, fallbacks = sample()
    # points of each kind per x row, in the order of the report's keys
    pos, neg = (signs > 0).sum(axis=1), (signs < 0).sum(axis=1)
    per_row = np.stack([pos, neg, len(ys) - pos - neg], axis=1)
    keys = ("spacelike", "timelike", "null")
    counts = dict(zip(keys, per_row.sum(axis=0).tolist()))
    verdict = _summary_verdict(counts)
    total = sum(counts.values())
    print(f"{label}: {total} points")
    for key in keys:
        bar = "#" * int(round(40 * counts[key] / total)) if total else ""
        print(f"  {key:10s} {counts[key]:6d} {bar}")
    print(f"  verdict: {verdict}")
    letters = _SIGN_LETTERS[signs]
    report = {
        "surface": label,
        "exact": s is not None,
        "tol": args.tol,
        "grid": {
            "x": [float(xs[0]), float(xs[-1]), len(xs)],
            "y": [float(ys[0]), float(ys[-1]), len(ys)],
        },
        "counts": counts,
        "verdict": verdict,
        # one string per x row, one character per y sample
        "legend": {"s": "spacelike", "t": "timelike", "n": "null"},
        "verdict_rows": letters.view(f"S{len(ys)}").ravel().astype(str).tolist(),
        "columns": [
            {"x": x, **dict(zip(keys, row))}
            for x, row in zip(xs.tolist(), per_row.tolist())
        ],
    }
    if s is not None:  # grid points whose sign the float filter left to af_bf_exact
        report["exact_fallbacks"] = fallbacks
    if args.out:
        _write_json(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    try:
        cert = bounds_mod.certificate(args.c, args.delta)
        witness = bounds_mod.convexity_witness(args.c)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARGS
    widths = {y: bounds_mod.u_halfwidth(args.c, y) for y in (0.0, 1.0, 2.0, 4.0)}
    print(f"tau = {cert.tau}, M = {cert.M:.4f}, C_delta = {cert.C_delta:.4f}")
    print(f"rectangle: |x| < {1.0 / cert.C_delta:.6e}, |y| < {cert.delta}")
    for y, w in widths.items():
        print(f"  half-width at y = {y:g}: {w:.6e}")
    mid = witness.midpoint
    print(
        f"non-convexity witness: midpoint ({mid[0]:.6e}, {mid[1]:g}) of two "
        f"member points is {'in' if witness.midpoint_in_u else 'NOT in'} the domain"
    )
    payload = {
        "certificate": cert.to_json(),
        "halfwidths": {str(k): v for k, v in widths.items()},
        "witness": witness.to_json(),
    }
    _write_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_recursion() -> list[dict]:
    rows = []
    table = {
        4: lambda c: RationalPoly([0, 4 * c]),
        5: lambda c: RationalPoly(),
        6: lambda c: RationalPoly([0, 0, 0, -8 * c * c]),
        7: lambda c: RationalPoly(),
    }
    for c in (Fraction(1), Fraction(-1), Fraction(3, 2)):
        case = SeriesCase.TIMELIKE_III if c > 0 else SeriesCase.SPACELIKE_II
        seed = SeedCondition(case, c)
        s1 = series_from_recursion(seed, 16)
        s2 = series_from_expansion(seed, 16)
        rows.append(
            {
                "suite": "recursion",
                "name": f"paths-identical c={c}",
                "pass": s1.betas == s2.betas,
            }
        )
        rows.append(
            {
                "suite": "recursion",
                "name": f"low-order-table c={c}",
                "pass": all(s1.betas[k] == mk(c) for k, mk in table.items()),
            }
        )
        if c == 1:
            note = beta8_sign_note(s1)
            note["suite"] = "recursion"
            rows.append(note)
    return rows


def _suite_growth() -> list[dict]:
    rows = []
    for c in (Fraction(1), Fraction(-1)):
        case = SeriesCase.TIMELIKE_III if c > 0 else SeriesCase.SPACELIKE_II
        # the construct path; the recursion suite checks it against the oracle
        s = series_from_expansion(SeedCondition(case, c), 16)
        for delta in (1.0, 2.0):
            for check in bounds_mod.verify_growth_estimates(s, delta, 101):
                row = check.to_json()
                row["suite"] = "growth"
                row["name"] = f"c={c} delta={delta:g} l={check.l} {check.inequality}"
                rows.append(row)
    return rows


def _suite_corpus() -> list[dict]:
    rows = []
    for r in catalog.corpus_verify():
        row = r.to_json()
        row["suite"] = "corpus"
        rows.append(row)
    return rows


def cmd_verify(args) -> int:
    suites = {
        "recursion": _suite_recursion,
        "growth": _suite_growth,
        "corpus": _suite_corpus,
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    rows: list[dict] = []
    for name in selected:
        rows.extend(suites[name]())
    failures = 0
    for row in rows:
        if row.get("kind") == "info":
            status = "INFO"
        elif row.get("pass"):
            status = "pass"
        else:
            status = "FAIL"
            failures += 1
        label = row.get("name", row.get("suite"))
        print(f"[{status}] {row.get('suite')}: {label}")
    print(f"{len(rows)} rows, {failures} failures")
    if args.out:
        _write_json(rows, args.out)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def cmd_mesh(args) -> int:
    label, xs, ys, sample, _ = _resolve_source(args, 33)

    def evaluate(X, Y):  # the grid sample() already holds
        points, signs, _ = sample()
        if not np.isfinite(points).all():  # e.g. a series jet far outside its rectangle
            i, j = np.argwhere(~np.isfinite(points).all(axis=-1))[0]
            u, v = xs[i].item(), ys[j].item()
            raise ValueError(
                f"{label} has no finite vertex at ({u!r}, {v!r}): "
                f"(x, y, t) = {tuple(points[i, j].tolist())}"
            )
        return points, signs

    m = mesh_mod.build_grid_mesh(evaluate, xs, ys)
    try:
        if args.format == "obj":
            mesh_mod.write_obj(m, args.out)
        else:
            mesh_mod.write_ply(m, args.out, binary=args.ply_binary)
    except OSError as e:
        print(f"error writing {args.out!r}: {e}", file=sys.stderr)
        return EXIT_IO
    print(
        f"wrote {args.out}: {len(m.vertices)} vertices, {len(m.faces)} faces",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``zmc`` argument parser, built once per process on first use.

    Parsing leaves it unchanged, so every ``main`` call reuses it.
    """
    parser = argparse.ArgumentParser(
        prog="zmc",
        description="Zero-mean-curvature graphs with an entire null line: "
        "construction, classification, certificates, meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a series and write coefficient JSON")
    p.add_argument("--case", required=True, choices=["i", "ii", "iii"])
    p.add_argument("--c", required=True, type=_rational)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("classify", help="causal classification on a grid")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs", help="coefficient JSON from construct")
    src.add_argument("--surface", help="catalog:NAME")
    p.add_argument("--grid", type=_grid, default=None, help="X0:X1:NX,Y0:Y1:NY")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--certified", action="store_true")
    p.add_argument(
        "--exact",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="no effect, kept for old scripts: series signs are always exact "
        "and catalog signs use --tol (--exact on a catalog surface exits 2)",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bounds", help="convergence certificate and domain profile")
    p.add_argument("--c", required=True, type=_rational)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite", choices=["recursion", "growth", "corpus", "all"], default="all"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mesh", help="export a triangulated mesh")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs")
    src.add_argument("--surface")
    p.add_argument("--grid", type=_grid, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=["ply", "obj"], default="ply")
    p.add_argument("--ply-binary", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARGS
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
