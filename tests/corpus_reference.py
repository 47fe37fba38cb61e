"""Reference: the surface corpus checked one point at a time.

``catalog.corpus_verify`` samples each entry with one array jet call; this is
the per-point loop over scalar jets it replaced, kept to check it against,
with the scalar B field and degenerate-null test it used.
"""
import math
from typing import Callable

import numpy as np

from zmcgraph.catalog import (
    SURFACE_NAMES,
    CorpusRow,
    _histogram_matches,
    entry,
)
from zmcgraph.lorentz import (
    classify,
    first_form,
    first_form_det,
    null_line_check,
    zmc_residual,
)


def B_field(e):
    """B of entry e as a function of (u, v), one scalar jet per call."""
    return lambda u, v: first_form_det(e.jet(u, v))


def degenerate_test(
    field: Callable[[float, float], float],
    p: tuple[float, float],
    h: float = 6.06e-6,
    tol: float = 1e-10,
    grad_tol: float = 1e-7,
) -> bool:
    """True when the null point p is degenerate: dB vanishes there too.

    Uses a central-difference gradient with step h.  Raises if p is not a
    null point of the field at tolerance tol.
    """
    u, v = p
    b0 = field(u, v)
    if abs(b0) > tol:
        raise ValueError(f"not a null point: B = {b0!r} exceeds tol {tol!r}")
    gu = (field(u + h, v) - field(u - h, v)) / (2.0 * h)
    gv = (field(u, v + h) - field(u, v - h)) / (2.0 * h)
    return math.hypot(gu, gv) <= grad_tol


def scalar_jet_scale(j):
    """max(1, largest Euclidean norm of a jet derivative)^3, in Python floats."""
    m = max(
        math.sqrt(v.x * v.x + v.y * v.y + v.t * v.t)
        for v in (j.f_u, j.f_v, j.f_uu, j.f_uv, j.f_vv)
    )
    return max(1.0, m) ** 3


def corpus_verify_loop(
    samples_per_surface=13,
    residual_tol=1e-6,
    causal_tol=1e-10,
    line_tol=1e-9,
    names=SURFACE_NAMES,
):
    rows = []
    for name in names:
        e = entry(name)
        (u0, u1), (v0, v1) = e.domain
        us = [float(u) for u in np.linspace(u0, u1, samples_per_surface)]
        vs = [float(v) for v in np.linspace(v0, v1, samples_per_surface)]
        worst = 0.0
        hist = {"spacelike": 0, "timelike": 0, "null": 0}
        n_deg = n_pts = 0
        b_field = B_field(e) if e.expected_causal == "lightlike" else None
        for u in us:
            for v in vs:
                if e.excluded is not None and e.excluded(u, v):
                    continue
                j = e.jet(u, v)
                _, B = first_form(j)
                worst = max(worst, abs(zmc_residual(j)) / scalar_jet_scale(j))
                hist[classify(B, causal_tol).kind.value] += 1
                n_pts += 1
                if b_field is not None:
                    n_deg += degenerate_test(b_field, (u, v), tol=1e-8)
        line_results = []
        for line in e.known_null_lines:
            (u0, v0), (u1, v1) = line.start, line.end
            us, vs = np.linspace(u0, u1, 21).tolist(), np.linspace(v0, v1, 21).tolist()
            points = [e.jet(u, v).f for u, v in zip(us, vs)]
            verdict = null_line_check(points, tol=line_tol)
            line_results.append((line.label, verdict.is_null_line))
        residual_pass = worst <= residual_tol
        causal_pass = _histogram_matches(e.expected_causal, hist)
        null_pass = all(ok for _, ok in line_results)
        rows.append(
            CorpusRow(
                name=name,
                max_scaled_residual=worst,
                residual_pass=residual_pass,
                histogram=hist,
                causal_pass=causal_pass,
                null_lines=tuple(line_results),
                null_pass=null_pass,
                degenerate_fraction=(n_deg / n_pts) if b_field is not None else None,
                passed=residual_pass and causal_pass and null_pass,
            )
        )
    return rows
