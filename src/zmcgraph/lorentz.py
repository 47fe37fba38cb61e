"""Lorentzian surface geometry in Minkowski 3-space of signature (++-).

Works on second-order jets of parametrized surfaces (or of graph functions
t = psi(x, y)) and computes the two scalar fields that govern zero mean
curvature and causal type:

* ``B`` = det of the first fundamental form; its sign classifies a point as
  space-like (B > 0), time-like (B < 0) or null (B = 0).
* ``A`` = trace(adj(P) Q), the numerator of mean curvature; a surface is a
  zero-mean-curvature (ZMC) map when A vanishes identically.

The normal used in the second form is the Lorentz flip of the raw Euclidean
cross product, deliberately unnormalized, so A itself is parametrization
dependent.  Only its zero set is geometric; residual checks therefore scale
by the cubed jet magnitude.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np


class Vec3M(NamedTuple):
    """Point or vector in Minkowski 3-space, coordinates (x, y, t)."""

    x: float
    y: float
    t: float


def minkowski_dot(a: Vec3M, b: Vec3M) -> float:
    """Lorentzian product a.b = ax*bx + ay*by - at*bt."""
    return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]


def euclid_cross(a: Vec3M, b: Vec3M) -> Vec3M:
    return Vec3M(
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


@dataclass(frozen=True)
class Jet2:
    """Value plus first and second partials of a parametrized surface."""

    f: Vec3M
    f_u: Vec3M
    f_v: Vec3M
    f_uu: Vec3M
    f_uv: Vec3M
    f_vv: Vec3M


@dataclass(frozen=True)
class GraphJet:
    """Value plus partials of a scalar graph function t = psi(x, y)."""

    value: float
    px: float
    py: float
    pxx: float
    pxy: float
    pyy: float


class Causal(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"


@dataclass(frozen=True)
class CausalVerdict:
    kind: Causal
    B_value: float
    tol: float


# ---------------------------------------------------------------------------
# fundamental forms and the two scalar fields
# ---------------------------------------------------------------------------


def first_form(j: Jet2) -> tuple[np.ndarray, float]:
    """First fundamental form matrix P and B = det(P).

    A jet of arrays gives P shaped (2, 2) + the broadcast shape of its
    entries, and B as ``first_form_det`` computes it.
    """
    p11 = minkowski_dot(j.f_u, j.f_u)
    p12 = minkowski_dot(j.f_u, j.f_v)
    p22 = minkowski_dot(j.f_v, j.f_v)
    P = np.array(np.broadcast_arrays(p11, p12, p12, p22), dtype=float)
    return P.reshape((2, 2) + P.shape[1:]), first_form_det(j)


def first_form_det(j: Jet2) -> float:
    """B = det(P) = p11 p22 - p12^2, without building P.

    A jet of arrays gives B as computed from them (a scalar when the first
    derivatives do not vary, as on a plane).
    """
    p11 = minkowski_dot(j.f_u, j.f_u)
    p12 = minkowski_dot(j.f_u, j.f_v)
    p22 = minkowski_dot(j.f_v, j.f_v)
    return p11 * p22 - p12 * p12


def lorentz_normal(j: Jet2) -> Vec3M:
    """Unnormalized normal: Lorentz flip of the Euclidean cross product."""
    c = euclid_cross(j.f_u, j.f_v)
    return Vec3M(c.x, c.y, -c.t)


def second_form(j: Jet2) -> np.ndarray:
    nu = lorentz_normal(j)
    q11 = minkowski_dot(j.f_uu, nu)
    q12 = minkowski_dot(j.f_uv, nu)
    q22 = minkowski_dot(j.f_vv, nu)
    return np.array([[q11, q12], [q12, q22]], dtype=float)


def zmc_residual(j: Jet2) -> float:
    """A = trace(adj(P) Q), zero exactly when the surface has zero mean curvature.

    adj(P) = [[P22, -P12], [-P12, P11]], so the trace expands to
    P22*Q11 - 2*P12*Q12 + P11*Q22.
    """
    p11 = minkowski_dot(j.f_u, j.f_u)
    p12 = minkowski_dot(j.f_u, j.f_v)
    p22 = minkowski_dot(j.f_v, j.f_v)
    nu = lorentz_normal(j)
    q11 = minkowski_dot(j.f_uu, nu)
    q12 = minkowski_dot(j.f_uv, nu)
    q22 = minkowski_dot(j.f_vv, nu)
    return p22 * q11 + 2.0 * (-p12) * q12 + p11 * q22


def jet_scale(j: Jet2) -> float:
    """Cubed jet magnitude, the normalization for A-residual checks.

    max(1, |f_u|, |f_v|, |f_uu|, |f_uv|, |f_vv|)^3, elementwise on a jet of
    arrays; a NaN norm makes it NaN.  The cube is the C library's pow, as
    float ``**`` takes it, so a float jet and an array jet agree bit for bit.
    """
    norms = map(_norm, (j.f_u, j.f_v, j.f_uu, j.f_uv, j.f_vv))
    return np.float_power(functools.reduce(np.maximum, norms, 1.0), 3)


def _norm(v: Vec3M) -> float:
    return np.sqrt(v.x * v.x + v.y * v.y + v.t * v.t)


def graph_af_bf(g: GraphJet) -> tuple[float, float]:
    """A and B for a graph t = psi(x, y), from the scalar jet alone.

    A = (1 - py^2) pxx + 2 px py pxy + (1 - px^2) pyy
    B = 1 - px^2 - py^2

    Integer literals keep Fraction jets exact and serve float and array jets.
    """
    A = (
        (1 - g.py * g.py) * g.pxx
        + 2 * (g.px * g.py) * g.pxy
        + (1 - g.px * g.px) * g.pyy
    )
    B = 1 - g.px * g.px - g.py * g.py
    return A, B


def graph_to_parametric(x: float, y: float, g: GraphJet) -> Jet2:
    """Jet of the parametrization (x, y) -> (x, y, psi(x, y))."""
    return Jet2(
        f=Vec3M(x, y, g.value),
        f_u=Vec3M(1.0, 0.0, g.px),
        f_v=Vec3M(0.0, 1.0, g.py),
        f_uu=Vec3M(0.0, 0.0, g.pxx),
        f_uv=Vec3M(0.0, 0.0, g.pxy),
        f_vv=Vec3M(0.0, 0.0, g.pyy),
    )


def linear_reparametrize(j: Jet2, J: Sequence[Sequence[float]]) -> Jet2:
    """Pull a jet back through the linear coordinate change (s,w) -> J(s,w).

    J = [[u_s, v_s], [u_w, v_w]].  B picks up det(J)^2 and A det(J)^3; the
    sign of B and the zero set of A are invariant.
    """
    us, vs = J[0]
    uw, vw = J[1]
    fu, fv = np.array(j.f_u), np.array(j.f_v)
    fuu, fuv, fvv = np.array(j.f_uu), np.array(j.f_uv), np.array(j.f_vv)
    fs = us * fu + vs * fv
    fw = uw * fu + vw * fv
    fss = us * us * fuu + 2 * us * vs * fuv + vs * vs * fvv
    fsw = us * uw * fuu + (us * vw + vs * uw) * fuv + vs * vw * fvv
    fww = uw * uw * fuu + 2 * uw * vw * fuv + vw * vw * fvv
    return Jet2(j.f, Vec3M(*fs), Vec3M(*fw), Vec3M(*fss), Vec3M(*fsw), Vec3M(*fww))


# ---------------------------------------------------------------------------
# causal classification
# ---------------------------------------------------------------------------


def classify(B: float, tol: float = 1e-10) -> CausalVerdict:
    """Causal verdict for a single B value with an absolute null band."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative (got {tol})")
    if B > tol:
        kind = Causal.SPACELIKE
    elif B < -tol:
        kind = Causal.TIMELIKE
    else:
        kind = Causal.NULL
    return CausalVerdict(kind, B, tol)


def degenerate_test(
    B_field: Callable[[float, float], float],
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
    b0 = B_field(u, v)
    if abs(b0) > tol:
        raise ValueError(f"not a null point: B = {b0!r} exceeds tol {tol!r}")
    gu = (B_field(u + h, v) - B_field(u - h, v)) / (2.0 * h)
    gv = (B_field(u, v + h) - B_field(u, v - h)) / (2.0 * h)
    return math.hypot(gu, gv) <= grad_tol


@dataclass(frozen=True)
class NullLineVerdict:
    is_null_line: bool
    direction: Vec3M | None
    max_distance: float
    direction_lorentz_sq: float


def null_line_check(points: Sequence[Vec3M], tol: float = 1e-9) -> NullLineVerdict:
    """Check that points lie on one straight line with a light-like direction.

    Fits the line through the centroid along the principal direction of the
    centered cloud, then requires both the maximum Euclidean point-to-line
    distance and |d.d| for the unit direction d to stay within tol.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points to test a line")
    pts = np.asarray(points, dtype=float)
    centered = pts - pts.mean(axis=0)
    if not np.any(centered):
        raise ValueError("degenerate input: all points coincide")
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    d = vt[0]
    residual = centered - np.outer(centered @ d, d)
    max_dist = float(np.sqrt((residual**2).sum(axis=1).max()))
    lor = float(d[0] * d[0] + d[1] * d[1] - d[2] * d[2])
    ok = max_dist <= tol and abs(lor) <= tol
    return NullLineVerdict(ok, Vec3M(*d), max_dist, lor)
