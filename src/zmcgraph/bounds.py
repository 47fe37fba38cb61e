"""Convergence certificates and coefficient-growth verification.

For a quartic-seed series with parameter c, the coefficient estimates

    |beta_l''(y)| <= |c| |y|^(l*)     M^(l-3)
    |beta_l'(y)|  <= 3|c| |y|^(l*+1) / (l*+2)   M^(l-3)
    |beta_l(y)|   <= 3|c| |y|^(l*+2) / (l*+2)^2 M^(l-3),   l* = (l-1)/2 - 2,

hold on |y| <= delta with the growth constant

    M_delta = 3 max(144 tau |c| delta^(3/2), (192 c^2 tau)^(1/4)),

where tau bounds g(t) = t * integral_t^(1-t) du / (u^2 (1-u)^2) on
0 < t < 1/2.  ``tau_constant`` proves that bound from the closed forms of g
and its slope by bisection, with the standard library only;
``tau_integrand_quadrature``, the quadrature cross-check of g, needs scipy
from the ``test`` extra.
They guarantee the series converges on the open rectangle

    V_delta = (-1/C_delta, 1/C_delta) x (-delta, delta),   C_delta = sqrt(delta) M_delta,

and the union U of the V_delta over delta >= 1 therefore carries the graph.
U contains the whole y-axis but is not convex, which this module exhibits
with an explicit witness pair.

Every inequality that feeds a "pass" verdict is evaluated with directed
rounding: measured quantities are nudged up and bounds nudged down by a few
ulps, so double-precision roundoff can produce spurious failures but never
spurious passes.  The growth sweep evaluates whole sample arrays at once,
and the rounding stays directed element by element.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .series import GraphSeries, SeriesCase

# ---------------------------------------------------------------------------
# directed rounding helpers (conservative toward "fail")
# ---------------------------------------------------------------------------


def round_up(x, steps: int = 4):
    """x nudged ``steps`` ulps toward +inf, element by element on an array.

    Exact zeros carry no roundoff and stay as they are.
    """
    y = x
    for _ in range(steps):
        y = np.nextafter(y, np.inf)
    return np.where(x == 0.0, x, y)


def round_down(x, steps: int = 4):
    """x nudged ``steps`` ulps toward -inf, element by element; zeros stay."""
    y = x
    for _ in range(steps):
        y = np.nextafter(y, -np.inf)
    return np.where(x == 0.0, x, y)


# ---------------------------------------------------------------------------
# the integral constant tau
# ---------------------------------------------------------------------------


def tau_integrand_scaled(t: float) -> float:
    """g(t) = t * integral_t^(1-t) du / (u^2 (1-u)^2), in closed form.

    Partial fractions give 1/(u^2(1-u)^2) = 1/u^2 + 2/u + 2/(1-u) + 1/(1-u)^2,
    whose antiderivative is -1/u + 1/(1-u) + 2 ln(u/(1-u)); evaluating across
    the symmetric interval collapses to the expression below.
    """
    if not 0.0 < t <= 0.5:
        raise ValueError("t must lie in (0, 1/2]")
    return 2.0 - 2.0 * t / (1.0 - t) + 4.0 * t * math.log((1.0 - t) / t)


def tau_integrand_slope(t: float) -> float:
    """g'(t) = -2/(1-t)^2 + 4 ln((1-t)/t) - 4t/(1-t) - 4, the slope of g."""
    if not 0.0 < t <= 0.5:
        raise ValueError("t must lie in (0, 1/2]")
    u = 1.0 - t
    return -2.0 / u**2 + 4.0 * math.log(u / t) - 4.0 * t / u - 4.0


def tau_integrand_quadrature(t: float) -> float:
    """The same g(t) by adaptive quadrature, for cross-validation.

    Needs scipy, which only the ``test`` extra installs.
    """
    from scipy.integrate import quad

    if not 0.0 < t <= 0.5:
        raise ValueError("t must lie in (0, 1/2]")
    val, _ = quad(
        lambda u: 1.0 / (u * u * (1.0 - u) * (1.0 - u)),
        t,
        1.0 - t,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return t * val


@lru_cache(maxsize=1)
def tau_constant() -> tuple[float, float]:
    """(tau, t_star): a proven upper bound tau for sup g, and its maximizer.

    Every term of g' decreases on (0, 1/2], so g is strictly concave there
    and g' has a single root t*.  Bisection on the sign of g' shrinks the
    bracket [lo, hi] = [1e-9, 1/2 - 1e-9] until its midpoint is one of its
    ends, leaving hi - lo one ulp with g'(lo) > 0 >= g'(hi).  By concavity g
    lies below its tangent at lo, and g falls beyond hi, so

        sup g <= g(lo) + max(g'(lo), 0) (hi - lo),

    which is nudged up with ``round_up`` and then rounded up at the fourth
    decimal.  That last step leaves a margin of about 2e-5 over the bound,
    ten orders of magnitude above the float error of g and g', so g(t) <= tau
    for every t in (0, 1/2].  t_star is lo, within a few ulps of t*.
    """
    lo, hi = 1e-9, 0.5 - 1e-9
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if tau_integrand_slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    bound = tau_integrand_scaled(lo) + max(tau_integrand_slope(lo), 0.0) * (hi - lo)
    tau = math.ceil(round_up(bound) * 1e4) / 1e4
    return tau, lo


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceCert:
    """Rectangle of guaranteed definition for one delta."""

    c: Fraction
    delta: float
    tau: float
    M: float
    C_delta: float
    theta0: float
    rect: tuple[tuple[float, float], tuple[float, float]]

    def to_json(self) -> dict:
        return {
            "c": f"{self.c.numerator}/{self.c.denominator}",
            "delta": self.delta,
            "tau": self.tau,
            "M": self.M,
            "C_delta": self.C_delta,
            "theta0": self.theta0,
            "rect": {"x": list(self.rect[0]), "y": list(self.rect[1])},
        }


def _beyond_float(c: Fraction, delta: float) -> ValueError:
    return ValueError(
        f"c = {c} is outside the float range of the certificate at delta = {delta:g}"
    )


def growth_constant(c: Fraction, delta: float, tau: float | None = None) -> float:
    """M_delta = 3 max(144 tau |c| delta^(3/2), (192 c^2 tau)^(1/4))."""
    if c == 0:
        raise ValueError("c must be nonzero")
    if tau is None:
        tau, _ = tau_constant()
    try:
        ca = abs(float(c))
        first = 144.0 * tau * ca * delta**1.5
        second = (192.0 * float(c) ** 2 * tau) ** 0.25
    except OverflowError:  # float(c), c^2 or delta^1.5
        first = second = math.inf
    M = 3.0 * max(first, second)
    # the half-widths are 1 / (sqrt(delta) M), so 1 / M must be finite too
    if not (0.0 < M < math.inf and 1.0 / M < math.inf):
        raise _beyond_float(c, delta)
    return M


def certificate(c: Fraction, delta: float = 1.0) -> ConvergenceCert:
    """Certified rectangle V_delta for the series with parameter c."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite (got {delta})")
    if delta < 1.0:
        raise ValueError("delta must be at least 1")
    tau, _ = tau_constant()
    M = growth_constant(c, delta, tau)
    C = math.sqrt(delta) * M
    try:
        theta0 = 3.0 * abs(float(c)) / (math.sqrt(delta) * M**3)
    except ArithmeticError:  # M^3 overflows, or underflows to 0
        raise _beyond_float(c, delta) from None
    rect = ((-1.0 / C, 1.0 / C), (-delta, delta))
    return ConvergenceCert(c, delta, tau, M, C, theta0, rect)


# interior margin used when the optimal delta sits exactly at |y|;
# the rectangles are open, so membership needs a strictly larger delta
_ETA = 1e-9


def u_halfwidth(c: Fraction, y: float) -> float:
    """Half-width in x of the certified union U at height y.

    C_delta is strictly increasing in delta, so the widest admissible
    rectangle through height y is the one with delta = max(1, |y| + eta).
    """
    if not math.isfinite(y):
        raise ValueError(f"y must be finite (got {y})")
    delta = max(1.0, abs(y) + _ETA)
    return 1.0 / (math.sqrt(delta) * growth_constant(c, delta))


def u_membership(c: Fraction, x: float, y: float) -> bool:
    """Whether (x, y) lies in the certified union U = U_(delta>=1) V_delta."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite (got {x})")
    return abs(x) < u_halfwidth(c, y)


@dataclass(frozen=True)
class ConvexityWitness:
    p1: tuple[float, float]
    p2: tuple[float, float]
    midpoint: tuple[float, float]
    midpoint_in_u: bool
    non_convex: bool

    def to_json(self) -> dict:
        return {
            "p1": list(self.p1),
            "p2": list(self.p2),
            "midpoint": list(self.midpoint),
            "midpoint_in_u": self.midpoint_in_u,
            "non_convex": self.non_convex,
        }


def convexity_witness(c: Fraction) -> ConvexityWitness:
    """Concrete certificate that U is not convex.

    Takes points just inside U at heights 2 and 4; the half-width decays
    like |y|^(-2) there, a strictly convex profile, so the chord midpoint at
    height 3 pokes outside.  Raises if the midpoint unexpectedly lands in U.
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    p1 = (0.999 * u_halfwidth(c, 2.0), 2.0)
    p2 = (0.999 * u_halfwidth(c, 4.0), 4.0)
    mid = ((p1[0] + p2[0]) / 2.0, (p1[1] + p2[1]) / 2.0)
    inside = u_membership(c, *mid)
    if inside:
        raise ArithmeticError(
            "non-convexity witness failed: chord midpoint lies in U "
            f"(c = {c}); the width profile is not convex at these heights"
        )
    return ConvexityWitness(p1, p2, mid, inside, not inside)


# ---------------------------------------------------------------------------
# coefficient-estimate sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    l: int
    inequality: str
    delta: float
    worst_y: float
    lhs: float
    rhs: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "inequality": self.inequality,
            "delta": self.delta,
            "worst_y": self.worst_y,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


_GROWTH_CHECKS = ("d2-bound", "d1-bound", "value-bound", "chain-bound")


def _horner_abs(rows: list[list[float]], ys: np.ndarray) -> np.ndarray:
    """|p(y)| for each float coefficient list p in ``rows`` at each y in ys.

    Horner's rule in float over all rows at once, shaped (len(rows), len(ys)).
    A shorter row is padded with leading zeros, which leave its value 0.0
    until its own top coefficient enters, so each entry equals the float
    evaluation ``RationalPoly.__call__`` gives bit for bit.
    """
    top = max(map(len, rows), default=0)
    table = np.zeros((len(rows), top))
    for r, cs in enumerate(rows):
        table[r, top - len(cs):] = cs[::-1]
    v = np.zeros((len(rows), len(ys)))
    for col in table.T:
        v = v * ys + col[:, None]
    return np.abs(v)


def verify_growth_estimates(
    s: GraphSeries, delta: float = 1.0, samples: int = 101
) -> list[BoundCheck]:
    """Check the three growth estimates and the chained bound on a y-grid.

    For each stored l >= 5 and each of ``samples`` points y in [-delta, delta],
    verifies (with measured side rounded up and bound side rounded down):

        d2-bound:    |beta_l''(y)| <= |c| |y|^(l*) M^(l-3)
        d1-bound:    |beta_l'(y)|  <= 3|c| |y|^(l*+1)/(l*+2) M^(l-3)
        value-bound: |beta_l(y)|   <= 3|c| |y|^(l*+2)/(l*+2)^2 M^(l-3)
        chain-bound: 3|c| |y|^(l*+2)/(l*+2)^2 M^(l-3) <= theta0 C_delta^l

    Returns one row per (l, inequality) with the worst margin over the grid:
    the first y where rhs - lhs is least.  Every (l, y) is evaluated at once
    on numpy arrays, the powers of |y| with ``np.float_power`` (C ``pow``),
    and the rounding stays directed element by element.  A side that is not
    finite (a Horner or power overflow) makes its margin NaN, and a NaN
    margin is the worst of its row and fails it.  Raises ValueError when a
    coefficient, M^(l-3) or C_delta^l leaves float range.
    """
    if s.seed.case is SeriesCase.MIXED_I:
        raise ValueError("growth estimates cover quartic seeds only")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite (got {delta})")
    if delta < 1.0:
        raise ValueError("delta must be at least 1")
    if samples < 2:
        raise ValueError("need at least 2 sample points")
    cert = certificate(s.seed.c, delta)
    ca = abs(float(s.seed.c))
    ls = range(5, s.order + 1)
    scales = []  # (M^(l-3), theta0 C_delta^l) per l
    for l in ls:
        try:
            scales.append((cert.M ** (l - 3), cert.theta0 * cert.C_delta**l))
        except OverflowError:
            raise ValueError(
                f"c = {s.seed.c} is outside the float range of the growth "
                f"estimates at delta = {delta:g}: M^(l-3) or C_delta^l "
                f"overflows at order l = {l}"
            ) from None
    mpow, chain = np.array(scales).reshape(-1, 2).T[:, :, None]
    rows = {k: row for k, *row in s._float_tables()[0]}
    coeffs = [rows.get(l, ([], [], [])) for l in ls]
    ys = -delta + 2.0 * delta * np.arange(samples) / (samples - 1)
    ay = np.abs(ys)
    lstar = 0.5 * (np.array(ls)[:, None] - 1) - 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sides fail
        value = 3.0 * ca * np.float_power(ay, lstar + 2.0) / (lstar + 2.0) ** 2 * mpow
        lhs = np.stack(
            [_horner_abs([c[i] for c in coeffs], ys) for i in (2, 1, 0)] + [value]
        )
        rhs = np.stack([
            ca * np.float_power(ay, lstar) * mpow,
            3.0 * ca * np.float_power(ay, lstar + 1.0) / (lstar + 2.0) * mpow,
            value,
            np.broadcast_to(chain, value.shape),
        ])
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        lhs, rhs = round_up(lhs), round_down(rhs)
        margin = np.where(finite, rhs - lhs, np.nan)
    worst = np.argmin(margin, axis=-1)[..., None]  # the first NaN, else least

    def at_worst(a):  # per l, the four inequalities' values at their worst y
        a = np.broadcast_to(a, margin.shape)
        return np.take_along_axis(a, worst, -1)[..., 0].T.tolist()

    wy, wl, wr, ok = map(at_worst, (ys, lhs, rhs, margin >= 0.0))
    return [
        BoundCheck(l, name, delta, wy[j][i], wl[j][i], wr[j][i], ok[j][i])
        for j, l in enumerate(ls)
        for i, name in enumerate(_GROWTH_CHECKS)
    ]
