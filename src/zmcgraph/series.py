"""Power-series construction of zero-mean-curvature graphs through a null line.

A graph t = psi(x, y) over a neighborhood of the y-axis contains the light-like
line L = {(0, y, y)} exactly when it has the form

    psi(x, y) = y + alpha(y)/2 * x^2 + sum_{k>=3} beta_k(y) x^k / k,

and the ZMC condition forces alpha' + alpha^2 + mu = 0 for a constant mu.
This module constructs the truncated series for the alpha = 0 branch, the only
one that can carry embedded examples through an entire null line, from two
independent directions:

* ``series_from_recursion``: the closed-form convolution recursion for the
  second derivatives beta_k'' in terms of lower-order coefficients, valid for
  seeds with beta_3 = 0 (the quartic seeds).
* ``series_from_expansion``: order-by-order expansion of the graph ZMC
  equation (1 - psi_y^2) psi_xx + 2 psi_x psi_y psi_xy + (1 - psi_x^2) psi_yy = 0,
  reading off each x^k coefficient.  Works for every seed, including the cubic
  (mixed-type) one, and serves as the independent oracle for the first path.

All coefficients are exact rationals.  Truncations evaluate to float jets for
grid work, and to exact rational jets where sign decisions or residual-order
measurements need to be immune to double-precision noise.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .lorentz import GraphJet, graph_af_bf
from .poly import RationalPoly, ZERO_POLY

# ---------------------------------------------------------------------------
# alpha families: solutions of alpha' + alpha^2 + mu = 0
# ---------------------------------------------------------------------------

_POLE_EPS = 1e-9


@dataclass(frozen=True)
class AlphaFamily:
    """Closed-form solution family of alpha' + alpha^2 + mu = 0.

    ``shift`` is the integration constant (the c in y + c); ``mu`` is the
    normalized causal constant in {-1, 0, 1}.
    """

    tag: str
    shift: float = 0.0
    mu: int = 0

    def is_pole(self, y: float) -> bool:
        s = y + self.shift
        if self.tag == "plus":
            return abs(math.cos(s)) < _POLE_EPS
        if self.tag in ("zeroII", "minusII"):
            return abs(s) < _POLE_EPS
        return False

    def value(self, y: float) -> float:
        s = y + self.shift
        if self.tag == "plus":
            return -math.tan(s)
        if self.tag == "zeroI":
            return 0.0
        if self.tag == "zeroII":
            return 1.0 / s
        if self.tag == "minusI":
            return math.tanh(s)
        if self.tag == "minusII":
            return math.cosh(s) / math.sinh(s)
        if self.tag == "minusIII+":
            return 1.0
        if self.tag == "minusIII-":
            return -1.0
        raise ValueError(f"unknown alpha family tag {self.tag!r}")

    def slope(self, y: float) -> float:
        s = y + self.shift
        if self.tag == "plus":
            return -1.0 / math.cos(s) ** 2
        if self.tag == "zeroII":
            return -1.0 / (s * s)
        if self.tag == "minusI":
            return 1.0 / math.cosh(s) ** 2
        if self.tag == "minusII":
            return -1.0 / math.sinh(s) ** 2
        return 0.0

    def ode_residual(self, y: float) -> float:
        a = self.value(y)
        return self.slope(y) + a * a + self.mu


_FAMILY_MU = {
    "plus": 1,
    "zeroI": 0,
    "zeroII": 0,
    "minusI": -1,
    "minusII": -1,
    "minusIII+": -1,
    "minusIII-": -1,
}


def alpha_family(tag: str, shift: float = 0.0) -> AlphaFamily:
    if tag not in _FAMILY_MU:
        raise ValueError(f"unknown alpha family tag {tag!r}")
    return AlphaFamily(tag, shift, _FAMILY_MU[tag])


ALPHA_ZERO = alpha_family("zeroI")


@dataclass(frozen=True)
class AlphaCheckReport:
    entries: tuple[tuple[float, float | None, str | None], ...]
    max_residual: float


def alpha_check(fam: AlphaFamily, samples: Sequence[float]) -> AlphaCheckReport:
    """Residual |alpha' + alpha^2 + mu| over samples; poles become error rows."""
    entries = []
    worst = 0.0
    for y in samples:
        if fam.is_pole(y):
            entries.append((y, None, "pole"))
            continue
        r = abs(fam.ode_residual(y))
        worst = max(worst, r)
        entries.append((y, r, None))
    return AlphaCheckReport(tuple(entries), worst)


# ---------------------------------------------------------------------------
# seeds and the series container
# ---------------------------------------------------------------------------


class SeriesCase(Enum):
    MIXED_I = "i"
    SPACELIKE_II = "ii"
    TIMELIKE_III = "iii"


@dataclass(frozen=True)
class SeedCondition:
    """Initial data pinning the series branch.

    * case i: beta_3 = 3 c y with c > 0, all later coefficients flat at 0.
    * case ii: beta_3 = 0, beta_4 = 4 c y with c < 0 (space-like off the axis).
    * case iii: beta_3 = 0, beta_4 = 4 c y with c > 0 (time-like off the axis).
    """

    case: SeriesCase
    c: Fraction

    def __post_init__(self):
        c = self.c
        if not isinstance(c, Fraction):
            object.__setattr__(self, "c", Fraction(c))
            c = self.c
        if c == 0:
            raise ValueError("seed parameter c must be nonzero")
        if self.case is SeriesCase.SPACELIKE_II and c >= 0:
            raise ValueError("case ii requires c < 0")
        if self.case is SeriesCase.TIMELIKE_III and c <= 0:
            raise ValueError("case iii requires c > 0")
        if self.case is SeriesCase.MIXED_I and c <= 0:
            raise ValueError("case i requires c > 0")

    def seed_betas(self) -> dict[int, RationalPoly]:
        if self.case is SeriesCase.MIXED_I:
            return {3: RationalPoly([0, 3 * self.c])}
        return {3: ZERO_POLY, 4: RationalPoly([0, 4 * self.c])}

    @property
    def first_unknown(self) -> int:
        return 4 if self.case is SeriesCase.MIXED_I else 5


@dataclass
class GraphSeries:
    """Truncated graph series psi(x, y) = y + sum_k beta_k(y) x^k / k.

    ``betas`` maps every k in 3..order to the exact coefficient polynomial
    beta_k.  Values are immutable by convention once constructed.  The jet
    table, one row (k, beta_k, beta_k', beta_k'') of coefficient lists per
    nonzero beta_k, exact, as floats and as the magnitudes of those floats,
    is built on first use and cached.
    """

    seed: SeedCondition
    order: int
    betas: dict[int, RationalPoly]
    _tables: tuple[list, list, list] | None = field(
        default=None, repr=False, compare=False
    )

    def beta(self, k: int) -> RationalPoly:
        return self.betas[k]

    def _jet_tables(self) -> tuple[list, list, list]:
        if self._tables is None:
            exact = []
            for k in sorted(self.betas):
                b = self.betas[k]
                if not b.is_zero:
                    bd = b.derivative()
                    exact.append((k, b.coeffs, bd.coeffs, bd.derivative().coeffs))
            floats = [(k, *([float(c) for c in cs] for cs in row)) for k, *row in exact]
            mags = [(k, *([abs(c) for c in cs] for cs in row)) for k, *row in floats]
            self._tables = exact, floats, mags
        return self._tables


# ---------------------------------------------------------------------------
# the convolution recursion (quartic seeds only)
# ---------------------------------------------------------------------------

# highest order either construction path accepts: order 48 already takes
# seconds of exact Fraction work, and the cost grows steeply beyond it
MAX_ORDER = 48


def pqr_terms(
    k: int, betas: Mapping[int, RationalPoly]
) -> tuple[RationalPoly, RationalPoly, RationalPoly]:
    """The three convolution sums feeding the beta_k'' recursion.

    For quartic seeds (beta_3 = 0) the x^k coefficient of the graph ZMC
    equation reduces to beta_k''/k + p_k + q_k - r_k = 0 with

        p_k = sum_{m=4}^{k-2} 2(k - 2m + 3)/(k - m + 2) beta_m beta'_{k-m+2}
        q_k = sum_{m,n>=4, m+n<=k-2} (3n - k + m - 1)/(mn)
                  beta'_m beta'_n beta_{k-m-n+2}
        r_k = sum_{m>=4, n>=4, m+n<=k-3} beta_m beta_n beta''_{k-m-n+2} / (k-m-n+2)

    p is zero below k = 6, q below k = 10 and r below k = 11.  Requires the
    cubic coefficient to vanish and all beta_m for 4 <= m <= k-2 present.
    """
    if k < 3:
        raise ValueError("recursion index k must be at least 3")
    b3 = betas.get(3)
    if b3 is not None and not b3.is_zero:
        raise ValueError(
            "convolution recursion is valid only for seeds with zero cubic "
            "coefficient; use series_from_expansion for the mixed-type seed"
        )
    missing = [m for m in range(4, k - 1) if m not in betas]
    if missing:
        raise ValueError(f"missing prerequisite coefficients: {missing}")

    p = ZERO_POLY
    if k >= 6:
        for m in range(4, k - 1):
            j = k - m + 2
            term = betas[m] * betas[j].derivative()
            p = p + term.scale(Fraction(2 * (k - 2 * m + 3), k - m + 2))
    q = ZERO_POLY
    if k >= 10:
        for m in range(4, k - 5):
            bmd = betas[m].derivative()
            for n in range(4, k - m - 1):
                j = k - m - n + 2
                term = bmd * betas[n].derivative() * betas[j]
                q = q + term.scale(Fraction(3 * n - k + m - 1, m * n))
    r = ZERO_POLY
    if k >= 11:
        for m in range(4, k - 6):
            for n in range(4, k - m - 2):
                j = k - m - n + 2
                term = betas[m] * betas[n] * betas[j].derivative().derivative()
                r = r + term.scale(Fraction(1, j))
    return p, q, r


def series_from_recursion(seed: SeedCondition, order: int) -> GraphSeries:
    """Build the series for a quartic seed by the convolution recursion.

    Each beta_k (k >= 5) solves beta_k'' = -k (p_k + q_k - r_k) with
    beta_k(0) = beta_k'(0) = 0, integrated exactly.
    """
    if seed.case is SeriesCase.MIXED_I:
        raise ValueError(
            "the convolution recursion does not cover the mixed-type seed; "
            "use series_from_expansion"
        )
    if order < 5:
        raise ValueError("order must be at least 5")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the cost cap {MAX_ORDER}")
    betas = seed.seed_betas()
    for k in range(5, order + 1):
        p, q, r = pqr_terms(k, betas)
        rhs = (p + q - r).scale(-k)
        betas[k] = rhs.antiderivative_zero().antiderivative_zero()
    return GraphSeries(seed, order, betas)


# ---------------------------------------------------------------------------
# the direct-expansion oracle (any seed)
# ---------------------------------------------------------------------------


def series_from_expansion(seed: SeedCondition, order: int) -> GraphSeries:
    """Build the series by expanding the graph ZMC equation order by order.

    Writes psi = sum_j b_j x^j with b_0 = y and b_j = beta_j / j, forms the
    x^k coefficient of (1 - psi_y^2) psi_xx + 2 psi_x psi_y psi_xy +
    (1 - psi_x^2) psi_yy using truncated Cauchy products of the known lower
    coefficients, and solves beta_k'' = -k * (that coefficient) with zero
    initial data.  Independent of the convolution recursion, and the only
    constructive path for the mixed-type (cubic) seed.
    """
    if order < 4:
        raise ValueError("order must be at least 4")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the cost cap {MAX_ORDER}")
    b: dict[int, RationalPoly] = {0: RationalPoly([0, 1]), 1: ZERO_POLY, 2: ZERO_POLY}
    for k, bk in seed.seed_betas().items():
        b[k] = bk.scale(Fraction(1, k))
    for k in range(seed.first_unknown, order + 1):
        e_k = _zmc_x_coefficient(b, k)
        beta_k = e_k.scale(-k).antiderivative_zero().antiderivative_zero()
        b[k] = beta_k.scale(Fraction(1, k))
    betas = {j: b[j].scale(j) for j in range(3, order + 1)}
    return GraphSeries(seed, order, betas)


def _zmc_x_coefficient(b: Mapping[int, RationalPoly], k: int) -> RationalPoly:
    """x^k coefficient of the graph ZMC expression, with b_k treated as zero.

    Component series, indexed by x power:
        psi_y - 1 : T[j]   = b_j'              (j >= 3)
        psi_x     : X[i]   = (i+1) b_{i+1}     (i >= 2)
        psi_xy    : XY[i]  = (i+1) b_{i+1}'    (i >= 2)
        psi_xx    : XX[i]  = (i+2)(i+1) b_{i+2}  (i >= 1)
        psi_yy    : YY[j]  = b_j''             (j >= 3)
    """
    top = max(b)
    T = {j: b[j].derivative() for j in range(3, top + 1) if j in b}
    X = {i: b[i + 1].scale(i + 1) for i in range(2, top) if i + 1 in b}
    XY = {i: T[i + 1].scale(i + 1) for i in range(2, top) if i + 1 in T}
    XX = {i: b[i + 2].scale((i + 2) * (i + 1)) for i in range(1, top - 1) if i + 2 in b}
    YY = {j: T[j].derivative() for j in T}

    out = ZERO_POLY
    # (1 - psi_y^2) psi_xx = (-2T - T^2) psi_xx
    for j, tj in T.items():
        i = k - j
        if i in XX:
            out = out + (tj * XX[i]).scale(-2)
    for j1, t1 in T.items():
        for j2, t2 in T.items():
            i = k - j1 - j2
            if i in XX:
                out = out - t1 * t2 * XX[i]
    # 2 psi_x (1 + T) psi_xy
    for i1, x1 in X.items():
        i2 = k - i1
        if i2 in XY:
            out = out + (x1 * XY[i2]).scale(2)
    for i1, x1 in X.items():
        for j, tj in T.items():
            i2 = k - i1 - j
            if i2 in XY:
                out = out + (x1 * tj * XY[i2]).scale(2)
    # (1 - psi_x^2) psi_yy; YY[k] is the unknown and is excluded by b_k absent
    if k in YY:
        out = out + YY[k]
    for i1, x1 in X.items():
        for i2, x2 in X.items():
            j = k - i1 - i2
            if j in YY:
                out = out - x1 * x2 * YY[j]
    return out


# ---------------------------------------------------------------------------
# evaluation: float jets, exact jets, exact residuals
# ---------------------------------------------------------------------------


def _horner(coeffs: Sequence, y):
    v = 0
    for c in reversed(coeffs):
        v = v * y + c
    return v


def _jet(table, x, y, power) -> tuple:
    """(value, px, py - 1, pxx, pxy, pyy) of y + sum_k beta_k(y) x^k / k.

    Integer literals only, so one body serves Fraction, float and ndarray
    arguments; ``power(x, n)`` is x to the n-th power.  The third entry is
    q = py - 1, summed directly, so B = -(px^2 + q (2 + q)) can be formed
    without the cancellation of 1 - py^2 near the null line.
    """
    value = y
    px = q = pxx = pxy = pyy = 0
    for k, cb, cbd, cbdd in table:
        bk, bdk, bddk = _horner(cb, y), _horner(cbd, y), _horner(cbdd, y)
        xk2 = power(x, k - 2)
        xk1 = xk2 * x
        xk = xk1 * x
        # no +=: value starts as the caller's y, which an in-place add would change
        value = value + bk * xk / k
        px = px + bk * xk1
        q = q + bdk * xk / k
        pxx = pxx + (k - 1) * bk * xk2
        pxy = pxy + bdk * xk1
        pyy = pyy + bddk * xk / k
    return value, px, q, pxx, pxy, pyy


def psi_jet(s: GraphSeries, x, y) -> GraphJet:
    """Float jet (value and first/second partials) of the truncated series.

    x and y are floats, or equal-shape arrays for a whole grid in one call.
    ``np.float_power`` runs the C library's pow on scalars and array elements
    alike (numpy's ``**`` on arrays uses a vectorised pow that can differ in
    the last bit), so an array call equals per-point calls bit for bit.
    """
    value, px, q, pxx, pxy, pyy = _jet(s._jet_tables()[1], x, y, np.float_power)
    return GraphJet(value, px, 1 + q, pxx, pxy, pyy)


def psi_eval_exact(s: GraphSeries, x: Fraction, y: Fraction) -> Fraction:
    """Exact rational value of the truncated series."""
    x, y = Fraction(x), Fraction(y)
    v = y
    for k, bk in s.betas.items():
        if not bk.is_zero:
            v += bk(y) * x**k / k
    return v


def graph_jet_exact(
    s: GraphSeries, x: Fraction, y: Fraction
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
    """Exact rational jet (value, px, py, pxx, pxy, pyy) of the truncation."""
    value, px, q, pxx, pxy, pyy = _jet(
        s._jet_tables()[0], Fraction(x), Fraction(y), operator.pow
    )
    return value, px, 1 + q, pxx, pxy, pyy


def af_bf_exact(s: GraphSeries, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    """Exact ZMC residual and causal field of the truncation at (x, y)."""
    return graph_af_bf(GraphJet(*graph_jet_exact(s, x, y)))


_REALMIN = 2.0**-1022  # smallest normal float64
# smallest magnitude sum M the filter trusts: above it g * M is a normal float,
# and the absolute error of a final product that underflows is far below the
# slack in g
_M_MIN = 2.0**-900


def _filter_factor(n: int) -> float:
    """A float g >= gamma_n / (1 - gamma_n) with room for rounding g * M.

    gamma_n = n u / (1 - n u) bounds n relative roundings of unit roundoff
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
    The factor 1 + 2^-40 covers the rounding of the product g * M and the
    absolute error of final products that underflow while M >= _M_MIN.
    """
    u = Fraction(1, 2**53)
    gamma = n * u / (1 - n * u)
    g = gamma / (1 - gamma) * (1 + Fraction(1, 2**40))
    return math.nextafter(float(g), math.inf)


def causal_signs(s: GraphSeries, xs, ys) -> tuple[np.ndarray, int]:
    """Exact sign of B at every point of ``np.meshgrid(xs, ys, indexing="ij")``.

    Returns an int8 array of -1 (time-like), 0 (null) and 1 (space-like), and
    the number of points decided by ``af_bf_exact``.  The sign equals that of
    the exact B of ``af_bf_exact`` at the same float coordinates everywhere.

    A filtered predicate (Shewchuk, Adaptive Precision Floating-Point
    Arithmetic and Fast Robust Geometric Predicates, 1997).  The float jet
    gives px and q = py - 1, and B = -(px^2 + q (2 + q)).  Every monomial of
    px and q, a coefficient times y^i x^j, passes through at most
    N = 2 d + T + 6 roundings: the coefficient to float, 2 d in Horner
    (Higham, 5.1), 4 for ``np.float_power`` taken as 2 ulp, two products for
    x^k, the product with beta_k, the division by k and T - 1 additions (d
    the largest degree, T the number of nonzero beta_k).  Forming B adds 3,
    so |B_float - B| <= gamma_(2N+3) M, where M = |px|^2 + |q| (2 + |q|) sums
    the magnitudes of the monomials; running the same jet on the magnitude
    table at |x|, |y| bounds M from above once divided by 1 - gamma.

    x = 0 is null exactly, since every monomial of px and q carries a power
    of x.  A point goes to ``af_bf_exact`` when |B_float| does not exceed the
    bound, or when a product in the jet could leave the normal float range,
    which voids the gamma bounds: by underflow (checked through a lower
    bound on every nonzero product) or by overflow (a non-finite B or M).
    """
    X, Y = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float), indexing="ij")
    exact, floats, mags = s._jet_tables()
    kmax = max(k for k, *_ in floats)
    dmax = max(len(cb) - 1 for _, cb, _, _ in floats)
    # the smallest nonzero coefficient as a float; 0 if one rounds to 0
    cmin = min(
        abs(f) for erow, frow in zip(exact, floats)
        for es, fs in zip(erow[1:], frow[1:]) for e, f in zip(es, fs) if e
    )

    g = _filter_factor(2 * (2 * dmax + len(floats) + 6) + 3)
    # every nonzero Horner partial sum is >= cmin 2^-54 min(|y|, 1)^d (and
    # y = 0 makes each product exactly 0); every power of x used is
    # >= min(|x|, 1)^kmax; each product in the jet is at least their product
    # over kmax, and 4 realmin leaves room for the rounding of this check
    ty = np.where(Y == 0, 1.0, np.minimum(np.abs(Y), 1.0))
    lowest = (
        cmin * 2.0**-54 * np.float_power(ty, dmax)
        * np.float_power(np.minimum(np.abs(X), 1.0), kmax) / kmax
    )
    with np.errstate(over="ignore", invalid="ignore"):  # caught by isfinite
        _, px, q, *_ = _jet(floats, X, Y, np.float_power)
        _, pm, qm, *_ = _jet(mags, np.abs(X), np.abs(Y), np.float_power)
        B = -(px * px + q * (2 + q))
        M = pm * pm + qm * (2 + qm)
        decided = (
            (X != 0) & (lowest >= 4 * _REALMIN) & (M >= _M_MIN)
            & np.isfinite(B) & (np.abs(B) > g * M)
        )
    signs = np.where(decided, np.where(B > 0, 1, -1), 0).astype(np.int8)
    rest = np.argwhere(~decided & (X != 0))
    for i, j in rest:
        b = af_bf_exact(s, Fraction(float(X[i, j])), Fraction(float(Y[i, j])))[1]
        signs[i, j] = (b > 0) - (b < 0)
    return signs, len(rest)


def af_fd_exact(s: GraphSeries, x: Fraction, y: Fraction, h: Fraction) -> Fraction:
    """ZMC residual from exact-rational central differences of psi.

    The stencil is evaluated in exact arithmetic, so the only error is the
    h^2 truncation of the difference quotients; choosing h << x^2 pushes it
    below the genuine series-truncation residual, which double precision
    could never resolve at small x.
    """
    x, y, h = Fraction(x), Fraction(y), Fraction(h)
    if h <= 0:
        raise ValueError("h must be positive")
    p = lambda a, b: psi_eval_exact(s, a, b)
    f0 = p(x, y)
    fxp, fxm = p(x + h, y), p(x - h, y)
    fyp, fym = p(x, y + h), p(x, y - h)
    fpp, fpm = p(x + h, y + h), p(x + h, y - h)
    fmp, fmm = p(x - h, y + h), p(x - h, y - h)
    px = (fxp - fxm) / (2 * h)
    py = (fyp - fym) / (2 * h)
    pxx = (fxp - 2 * f0 + fxm) / h**2
    pyy = (fyp - 2 * f0 + fym) / h**2
    pxy = (fpp - fpm - fmp + fmm) / (4 * h**2)
    return graph_af_bf(GraphJet(f0, px, py, pxx, pxy, pyy))[0]


def residual_order_slope(
    s: GraphSeries,
    x_samples: Sequence[Fraction],
    y_samples: Sequence[Fraction],
    h_ratio: Fraction = Fraction(1, 100),
) -> float:
    """Least-squares log-log slope of the truncation residual in x.

    For each x the residual is the maximum over y_samples of the exact
    finite-difference ZMC residual with step h = h_ratio * x^5, small enough
    that stencil truncation error stays far below the series truncation
    signal on the sampled range.
    """
    pts = []
    for x in x_samples:
        x = Fraction(x)
        h = Fraction(h_ratio) * x**5
        worst = max(abs(af_fd_exact(s, x, y, h)) for y in y_samples)
        if worst == 0:
            continue
        pts.append((math.log(float(x)), _log_abs(worst)))
    if len(pts) < 2:
        raise ValueError("not enough nonzero residual samples for a slope fit")
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _log_abs(fr: Fraction) -> float:
    """Natural log of |fr| for rationals far outside float range."""
    if fr == 0:
        raise ValueError("log of zero")

    def log2_int(z: int) -> float:
        if z.bit_length() <= 960:
            return math.log2(z)
        sh = z.bit_length() - 60
        return sh + math.log2(z >> sh)

    return (log2_int(abs(fr.numerator)) - log2_int(fr.denominator)) * math.log(2.0)


# ---------------------------------------------------------------------------
# homothety
# ---------------------------------------------------------------------------


def homothety(s: GraphSeries, m: Fraction) -> GraphSeries:
    """Exact homothetic rescaling psi(x, y) -> psi(m x, m y) / m of a series.

    Coefficients transform as beta_k(y) -> m^(k-1) beta_k(m y); the seed
    parameter becomes m^3 c for the cubic seed and m^4 c for quartic seeds.
    """
    m = Fraction(m)
    if m <= 0:
        raise ValueError("homothety factor must be positive")
    if m == 1:
        return s
    power = 3 if s.seed.case is SeriesCase.MIXED_I else 4
    new_seed = SeedCondition(s.seed.case, s.seed.c * m**power)
    new_betas = {}
    for k, bk in s.betas.items():
        new_betas[k] = RationalPoly(
            [c * m ** (k - 1 + d) for d, c in enumerate(bk.coeffs)]
        )
    return GraphSeries(new_seed, s.order, new_betas)


def homothety_graph(
    psi: Callable[[float, float], float], m: float
) -> Callable[[float, float], float]:
    """Homothetic rescaling of a black-box graph function."""
    if m <= 0:
        raise ValueError("homothety factor must be positive")
    return lambda x, y: psi(m * x, m * y) / m


# ---------------------------------------------------------------------------
# coefficient interchange format
# ---------------------------------------------------------------------------


def series_to_json(s: GraphSeries) -> dict:
    """Interchange dict: case tag, exact c, order, nonzero coefficient arrays."""
    return {
        "case": s.seed.case.value,
        "c": f"{s.seed.c.numerator}/{s.seed.c.denominator}",
        "order": s.order,
        "betas": {
            str(k): s.betas[k].to_json()
            for k in sorted(s.betas)
            if not s.betas[k].is_zero
        },
    }


def series_from_json(data: Mapping) -> GraphSeries:
    case = SeriesCase(data["case"])
    seed = SeedCondition(case, Fraction(data["c"]))
    order = int(data["order"])
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the cost cap {MAX_ORDER}")
    betas = {k: ZERO_POLY for k in range(3, order + 1)}
    for key, arr in data["betas"].items():
        k = int(key)
        if not 3 <= k <= order:
            raise ValueError(f"coefficient index {k} outside 3..{order}")
        betas[k] = RationalPoly.from_json(arr)
    return GraphSeries(seed, order, betas)


# ---------------------------------------------------------------------------
# the k = 8 sign note
# ---------------------------------------------------------------------------

# Commonly tabulated closed form for the k = 8 coefficient: -32 c^3 y^5.  Both
# construction paths in this package yield +32 c^3 y^5 and agree with each
# other exactly, so the discrepancy is reported informationally, never
# asserted in either direction.
REFERENCE_BETA8_COEFF = Fraction(-32)


def beta8_sign_note(s: GraphSeries) -> dict:
    """Informational report row comparing beta_8 against the tabulated value."""
    if 8 not in s.betas:
        raise ValueError("series order is below 8")
    computed = s.betas[8]
    c = s.seed.c
    reference = RationalPoly.monomial(5, REFERENCE_BETA8_COEFF * c**3)
    agrees = computed == reference
    return {
        "kind": "info",
        "name": "beta8-sign",
        "computed": computed.to_json(),
        "reference": reference.to_json(),
        "agrees_with_reference": agrees,
        "detail": (
            "computed k=8 coefficient matches the tabulated -32 c^3 y^5"
            if agrees
            else "both construction paths yield +32 c^3 y^5; the tabulated "
            "-32 c^3 y^5 differs in sign (informational, not a failure)"
        ),
    }
