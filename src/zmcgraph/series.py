"""Power-series construction of zero-mean-curvature graphs through a null line.

A graph t = psi(x, y) over a neighborhood of the y-axis contains the light-like
line L = {(0, y, y)} exactly when it has the form

    psi(x, y) = y + alpha(y)/2 * x^2 + sum_{k>=3} beta_k(y) x^k / k,

and the ZMC condition forces alpha' + alpha^2 + mu = 0 for a constant mu.
This module constructs the truncated series for the alpha = 0 branch, the only
one that can carry embedded examples through an entire null line, along two
independent paths:

* ``series_from_expansion`` constructs, for every seed.  The graphs are
  homothetic in c, so the y^d coefficient of beta_k is a_{k,d} c^((k-1+d)/w),
  w = 4 for the quartic seeds and 3 for the cubic (mixed-type) one.  The a_{k,d}
  come from one c = 1 table per seed type, expanded order by order from the
  graph ZMC equation on sparse coefficient maps and cached for the process
  (``_unit_betas``); a series for any c is that table with the powers of c
  substituted.
* ``series_from_recursion`` is the oracle: the closed-form convolution
  recursion for the second derivatives beta_k'' in terms of lower-order
  coefficients, in dense exact polynomial arithmetic (``pqr_terms``), valid
  for the quartic seeds (beta_3 = 0).  The two paths agree bit for bit.

All coefficients are exact rationals.  Truncations evaluate to float jets for
grid work, and to exact rational jets where sign decisions or residual-order
measurements need to be immune to double-precision noise.
"""
from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .lorentz import GraphJet, graph_af_bf
from .poly import RationalPoly, ZERO_POLY

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
    nonzero beta_k, is built on first use and cached: as floats and as the
    magnitudes of those floats (``_float_tables``), and exact
    (``_exact_table``) only once an exact jet needs it.
    """

    seed: SeedCondition
    order: int
    betas: dict[int, RationalPoly]
    _floats: tuple[list, list] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _exact: list | None = field(default=None, init=False, repr=False, compare=False)

    def beta(self, k: int) -> RationalPoly:
        return self.betas[k]

    def _nonzero(self) -> list[tuple[int, RationalPoly]]:
        return [(k, self.betas[k]) for k in sorted(self.betas) if self.betas[k]]

    def _float_tables(self) -> tuple[list, list]:
        """(floats, magnitudes): the jet table rounded to float, and abs of it.

        Each entry is ``float()`` of the exact coefficient of beta_k, beta_k'
        or beta_k'', taken straight from the integers: the derivative
        coefficients of p/q y^i are i p/q and i (i-1) p/q, and int true
        division is correctly rounded, so ``i * p / q`` is the float of the
        exact rational bit for bit, with no Fraction derivative built.
        """
        if self._floats is None:
            floats = []
            try:
                for k, b in self._nonzero():
                    pq = [(c.numerator, c.denominator) for c in b.coeffs]
                    floats.append((
                        k,
                        [p / q for p, q in pq],
                        [i * p / q for i, (p, q) in enumerate(pq)][1:],
                        [i * (i - 1) * p / q for i, (p, q) in enumerate(pq)][2:],
                    ))
            except OverflowError:
                raise ValueError(
                    f"c = {self.seed.c} is too large for float evaluation: the "
                    f"order-{self.order} coefficients overflow float range"
                ) from None
            mags = [(k, *([abs(c) for c in cs] for cs in row)) for k, *row in floats]
            self._floats = floats, mags
        return self._floats

    def _exact_table(self) -> list:
        """The jet table in exact rationals, for ``graph_jet_exact``."""
        if self._exact is None:
            self._exact = []
            for k, b in self._nonzero():
                bd = b.derivative()
                self._exact.append((k, b.coeffs, bd.coeffs, bd.derivative().coeffs))
        return self._exact


# ---------------------------------------------------------------------------
# the convolution recursion (quartic seeds only)
# ---------------------------------------------------------------------------

# highest order either construction path and series_from_json accept.  The
# table path builds order 48 in a tenth of a second; the cap is set by the
# dense recursion, the oracle the tables are checked against, which takes
# seconds of exact Fraction work at order 48 and grows steeply beyond it
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
# the unit-c table and the substitution of c (any seed)
# ---------------------------------------------------------------------------


def _pair_sum(
    out: dict, s: int, A: Mapping, B: Mapping, k: int, a0: int, b0: int
) -> dict:
    """out += s * sum_{n=a0}^{k-b0} A[n] B[k-n].

    A and B map a power of x to a polynomial in y held as a sparse
    {degree: coefficient} map; a missing power is the zero polynomial.
    """
    for n in range(a0, k - b0 + 1):
        if n in A and k - n in B:
            for d1, a in A[n].items():
                for d2, b in B[k - n].items():
                    out[d1 + d2] = out.get(d1 + d2, 0) + s * a * b
    return out


def _store(series: dict, n: int, poly: Mapping) -> None:
    """series[n] = poly without its zero terms; a zero poly is left out."""
    poly = {d: a for d, a in poly.items() if a}
    if poly:
        series[n] = poly


def _unit_expansion(w: int) -> Iterator[tuple[int, dict]]:
    """Yield (k, beta_k) for k = 3, 4, ... of the c = 1 series whose seed is
    beta_w = w y (w = 4: the quartic seeds, w = 3: the cubic seed).

    Expands the graph ZMC equation (1 - psi_y^2) psi_xx + 2 psi_x psi_y psi_xy
    + (1 - psi_x^2) psi_yy = 0 with psi = y + sum_j b_j x^j, b_j = beta_j / j,
    in the component series, indexed by x power:

        psi_y - 1 : t[j]   = b_j'               (j >= 3)
        psi_x     : px[i]  = (i+1) b_{i+1}      (i >= 2)
        psi_xy    : pxy[i] = (i+1) b_{i+1}'     (i >= 2)
        psi_xx    : pxx[i] = (i+2)(i+1) b_{i+2} (i >= 1)
        psi_yy    : pyy[j] = b_j''              (j >= 3)

    The x^k coefficient is b_k'' plus terms in lower b_j only, so
    b_k'' = -e_k and b_k is e_k integrated twice from zero initial data.
    The pair sums t.t, px.px and px.t are kept by total x power, each
    formed once as soon as its factors are known, so e_k costs O(k)
    products.  Polynomials are sparse {degree: coefficient} maps: y^d in
    beta_k is nonzero only when w divides k - 1 + d.
    """
    t, px, pxy, pxx, pyy = {}, {}, {}, {}, {}
    tt, pxt, pxpx = {}, {}, {}
    for k in itertools.count(3):
        if k <= w:
            bk = {1: Fraction(1)} if k == w else {}
        else:
            # the pair sums that e_k is the first to need
            _store(tt, k - 1, _pair_sum({}, 1, t, t, k - 1, 3, 3))
            _store(pxt, k - 2, _pair_sum({}, 1, px, t, k - 2, 2, 3))
            _store(pxpx, k - 3, _pair_sum({}, 1, px, px, k - 3, 2, 2))
            e = {}
            _pair_sum(e, -2, t, pxx, k, 3, 1)  # (1 - psi_y^2) psi_xx
            _pair_sum(e, -1, tt, pxx, k, 6, 1)
            _pair_sum(e, 2, px, pxy, k, 2, 2)  # 2 psi_x psi_y psi_xy
            _pair_sum(e, 2, pxt, pxy, k, 5, 2)
            _pair_sum(e, -1, pxpx, pyy, k, 4, 3)  # (1 - psi_x^2) psi_yy
            bk = {d + 2: -a / ((d + 1) * (d + 2)) for d, a in e.items() if a}
        yield k, {d: k * a for d, a in bk.items()}
        bdk = {d - 1: d * a for d, a in bk.items()}
        _store(t, k, bdk)
        _store(px, k - 1, {d: k * a for d, a in bk.items()})
        _store(pxy, k - 1, {d: k * a for d, a in bdk.items()})
        _store(pxx, k - 2, {d: k * (k - 1) * a for d, a in bk.items()})
        _store(pyy, k, {d - 1: d * a for d, a in bdk.items()})


# w -> (rows yielded so far, the expansion that yields the next ones); the
# lock keeps two threads from pulling rows out of one expansion at once
_UNIT_TABLES: dict[int, tuple[list, Iterator]] = {}
_UNIT_LOCK = threading.Lock()


def _unit_betas(
    w: int, order: int
) -> list[tuple[int, tuple[tuple[int, Fraction], ...]]]:
    """beta_3..beta_order of the c = 1 series with seed beta_w = w y.

    Each row is (k, the (degree, coefficient) pairs of beta_k's nonzero
    terms, ascending).  The table is cached per w for the process and
    extended to the largest order asked: the expansion never revisits a
    finished beta_k, so an order-N table is a prefix of every longer one.
    """
    with _UNIT_LOCK:
        if w not in _UNIT_TABLES:
            _UNIT_TABLES[w] = ([], _unit_expansion(w))
        rows, expansion = _UNIT_TABLES[w]
        while len(rows) < order - 2:
            k, bk = next(expansion)
            rows.append((k, tuple(sorted(bk.items()))))
        return rows[: order - 2]


def _rescaled(rows, r: Fraction, w: int) -> dict[int, RationalPoly]:
    """{k: beta_k} with each term a y^d of a row (k, terms) made a r^((k-1+d)/w).

    Substituting c into a unit-c table (w = 4 or 3) and the homothety by m
    (w = 1) are both this map; the powers of r are formed once.
    """
    top = max((k - 1 + d for k, terms in rows for d, _ in terms), default=0) // w
    powers = [Fraction(1)]
    for _ in range(top):
        powers.append(powers[-1] * r)
    betas = {}
    for k, terms in rows:
        coeffs = [0] * (terms[-1][0] + 1 if terms else 0)
        for d, a in terms:
            coeffs[d] = a * powers[(k - 1 + d) // w]
        betas[k] = RationalPoly(coeffs)
    return betas


def series_from_expansion(seed: SeedCondition, order: int) -> GraphSeries:
    """Build the series for any seed from the cached unit-c table.

    The graphs are homothetic in c: psi(m x, m y) / m is the series for
    m^w c, w = 4 for the quartic seeds and 3 for the cubic one.  So the
    y^d coefficient of beta_k is a_{k,d} c^((k-1+d)/w), where a_{k,d} is
    that coefficient at c = 1 (``_unit_betas``).  Independent of the
    convolution recursion, which checks it, and the only constructive path
    for the mixed-type (cubic) seed.
    """
    if order < 4:
        raise ValueError("order must be at least 4")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the cost cap {MAX_ORDER}")
    w = 3 if seed.case is SeriesCase.MIXED_I else 4
    return GraphSeries(seed, order, _rescaled(_unit_betas(w, order), seed.c, w))


# ---------------------------------------------------------------------------
# evaluation: float jets, exact jets, exact residuals
# ---------------------------------------------------------------------------


def _horner(coeffs: Sequence, y):
    v = 0
    for c in reversed(coeffs):
        v = v * y + c
    return v


def _jet(table, x, y, power, second: bool = True) -> tuple:
    """(value, px, py - 1, pxx, pxy, pyy) of y + sum_k beta_k(y) x^k / k.

    Integer literals only, so one body serves Fraction, float and ndarray
    arguments; ``power(x, n)`` is x to the n-th power; ``second=False``
    leaves pxx, pxy and pyy at 0.  The third entry, q = py - 1, is summed
    directly, so B = -(px^2 + q (2 + q)) avoids 1 - py^2's cancellation.
    """
    value = y
    px = q = pxx = pxy = pyy = 0
    for k, cb, cbd, cbdd in table:
        bk, bdk = _horner(cb, y), _horner(cbd, y)
        xk2 = power(x, k - 2)
        xk1 = xk2 * x
        xk = xk1 * x
        # no +=: value starts as the caller's y, which an in-place add would change
        value = value + bk * xk / k
        px = px + bk * xk1
        q = q + bdk * xk / k
        if second:
            pxx = pxx + (k - 1) * bk * xk2
            pxy = pxy + bdk * xk1
            pyy = pyy + _horner(cbdd, y) * xk / k
    return value, px, q, pxx, pxy, pyy


def psi_jet(s: GraphSeries, x, y) -> GraphJet:
    """Float jet (value and first/second partials) of the truncated series.

    x and y are floats, or equal-shape arrays for a whole grid in one call.
    ``np.float_power`` runs the C library's pow on scalars and array elements
    alike (numpy's ``**`` on arrays uses a vectorised pow that can differ in
    the last bit), so an array call equals per-point calls bit for bit.
    """
    value, px, q, pxx, pxy, pyy = _jet(s._float_tables()[0], x, y, np.float_power)
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
        s._exact_table(), Fraction(x), Fraction(y), operator.pow
    )
    return value, px, 1 + q, pxx, pxy, pyy


def af_bf_exact(s: GraphSeries, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    """Exact ZMC residual and causal field of the truncation at (x, y)."""
    return graph_af_bf(GraphJet(*graph_jet_exact(s, x, y)))


def _filter_factor(n: int) -> float:
    """A float g >= gamma_n / (1 - gamma_n) with room for rounding g * M.

    gamma_n = n u / (1 - n u) bounds n relative roundings of unit roundoff
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
    The factor 1 + 2^-40 covers the rounding of the product g * M.
    """
    u = Fraction(1, 2**53)
    gamma = n * u / (1 - n * u)
    g = gamma / (1 - gamma) * (1 + Fraction(1, 2**40))
    return math.nextafter(float(g), math.inf)


def _filtered_b(s: GraphSeries, x, y) -> tuple:
    """(value, B, bound) of the float jet at x, y, with |B - exact B| <= bound.

    Called on axes (``xs[:, None]``, ``ys[None, :]``), so each Horner runs on
    the y axis only; ``value`` equals ``psi_jet``'s bit for bit.

    Relative part (Higham, 3.1): every monomial of px and q, a coefficient
    times y^i x^j, passes through at most N = 2 d + T + 6 roundings: the
    coefficient to float, 2 d in Horner (Higham, 5.1), 4 for
    ``np.float_power`` taken as 2 ulp, two products for x^k, the product with
    beta_k, the division by k and T - 1 additions (d the largest degree, T
    the number of nonzero beta_k).  Forming B adds 3: the error is at most
    gamma_(2N+3) M, M = |px|^2 + |q| (2 + |q|) over monomial magnitudes,
    which the jet of the magnitude table bounds once divided by 1 - gamma.

    Absolute part (gradual underflow, Higham 2.1): a subnormal conversion,
    product or quotient may err by eta = 2^-1075 instead, a pow by 4 eta, a
    sum not at all.  Through the later factors of their monomials these add
    at most a = 2 eta w to px and q, w = P max(1, |x|)^kmax max(1, |y|)^d,
    P = sum_k (2 d_k + 4 + 6 sum of the |coefficients| of beta_k, beta_k');
    B gains at most 2.1 a (|px| + |q| + 1 + 2 a) + 2 eta, M's run loses no
    more, and 16 eta w (|px| + |q| + 1 + 2 a) covers both and its rounding.
    """
    floats, mags = s._float_tables()
    kmax = max(k for k, *_ in floats)
    dmax = max(len(cb) - 1 for _, cb, _, _ in floats)
    g = _filter_factor(2 * (2 * dmax + len(floats) + 6) + 3)
    P = sum(2 * len(b) + 2 + 6 * math.fsum(b + bd) for _, b, bd, _ in mags)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the caller
        value, px, q, *_ = _jet(floats, x, y, np.float_power, second=False)
        _, pm, qm, *_ = _jet(mags, np.abs(x), np.abs(y), np.float_power, second=False)
        B = -(px * px + q * (2 + q))
        w = P * np.float_power(np.maximum(np.abs(x), 1.0), kmax)
        w = w * np.float_power(np.maximum(np.abs(y), 1.0), dmax)
        bound = g * (pm * pm + qm * (2 + qm))
        bound = bound + 2.0**-1071 * w * (pm + qm + 1 + 2.0**-1073 * w)
    return value, B, bound


def _causal_signs(s: GraphSeries, xs, ys) -> tuple[np.ndarray, int, np.ndarray]:
    """``causal_signs`` and the float heights psi on the same grid."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    value, B, bound = _filtered_b(s, xs[:, None], ys[None, :])
    on_axis = xs[:, None] == 0
    decided = ~on_axis & np.isfinite(B) & (np.abs(B) > bound)
    signs = np.where(decided, np.where(B > 0, 1, -1), 0).astype(np.int8)
    rest = np.argwhere(~decided & ~on_axis)
    for i, j in rest:
        b = af_bf_exact(s, Fraction(float(xs[i])), Fraction(float(ys[j])))[1]
        signs[i, j] = (b > 0) - (b < 0)
    return signs, len(rest), value


def causal_signs(s: GraphSeries, xs, ys) -> tuple[np.ndarray, int]:
    """Exact sign of B at every point of ``np.meshgrid(xs, ys, indexing="ij")``.

    Returns an int8 array of -1 (time-like), 0 (null) and 1 (space-like), and
    the number of points decided by ``af_bf_exact``.  The sign equals that of
    the exact B of ``af_bf_exact`` at the same float coordinates everywhere.

    A filtered predicate (Shewchuk, Adaptive Precision Floating-Point
    Arithmetic and Fast Robust Geometric Predicates, 1997): x = 0 is null
    exactly, the float B decides where it exceeds its proven error bound
    (``_filtered_b``), and ``af_bf_exact`` decides the rest.
    """
    return _causal_signs(s, xs, ys)[:2]


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
    rows = [
        (k, [(d, c) for d, c in enumerate(bk.coeffs) if c]) for k, bk in s.betas.items()
    ]
    return GraphSeries(new_seed, s.order, _rescaled(rows, m, 1))


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
    """The series of a ``series_to_json`` dict; ValueError if it is malformed.

    The schema is checked: the four keys, a case tag, rational strings for c
    and every coefficient, an integer order in 4..MAX_ORDER and an object of
    coefficient arrays indexed 3..order.  Whether the coefficients are those
    of the seed's series is not checked.
    """
    if not isinstance(data, Mapping):
        raise ValueError("coefficient file must hold a JSON object")
    missing = [k for k in ("case", "c", "order", "betas") if k not in data]
    if missing:
        raise ValueError(f"coefficient file has no {', '.join(map(repr, missing))}")
    case = SeriesCase(data["case"])
    (c,) = _json_rationals([data["c"]], "c")
    seed = SeedCondition(case, c)
    order = data["order"]
    if type(order) is not int:
        raise ValueError(f"order must be an integer (got {order!r})")
    if order < 4:
        raise ValueError("order must be at least 4")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the cost cap {MAX_ORDER}")
    if not isinstance(data["betas"], Mapping):
        raise ValueError("betas must be an object of coefficient arrays")
    betas = {k: ZERO_POLY for k in range(3, order + 1)}
    for key, arr in data["betas"].items():
        k = int(key)
        if not 3 <= k <= order:
            raise ValueError(f"coefficient index {k} outside 3..{order}")
        if not isinstance(arr, list):
            raise ValueError(f"beta_{k} must be an array of rational strings")
        betas[k] = RationalPoly(_json_rationals(arr, f"beta_{k}"))
    return GraphSeries(seed, order, betas)


def _json_rationals(items: list, name: str) -> list[Fraction]:
    """The rationals of JSON strings such as "-3/4"; ValueError otherwise."""
    if not set(map(type, items)) <= {str}:
        raise ValueError(f"{name} must hold rational strings (got {items!r})")
    try:
        return [Fraction(a) for a in items]
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"{name} holds a string that is not a rational ({e})") from None


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
