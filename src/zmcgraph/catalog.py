"""Closed-form reference surfaces used as the geometry test corpus.

Each entry packages an evaluator producing second-order jets (analytic where
the parametrization is explicit; for the implicit entry, one Newton solve for
the height and the implicit function theorem for its derivatives), the
expected causal character, any known straight null lines on the surface (as
segments of its parameter plane), and a sampling domain with documented
exclusions around singular sets.  The corpus contract is that every entry's
zero-mean-curvature residual vanishes numerically on its sampling domain.

Every jet takes floats or whole arrays (a meshgrid, say) with one body.  On
arrays each point gets exactly the float operations of its own scalar call:
transcendental functions are ``math.*`` mapped over the elements (numpy's
sinh, cosh, tanh and tan can differ from them in the last bit), every
division by zero raises as float division does, and the Newton solve steps
each point as its scalar solve would.  A jet raises on an array exactly when
it raises at one of its points.

``sample`` is the one place a jet is called on arrays, and it names the first
point that has no jet.  ``sample_grid`` gives ``classify`` and ``mesh`` the
points and B of a grid through it, and ``corpus_verify`` samples each entry
with one call, taking B, the scaled residual and the causal histogram as
array expressions, and samples each known null line on the surface itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lorentz import (
    GraphJet,
    Jet2,
    Vec3M,
    first_form_det,
    graph_to_parametric,
    jet_scale,
    null_line_check,
    zmc_residual,
)

SURFACE_NAMES = (
    "elliptic_catenoid",
    "light_cone",
    "hyperbolic_catenoid",
    "mixed_cone_type",
    "timelike_tanh",
    "lightlike_plane",
)


@dataclass(frozen=True)
class NullLineSpec:
    """A straight light-like line known to lie on a catalog surface: the image
    of the segment from ``start`` to ``end`` in the surface's parameter plane."""

    surface: str
    start: tuple[float, float]
    end: tuple[float, float]
    label: str

    def sample_points(self, n: int = 21) -> list[Vec3M]:
        """The surface's points at n evenly spaced parameters from start to end."""
        (u0, v0), (u1, v1) = self.start, self.end
        u, v = np.linspace(u0, u1, n), np.linspace(v0, v1, n)
        j, _ = sample(entry(self.surface), u, v)
        return [Vec3M(*p) for p in zip(*(np.broadcast_to(c, n).tolist() for c in j.f))]


@dataclass(frozen=True)
class SurfaceEntry:
    name: str
    kind: str  # parametric | graph | implicit
    expected_causal: str  # spacelike | timelike | lightlike | mixed
    jet: Callable[[float, float], Jet2]  # floats or arrays, see the module doc
    domain: tuple[tuple[float, float], tuple[float, float]]
    known_null_lines: tuple[NullLineSpec, ...] = ()
    excluded: Callable[[float, float], bool] | None = None  # floats or arrays
    notes: str = ""


# ---------------------------------------------------------------------------
# scalar-or-array helpers
# ---------------------------------------------------------------------------


def _each(fn, a):
    """fn(a) for a float; fn at every element of an array, as a float array."""
    if isinstance(a, np.ndarray):
        return np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape)
    return fn(a)


def _div(a, b):
    """a / b, raising ZeroDivisionError like float division if b holds a zero."""
    if isinstance(b, np.ndarray) and not b.all():
        raise ZeroDivisionError("float division by zero")
    return a / b


# ---------------------------------------------------------------------------
# analytic parametric entries
# ---------------------------------------------------------------------------


def _elliptic_catenoid_jet(u: float, v: float) -> Jet2:
    sh, ch = _each(math.sinh, v), _each(math.cosh, v)
    cu, su = _each(math.cos, u), _each(math.sin, u)
    return Jet2(
        f=Vec3M(sh * cu, sh * su, v),
        f_u=Vec3M(-sh * su, sh * cu, 0.0),
        f_v=Vec3M(ch * cu, ch * su, 1.0),
        f_uu=Vec3M(-sh * cu, -sh * su, 0.0),
        f_uv=Vec3M(-ch * su, ch * cu, 0.0),
        f_vv=Vec3M(sh * cu, sh * su, 0.0),
    )


def _light_cone_jet(u: float, v: float) -> Jet2:
    cu, su = _each(math.cos, u), _each(math.sin, u)
    return Jet2(
        f=Vec3M(v * cu, v * su, v),
        f_u=Vec3M(-v * su, v * cu, 0.0),
        f_v=Vec3M(cu, su, 1.0),
        f_uu=Vec3M(-v * cu, -v * su, 0.0),
        f_uv=Vec3M(-su, cu, 0.0),
        f_vv=Vec3M(0.0, 0.0, 0.0),
    )


def _timelike_tanh_jet(theta: float, t: float) -> Jet2:
    """Tube (tanh t cos th, t - tanh t + tanh t sin th, t).

    Solves (y - t + tanh t)^2 + x^2 = tanh^2 t; time-like with the entire
    null line x = 0, y = t along theta = pi/2 and a cone point at t = 0.
    """
    T = _each(math.tanh, t)
    S = 1.0 / _each(lambda s: math.cosh(s) ** 2, t)  # float ** is C pow
    dS = -2.0 * S * T
    ct, st = _each(math.cos, theta), _each(math.sin, theta)
    return Jet2(
        f=Vec3M(T * ct, t - T + T * st, t),
        f_u=Vec3M(-T * st, T * ct, 0.0),
        f_v=Vec3M(S * ct, 1.0 - S + S * st, 1.0),
        f_uu=Vec3M(-T * ct, -T * st, 0.0),
        f_uv=Vec3M(-S * st, S * ct, 0.0),
        f_vv=Vec3M(dS * ct, -dS + dS * st, 0.0),
    )


# ---------------------------------------------------------------------------
# analytic graph entries
# ---------------------------------------------------------------------------


def _hyperbolic_catenoid_graph_jet(x: float, y: float) -> GraphJet:
    """Upper sheet t = sqrt(sin^2 x + y^2) of sin^2 x + y^2 = t^2."""
    g = _each(lambda a: math.sin(a) ** 2, x) + y * y
    gx = _each(math.sin, 2.0 * x)
    gxx = 2.0 * _each(math.cos, 2.0 * x)
    s = _each(math.sqrt, g)
    return GraphJet(
        value=s,
        px=_div(gx, 2.0 * s),
        py=_div(y, s),
        pxx=_div(gxx, 2.0 * s) - _div(gx * gx, 4.0 * g * s),
        pxy=_div(-gx * y, 2.0 * g * s),
        pyy=_div(1.0, s) - _div(y * y, g * s),
    )


def _lightlike_plane_graph_jet(x: float, y: float) -> GraphJet:
    return GraphJet(y, 0.0, 1.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# the implicit cone-type entry
# ---------------------------------------------------------------------------


def cone_type_implicit(x: float, y: float, t: float) -> float:
    """F(x, y, t) = 2(y-t) cos t - (x^2 + (y-t)^2) sin t.

    The zero set carries the entire null line x = 0, y = t, and the graph
    branch through it has x^2-coefficient alpha(y) = -tan y, the mu = 1
    solution family at zero shift, as the constant-mu constraint requires.
    Cone points sit on the line at y = pi/2 + k pi where the t-derivative
    degenerates.
    """
    s = y - t
    return 2.0 * s * _each(math.cos, t) - (x * x + s * s) * _each(math.sin, t)


def cone_type_dt(x: float, y: float, t: float) -> float:
    s = y - t
    return -(2.0 + x * x + s * s) * _each(math.cos, t)


class ImplicitSolveError(RuntimeError):
    pass


NEWTON_TOL = 1e-12
NEWTON_MAX_STEPS = 50


def implicit_solve(
    F: Callable[[float, float, float], float],
    x: float,
    y: float,
    t_seed: float,
    dF_dt: Callable[[float, float, float], float],
) -> float:
    """Newton-solve F(x, y, t) = 0 for t from a seed value, with t-derivative dF_dt.

    Stops where |F| <= NEWTON_TOL.  Raises ImplicitSolveError on a derivative
    below 1e-14 in magnitude or after NEWTON_MAX_STEPS steps.  If any of x,
    y, t_seed is an array, every point is solved at once: F and dF_dt are
    called on the arrays of the points still iterating, and each point takes
    the steps of its scalar solve and stops where that solve stops.  The
    error then names the first point, in flat order, of those that fail at
    the earliest failing step.
    """
    if any(isinstance(a, np.ndarray) for a in (x, y, t_seed)):
        return _implicit_solve_array(F, x, y, t_seed, dF_dt)
    # a scalar jet (the sampler naming the point it fails at, the per-point
    # references the array solve is tested against) keeps this loop in Python
    # floats: a one-element array solve costs about 20x more
    t = t_seed
    for _ in range(NEWTON_MAX_STEPS):
        ft = F(x, y, t)
        if abs(ft) <= NEWTON_TOL:
            return t
        d = dF_dt(x, y, t)
        if abs(d) < 1e-14:
            raise _flat_derivative(x, y, t)
        t -= ft / d
    raise _no_convergence(F, x, y, t)


def _implicit_solve_array(F, x, y, t_seed, dF_dt):
    x, y, t = np.broadcast_arrays(x, y, t_seed)
    x, y, t = x.ravel(), y.ravel(), np.array(t, dtype=float)
    flat_t = t.reshape(-1)  # a view: the solved points are written into t
    live = np.arange(t.size)  # points still iterating, in flat order
    for _ in range(NEWTON_MAX_STEPS):
        xl, yl, tl = x[live], y[live], flat_t[live]
        ft = F(xl, yl, tl)
        go = ~(np.abs(ft) <= NEWTON_TOL)
        live, xl, yl, tl, ft = live[go], xl[go], yl[go], tl[go], ft[go]
        if not live.size:
            return t
        d = dF_dt(xl, yl, tl)
        flat = np.abs(d) < 1e-14
        if flat.any():
            k = flat.argmax()
            raise _flat_derivative(float(xl[k]), float(yl[k]), float(tl[k]))
        flat_t[live] = tl - ft / d
    i = live[0]
    raise _no_convergence(F, float(x[i]), float(y[i]), float(flat_t[i]))


def _flat_derivative(x: float, y: float, t: float) -> ImplicitSolveError:
    return ImplicitSolveError(f"vanishing t-derivative near t = {t!r} at ({x!r}, {y!r})")


def _no_convergence(F, x: float, y: float, t: float) -> ImplicitSolveError:
    return ImplicitSolveError(
        f"Newton iteration did not converge within {NEWTON_MAX_STEPS} steps "
        f"at ({x!r}, {y!r}); |F| = {abs(F(x, y, t)):.3e}"
    )


def cone_type_height(x: float, y: float) -> float:
    """Graph branch of the cone-type surface through the null line."""
    seed = y - 0.5 * x * x * _each(math.tan, y)
    return implicit_solve(cone_type_implicit, x, y, seed, cone_type_dt)


def _cone_type_graph_jet(x: float, y: float) -> GraphJet:
    """Closed-form jet of the Newton height, by the implicit function theorem.

    With s = y - t, the partials of F = 2s cos t - (x^2 + s^2) sin t at the
    solved t give px = -F_x/F_t, py = -F_y/F_t and, for instance,
    pxx = -(F_xx + 2 F_xt px + F_tt px^2)/F_t.  On the null line x = 0 the
    height is y exactly, so px = 0, py = 1 and B = 0 exactly.
    """
    t = cone_type_height(x, y)
    s = y - t
    ct, st = _each(math.cos, t), _each(math.sin, t)
    q = 2.0 + x * x + s * s
    F_t = -q * ct
    F_xx = -2.0 * st  # = F_yy; F_xy = 0
    F_xt, F_yt = -2.0 * x * ct, -2.0 * s * ct
    F_tt = 2.0 * s * ct + q * st
    px = _div(2.0 * x * st, F_t)  # -F_x / F_t; a zero F_t raises here
    py = -(2.0 * ct - 2.0 * s * st) / F_t
    return GraphJet(
        value=t,
        px=px,
        py=py,
        pxx=-(F_xx + 2.0 * F_xt * px + F_tt * px * px) / F_t,
        pxy=-(F_xt * py + F_yt * px + F_tt * px * py) / F_t,
        pyy=-(F_xx + 2.0 * F_yt * py + F_tt * py * py) / F_t,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _graph_entry_jet(graph_jet_fn):
    def jet(x: float, y: float) -> Jet2:
        return graph_to_parametric(x, y, graph_jet_fn(x, y))

    return jet


_ENTRIES: dict[str, SurfaceEntry] = {}


def _register(e: SurfaceEntry) -> None:
    _ENTRIES[e.name] = e


_register(
    SurfaceEntry(
        name="elliptic_catenoid",
        kind="parametric",
        expected_causal="spacelike",
        jet=_elliptic_catenoid_jet,
        domain=((-math.pi, math.pi), (-1.5, 1.5)),
        excluded=lambda u, v: abs(v) < 0.05,
        notes="cone point at v = 0; spacelike everywhere else, sampling "
        "excludes |v| < 0.05 where the causal field degenerates",
    )
)

_register(
    SurfaceEntry(
        name="light_cone",
        kind="parametric",
        expected_causal="lightlike",
        jet=_light_cone_jet,
        domain=((0.0, 2.0 * math.pi), (-1.0, 1.0)),
        known_null_lines=(
            NullLineSpec("light_cone", (0.0, -10.0), (0.0, 10.0), "generator u=0"),
        ),
        notes="every point is a degenerate null point",
    )
)

_register(
    SurfaceEntry(
        name="hyperbolic_catenoid",
        kind="graph",
        expected_causal="spacelike",
        jet=_graph_entry_jet(_hyperbolic_catenoid_graph_jet),
        domain=((-4.0, 4.0), (0.25, 2.0)),
        known_null_lines=tuple(
            NullLineSpec(
                "hyperbolic_catenoid",
                (k * math.pi, sign * 0.25),
                (k * math.pi, sign * 10.25),
                f"y = {'+t' if sign > 0 else '-t'} at x = {k} pi",
            )
            for k in (-1, 0, 1)
            for sign in (1.0, -1.0)
        ),
        notes="upper sheet of sin^2 x + y^2 = t^2; the sampling window "
        "y >= 0.25 keeps clear of the cone points (k pi, 0) where the graph "
        "jets blow up; along x = k pi the sheet is t = |y|, so its null "
        "lines are the half-lines |y| >= 0.25 of y = +t and y = -t",
    )
)

_register(
    SurfaceEntry(
        name="mixed_cone_type",
        kind="implicit",
        expected_causal="spacelike",
        jet=_graph_entry_jet(_cone_type_graph_jet),
        domain=((-0.3, 0.3), (0.35, 0.9)),
        known_null_lines=(
            NullLineSpec("mixed_cone_type", (0.0, -10.0), (0.0, 10.0), "y = t at x = 0"),
        ),
        excluded=None,
        notes="Newton-solved graph branch through the null line y = t, "
        "x = 0; sampled on a window clear of the fold |x| ~ cot(t) and "
        "of the cone points at y = pi/2 + k pi",
    )
)

_register(
    SurfaceEntry(
        name="timelike_tanh",
        kind="parametric",
        expected_causal="timelike",
        jet=_timelike_tanh_jet,
        domain=((0.0, 2.0 * math.pi), (0.25, 1.5)),
        known_null_lines=(
            NullLineSpec("timelike_tanh", (math.pi / 2, -10.0), (math.pi / 2, 10.0),
                         "y = t at x = 0"),
        ),
        excluded=None,
        notes="cone point at t = 0 excluded by the sampling window; the "
        "null line runs along theta = pi/2",
    )
)

_register(
    SurfaceEntry(
        name="lightlike_plane",
        kind="graph",
        expected_causal="lightlike",
        jet=_graph_entry_jet(_lightlike_plane_graph_jet),
        domain=((-2.0, 2.0), (-2.0, 2.0)),
        known_null_lines=(
            NullLineSpec("lightlike_plane", (0.0, -10.0), (0.0, 10.0), "y = t at x = 0"),
            NullLineSpec("lightlike_plane", (1.0, -10.0), (1.0, 10.0), "y = t at x = 1"),
        ),
        notes="the graph t = y",
    )
)


def entry(name: str) -> SurfaceEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise ValueError(
            f"unknown surface {name!r}; available: {', '.join(SURFACE_NAMES)}"
        ) from None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# what a jet raises at a point where it has none
_NO_JET = (ArithmeticError, ValueError, ImplicitSolveError)


def sample(e: SurfaceEntry, u: np.ndarray, v: np.ndarray) -> tuple[Jet2, np.ndarray]:
    """Jet of entry e at the points of the broadcast arrays u and v, from one
    ``e.jet`` call, and B there, broadcast to their shape.

    Overflow and invalid operations give inf and NaN silently, as float
    arithmetic does.  If some point has no jet, a ValueError names the first
    one in flat order.
    """
    with np.errstate(all="ignore"):
        try:
            j = e.jet(u, v)
        except _NO_JET:  # so some point has no jet: name the first
            for a, b in zip(*(c.ravel().tolist() for c in np.broadcast_arrays(u, v))):
                try:
                    e.jet(a, b)
                except _NO_JET as err:
                    raise ValueError(
                        f"catalog:{e.name} has no jet at ({a!r}, {b!r}): {err}"
                    )
            raise
        B = first_form_det(j)
    return j, np.broadcast_to(B, np.broadcast_shapes(np.shape(u), np.shape(v)))


def sample_grid(e: SurfaceEntry, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Points (x, y, t), shaped (NX, NY, 3), and B of entry e on xs x ys.

    A ValueError names the first point in grid order that has no jet or a
    non-finite B.
    """
    j, B = sample(e, xs[:, None], ys[None, :])
    bad = np.flatnonzero(~np.isfinite(B))
    if len(bad):
        i, k = divmod(bad[0].item(), B.shape[1])
        u, v, b = xs[i].item(), ys[k].item(), B[i, k].item()
        raise ValueError(
            f"catalog:{e.name} has no finite B at ({u!r}, {v!r}): B = {b}"
        )
    return np.stack([np.broadcast_to(c, B.shape) for c in j.f], axis=-1), B


# ---------------------------------------------------------------------------
# corpus verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusRow:
    name: str
    max_scaled_residual: float | None  # None where some residual is not finite
    residual_pass: bool
    histogram: dict[str, int]
    causal_pass: bool
    null_lines: tuple[tuple[str, bool], ...]
    null_pass: bool
    degenerate_fraction: float | None
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_scaled_residual": self.max_scaled_residual,
            "residual_pass": self.residual_pass,
            "histogram": self.histogram,
            "causal_pass": self.causal_pass,
            "null_lines": [list(r) for r in self.null_lines],
            "null_pass": self.null_pass,
            "degenerate_fraction": self.degenerate_fraction,
            "pass": self.passed,
        }


def _histogram_matches(expected: str, hist: dict[str, int]) -> bool:
    ns, nt, nn = hist["spacelike"], hist["timelike"], hist["null"]
    if expected == "spacelike":
        return nt == 0 and ns > 0
    if expected == "timelike":
        return ns == 0 and nt > 0
    if expected == "lightlike":
        return ns == 0 and nt == 0 and nn > 0
    if expected == "mixed":
        return ns > 0 and nt > 0
    raise ValueError(f"unknown expected causal kind {expected!r}")


def corpus_verify(
    samples_per_surface: int = 13,
    residual_tol: float = 1e-6,
    causal_tol: float = 1e-10,
    line_tol: float = 1e-9,
    names: Sequence[str] = SURFACE_NAMES,
) -> list[CorpusRow]:
    """Run residual, causal-histogram and null-line checks on the corpus.

    Each entry is sampled with one ``sample`` call on the points of its
    samples_per_surface^2 grid that ``excluded`` keeps.  The residual check
    is |A| / max(1, jet magnitude)^3 <= residual_tol at every such point; the
    histogram bins B > causal_tol, B < -causal_tol and |B| <= causal_tol.  A
    non-finite residual or B fails the row, and a NaN B is never null.
    Light-like entries also sample B one step either side of each point in u
    and in v, and report the fraction of points that are degenerate null
    points: |B| <= 1e-8 with a central-difference gradient of norm <= 1e-7.
    Each known null line is sampled on the surface at 21 points of its
    parameter segment, and passes where they are finite and lie on one
    straight light-like line (``null_line_check`` at line_tol).
    """
    if not 0 <= causal_tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative (got {causal_tol})")
    rows = []
    for name in names:
        e = entry(name)
        (u0, u1), (v0, v1) = e.domain
        us = np.linspace(u0, u1, samples_per_surface)
        vs = np.linspace(v0, v1, samples_per_surface)
        u, v = np.repeat(us, len(vs)), np.tile(vs, len(us))  # grid order
        if e.excluded is not None:
            keep = ~e.excluded(u, v)
            u, v = u[keep], v[keep]
        lightlike = e.expected_causal == "lightlike"
        h = 6.06e-6  # the step of lorentz.degenerate_test
        if lightlike:  # row 0 the samples, rows 1-4 a step off them in u and v
            u, v = np.stack([u, u + h, u - h, u, u]), np.stack([v, v, v, v + h, v - h])
        else:
            u, v = u[None], v[None]
        j, B = sample(e, u, v)
        b = B[0]
        hist = {
            "spacelike": int(np.count_nonzero(b > causal_tol)),
            "timelike": int(np.count_nonzero(b < -causal_tol)),
            "null": int(np.count_nonzero(np.abs(b) <= causal_tol)),
        }
        degenerate_fraction = None
        with np.errstate(all="ignore"):  # a non-finite result fails the row
            scaled = np.abs(zmc_residual(j)) / jet_scale(j)
            worst = float(np.max(np.broadcast_to(scaled, B.shape)[0], initial=0.0))
            if lightlike:
                grad = np.hypot((B[1] - B[2]) / (2.0 * h), (B[3] - B[4]) / (2.0 * h))
                degenerate = (np.abs(b) <= 1e-8) & (grad <= 1e-7)
                degenerate_fraction = int(np.count_nonzero(degenerate)) / b.size
        line_results = []
        for line in e.known_null_lines:
            points = line.sample_points(21)
            finite = bool(np.isfinite(points).all())
            ok = finite and null_line_check(points, tol=line_tol).is_null_line
            line_results.append((line.label, ok))
        if not math.isfinite(worst):
            worst = None  # strict JSON has no NaN or inf
        residual_pass = worst is not None and worst <= residual_tol
        causal_pass = bool(np.isfinite(b).all()) and _histogram_matches(
            e.expected_causal, hist
        )
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
                degenerate_fraction=degenerate_fraction,
                passed=residual_pass and causal_pass and null_pass,
            )
        )
    return rows
