"""Reference surface corpus: entries, implicit solving, corpus contract."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmcgraph import catalog
from zmcgraph.catalog import (
    _NO_JET,
    SURFACE_NAMES,
    ImplicitSolveError,
    cone_type_dt,
    cone_type_height,
    cone_type_implicit,
    corpus_verify,
    entry,
    hyperbolic_catenoid_height,
    implicit_solve,
    sample_grid,
)
from zmcgraph.cli import _resolve_source, build_parser, main
from zmcgraph.lorentz import (
    GraphJet,
    first_form,
    graph_to_parametric,
    jet_scale,
    minkowski_dot,
    null_line_check,
    Vec3M,
)

from corpus_reference import corpus_verify_loop, scalar_jet_scale
from fd_reference import fd_graph_jet


class TestRegistry:
    def test_all_names_resolve(self):
        assert len(SURFACE_NAMES) == 6
        for name in SURFACE_NAMES:
            assert entry(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown surface"):
            entry("klein_bottle")


class TestPointChecks:
    def test_light_cone_point(self):
        j = entry("light_cone").jet(0.0, 1.0)
        assert j.f == Vec3M(1.0, 0.0, 1.0)
        assert j.f.x**2 + j.f.y**2 == pytest.approx(j.f.t**2)
        _, B = first_form(j)
        assert abs(B) < 1e-14

    def test_hyperbolic_catenoid_point(self):
        x, y = math.pi, 0.7
        assert hyperbolic_catenoid_height(x, y) == pytest.approx(0.7, rel=1e-12)
        j = entry("hyperbolic_catenoid").jet(x, y)
        # tangent along y at this point is light-like
        assert minkowski_dot(j.f_v, j.f_v) == pytest.approx(0.0, abs=1e-12)

    def test_timelike_tanh_on_null_line(self):
        j = entry("timelike_tanh").jet(math.pi / 2, 0.5)
        assert j.f.x == pytest.approx(0.0, abs=1e-15)
        assert j.f.y == pytest.approx(0.5, rel=1e-15)
        assert j.f.t == 0.5

    def test_lightlike_plane(self):
        j = entry("lightlike_plane").jet(0.3, 1.1)
        assert j.f == Vec3M(0.3, 1.1, 1.1)


class TestImplicitSolve:
    def test_null_line_point_is_fixed(self):
        t = implicit_solve(cone_type_implicit, 0.0, 0.3, 0.3, cone_type_dt)
        assert t == 0.3

    def test_against_closed_form(self):
        def F(x, y, t):
            return math.sin(x) ** 2 + y * y - t * t

        t = implicit_solve(F, math.pi / 2, 0.0, 1.3)
        assert t == pytest.approx(1.0, rel=1e-12)

    def test_numeric_derivative_fallback(self):
        t = implicit_solve(cone_type_implicit, 0.1, 0.6, 0.59)
        assert cone_type_implicit(0.1, 0.6, t) == pytest.approx(0.0, abs=1e-12)

    def test_divergence_raises(self):
        # no root anywhere; the derivative flattens out and Newton runs away
        with pytest.raises(ImplicitSolveError):
            implicit_solve(lambda x, y, t: math.tanh(t) - 2.0, 0.0, 0.0, 5.0)

    def test_vanishing_derivative_raises(self):
        with pytest.raises(ImplicitSolveError, match="derivative"):
            implicit_solve(lambda x, y, t: 1.0 + t * t, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("exact_derivative", [True, False])
    def test_array_equals_scalar_solves(self, exact_derivative):
        # seeds near and far from the root, so points stop at different steps;
        # x = 0 is on the null line and stops before the first step
        X, Y = np.meshgrid(np.linspace(-0.3, 0.3, 13), np.linspace(0.35, 0.9, 11),
                           indexing="ij")
        seed = Y - 0.5 * X * X * np.tan(Y) + np.where(X > 0.1, 0.05, 0.0)
        dt = cone_type_dt if exact_derivative else None
        T = implicit_solve(cone_type_implicit, X, Y, seed, dt)
        assert T.shape == X.shape and T.dtype == float
        expect = [
            implicit_solve(cone_type_implicit, x, y, t, dt)
            for x, y, t in zip(X.ravel().tolist(), Y.ravel().tolist(),
                               seed.ravel().tolist())
        ]
        assert T.ravel().tobytes() == np.array(expect).tobytes()
        # a scalar seed is broadcast against array coordinates
        T = implicit_solve(cone_type_implicit, X[:, 4], 0.6, 0.59, dt)
        expect = [implicit_solve(cone_type_implicit, x, 0.6, 0.59, dt)
                  for x in X[:, 4].tolist()]
        assert T.tobytes() == np.array(expect).tobytes()

    def test_array_raises_where_a_point_fails(self):
        # Newton does not converge at the third point (past the fold)
        xs = np.array([0.0, 0.1, 1.0281694335937501, 0.2])
        ys = np.full(4, 1.38816943359375)
        seeds = ys - 0.5 * xs * xs * np.tan(ys)
        with pytest.raises(ImplicitSolveError, match="did not converge") as scalar:
            implicit_solve(cone_type_implicit, float(xs[2]), float(ys[2]),
                           float(seeds[2]), cone_type_dt)
        with pytest.raises(ImplicitSolveError) as array:
            implicit_solve(cone_type_implicit, xs, ys, seeds, cone_type_dt)
        assert str(array.value) == str(scalar.value)
        with pytest.raises(ImplicitSolveError, match="derivative near t = 0.0 at"):
            implicit_solve(lambda x, y, t: 1.0 + t * t, 0.0, 0.0, np.array([1.0, 0.0]))


class TestConeTypeBranch:
    def test_height_on_null_line(self):
        for y in (0.4, 0.7, 1.2):
            assert cone_type_height(0.0, y) == y

    def test_quadratic_coefficient_is_minus_tan(self):
        # the x^2-coefficient of the graph through the null line must solve
        # the constant-mu equation; here it is -tan(y), the mu = 1 family.
        # The closed-form jet gives -sin/cos, within an ulp or two of tan
        for y in (0.4, 0.7, 0.35, 0.9):
            pxx = entry("mixed_cone_type").jet(0.0, y).f_uu.t
            assert abs(pxx + math.tan(y)) <= 2 * math.ulp(math.tan(y))

    def test_entire_line_on_the_zero_set(self):
        for s in (-20.0, -3.0, 0.9, 14.0):
            assert cone_type_implicit(0.0, s, s) == 0.0


# Newton stops at |F| <= 1e-12 and |F_t| = (2 + x^2 + s^2) cos t > 1.2 on the
# domain, so the heights fd_graph_jet differences carry up to 1e-12 of error.
# Divided by its steps (2 h1 ~ 1.2e-5, h2^2 ~ 1.5e-8) and added to the
# truncation error (h1^2, h2^2 times derivatives of order 10) that bounds
# the first derivatives by 2e-7 and the second by 6e-4
FD_ERROR = {"px": 1e-6, "py": 1e-6, "pxx": 1e-3, "pxy": 1e-3, "pyy": 1e-3}


class TestConeTypeClosedFormJet:
    def graph_jet(self, x, y):
        j = entry("mixed_cone_type").jet(x, y)
        return {"value": j.f.t, "px": j.f_u.t, "py": j.f_v.t,
                "pxx": j.f_uu.t, "pxy": j.f_uv.t, "pyy": j.f_vv.t}

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-0.3, 0.3), st.floats(0.35, 0.9))
    def test_agrees_with_finite_differences(self, x, y):
        got, fd = self.graph_jet(x, y), fd_graph_jet(cone_type_height, x, y)
        assert got["value"] == fd.value  # the same Newton height
        for name, err in FD_ERROR.items():
            assert abs(got[name] - getattr(fd, name)) <= err, name

    def test_null_line_is_null_exactly(self):
        for y in np.linspace(0.35, 0.9, 23).tolist() + [-20.0, 3.0]:
            g = self.graph_jet(0.0, y)
            assert g["value"] == y and g["px"] == 0.0 and g["py"] == 1.0
            assert first_form(entry("mixed_cone_type").jet(0.0, y))[1] == 0.0

    def test_classify_counts_the_null_column_at_tol_0(self, tmp_path):
        # the finite-difference jet left |B| ~ 1e-11 there: 0 null, "mixed type"
        out = tmp_path / "r.json"
        assert main(["classify", "--surface", "catalog:mixed_cone_type", "--tol", "0",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["counts"] == {"spacelike": 420, "timelike": 0, "null": 21}
        assert data["verdict"] == "maximal type"
        (column,) = [c for c in data["columns"] if c["x"] == 0.0]
        assert column["null"] == 21

    @pytest.mark.parametrize("grid", ["default", "--grid=-0.3:0.3:201,0.35:0.9:201"])
    def test_vertices_are_the_newton_heights(self, grid):
        argv = ["mesh", "--surface", "catalog:mixed_cone_type", "--out", "unused.ply"]
        args = build_parser().parse_args(argv + ([grid] if grid != "default" else []))
        _, xs, ys, sample, _ = _resolve_source(args, 33)
        U, V = np.meshgrid(xs, ys, indexing="ij")
        points = sample()[0]
        # the finite-difference jet's value was this solve on the meshgrid
        heights = fd_graph_jet(cone_type_height, U, V).value
        assert points[..., 2].tobytes() == heights.tobytes()
        assert points[..., 0].tobytes() == U.tobytes()
        assert points[..., 1].tobytes() == V.tobytes()


@pytest.fixture(scope="module")
def report():
    return {r.name: r for r in corpus_verify()}


class TestCorpus:
    def test_everything_passes(self, report):
        assert set(report) == set(SURFACE_NAMES)
        for row in report.values():
            assert row.passed, f"{row.name}: {row.to_json()}"

    def test_residual_scale(self, report):
        for row in report.values():
            assert row.max_scaled_residual <= 1e-6

    def test_light_cone_all_degenerate_null(self, report):
        row = report["light_cone"]
        assert row.histogram["spacelike"] == row.histogram["timelike"] == 0
        assert row.degenerate_fraction == 1.0

    def test_elliptic_catenoid_spacelike(self, report):
        hist = report["elliptic_catenoid"].histogram
        assert hist["timelike"] == 0 and hist["spacelike"] > 0

    def test_timelike_tanh_no_spacelike(self, report):
        hist = report["timelike_tanh"].histogram
        assert hist["spacelike"] == 0 and hist["timelike"] > 0

    def test_hyperbolic_catenoid_null_columns(self, report):
        hist = report["hyperbolic_catenoid"].histogram
        assert hist["null"] > 0 and hist["timelike"] == 0

    def test_null_lines_verified(self, report):
        for row in report.values():
            for label, ok in row.null_lines:
                assert ok, f"{row.name}: {label}"

    def test_hyperbolic_null_lines_both_signs_and_offsets(self, report):
        labels = {label for label, _ in report["hyperbolic_catenoid"].null_lines}
        assert len(labels) == 6

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 25),
        st.just(0.0) | st.floats(-20.0, -5.0).map(lambda k: 10.0**k),
        st.just(0.0) | st.floats(-20.0, -5.0).map(lambda k: 10.0**k),
    )
    def test_rows_equal_the_point_loop(self, samples, residual_tol, causal_tol):
        got = corpus_verify(samples, residual_tol, causal_tol)
        want = corpus_verify_loop(samples, residual_tol, causal_tol)
        assert [r.name for r in got] == list(SURFACE_NAMES)
        assert json.dumps([r.to_json() for r in got]) == json.dumps(
            [r.to_json() for r in want]
        )

    @pytest.mark.parametrize("tol", [-1e-10, math.inf, math.nan])
    def test_bad_causal_tol_rejected(self, tol):
        for verify in (corpus_verify, corpus_verify_loop):
            with pytest.raises(ValueError, match="tol must be finite"):
                verify(causal_tol=tol)

    @pytest.mark.parametrize("field", ["pxx", "py"])
    def test_non_finite_sample_fails_its_row(self, monkeypatch, tmp_path, field):
        # the light-like plane with a NaN in one jet entry at the sample (0, 0):
        # in pxx it makes A NaN, in py both A and B
        def graph_jet(x, y):
            g = dict(value=y, px=0.0, py=1.0, pxx=0.0, pxy=0.0, pyy=0.0)
            g[field] = g[field] + np.where((x == 0.0) & (y == 0.0), np.nan, 0.0)
            return GraphJet(**g)

        holed = dataclasses.replace(
            entry("lightlike_plane"),
            jet=lambda x, y: graph_to_parametric(x, y, graph_jet(x, y)),
        )
        monkeypatch.setitem(catalog._ENTRIES, "lightlike_plane", holed)
        (row,) = corpus_verify(names=["lightlike_plane"])
        assert row.max_scaled_residual is None and not row.residual_pass
        assert row.causal_pass is (field == "pxx")
        assert row.histogram["null"] == 13 * 13 - (field == "py")
        assert not row.passed
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "corpus", "--out", str(out)]) == 1

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        rows = json.loads(out.read_text(), parse_constant=reject)
        (plane,) = [r for r in rows if r["name"] == "lightlike_plane"]
        assert plane["max_scaled_residual"] is None and plane["pass"] is False

    def test_null_line_samples_span_ten(self):
        line = entry("hyperbolic_catenoid").known_null_lines[0]
        pts = line.sample_points(21)
        assert len(pts) == 21
        assert null_line_check(pts, tol=1e-9).is_null_line
        ys = [p.y for p in pts]
        assert max(ys) - min(ys) >= 10.0


def loop_sample(e, U, V):
    """Reference: one entry.jet and first_form call per grid point, in grid
    order; the first point without a jet raises."""
    points, B = np.empty(U.shape + (3,)), np.empty(U.shape)
    for i in np.ndindex(U.shape):
        j = e.jet(float(U[i]), float(V[i]))
        points[i], B[i] = j.f, first_form(j)[1]
    return points, B


def off_centre_grid(name):
    (u0, u1), (v0, v1) = entry(name).domain
    w, h = u1 - u0, v1 - v0
    return f"--grid={u0 + 0.13 * w}:{u1 - 0.31 * w}:17,{v0 + 0.07 * h}:{v1 - 0.2 * h}:23"


class TestArrayJets:
    """Array jets and the catalog sampler equal per-point jets bit for bit."""

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    @pytest.mark.parametrize("grid", ["default", "off-centre"])
    def test_sample_equals_point_jets(self, name, grid):
        argv = ["mesh", "--surface", f"catalog:{name}", "--out", "unused.ply"]
        if grid == "off-centre":
            argv.append(off_centre_grid(name))
        args = build_parser().parse_args(argv)
        _, xs, ys, sample, _ = _resolve_source(args, 33)
        U, V = np.meshgrid(xs, ys, indexing="ij")
        e = entry(name)
        points, B = loop_sample(e, U, V)
        got_points, got_B = sample_grid(e, xs, ys)
        assert got_points.shape == points.shape and got_B.shape == B.shape
        assert got_points.tobytes() == points.tobytes()
        assert got_B.tobytes() == B.tobytes()
        # the sampler classify and mesh consume: these points, the band signs of B
        sampled, signs, fallbacks = sample()
        assert sampled.tobytes() == points.tobytes()
        band = (B > args.tol).astype(np.int8) - (B < -args.tol)
        assert signs.dtype == np.int8 and np.array_equal(signs, band)
        assert fallbacks is None
        # and every other entry of the jet
        jet, ref = e.jet(U, V), [e.jet(u, v) for u, v in zip(U.ravel().tolist(),
                                                            V.ravel().tolist())]
        for field in dataclasses.fields(jet):
            for k in range(3):
                got = np.broadcast_to(getattr(jet, field.name)[k], U.shape).ravel()
                want = np.array([getattr(r, field.name)[k] for r in ref])
                assert got.tobytes() == want.tobytes(), (field.name, k)
        # the corpus's residual scale, against max(...) ** 3 in Python floats
        scale = np.broadcast_to(jet_scale(jet), U.shape).ravel()
        assert scale.tobytes() == np.array([scalar_jet_scale(r) for r in ref]).tobytes()

    def test_sampler_names_first_point_without_jet(self):
        # hyperbolic_catenoid has no jet at its cone point (0, 0)
        argv = ["mesh", "--surface", "catalog:hyperbolic_catenoid",
                "--grid=-1:1:3,-1:1:3", "--out", "unused.ply"]
        _, xs, ys, sample, _ = _resolve_source(build_parser().parse_args(argv), 33)
        e, (U, V) = entry("hyperbolic_catenoid"), np.meshgrid(xs, ys, indexing="ij")
        with pytest.raises(_NO_JET) as err:
            loop_sample(e, U, V)
        with pytest.raises(_NO_JET):
            e.jet(U, V)
        with pytest.raises(ValueError, match=r"no jet at \(0\.0, 0\.0\)") as got:
            sample()
        assert str(got.value).endswith(f": {err.value}")

    def test_sampler_names_first_non_finite_b(self):
        # B ~ cosh(v)^4 overflows to inf from v ~ 179 on, and is NaN from
        # inf - inf further up; neither is a verdict
        xs, ys = np.linspace(-1, 1, 5), np.linspace(100, 400, 7)
        e = entry("elliptic_catenoid")
        B = loop_sample(e, *np.meshgrid(xs, ys, indexing="ij"))[1]
        assert np.isfinite(B[:, :2]).all() and not np.isfinite(B[:, 2:]).any()
        assert np.isnan(B).any()
        with pytest.raises(ValueError, match=r"no finite B at \(-1\.0, 200\.0\)"):
            sample_grid(e, xs, ys)
