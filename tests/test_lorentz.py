"""Lorentzian geometry kernel: forms, residuals, classification, null lines."""
import math
import random
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from zmcgraph.catalog import entry
from zmcgraph.lorentz import (
    Causal,
    GraphJet,
    Jet2,
    Vec3M,
    classify,
    first_form,
    graph_af_bf,
    graph_to_parametric,
    jet_scale,
    minkowski_dot,
    null_line_check,
    zmc_residual,
)
from zmcgraph.series import psi_jet

from corpus_reference import B_field, degenerate_test
from fd_reference import fd_graph_jet

FLAT_PLANE = graph_to_parametric(0.3, -0.7, GraphJet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def random_graph_jet(rng) -> GraphJet:
    return GraphJet(*(rng.uniform(-2, 2) for _ in range(6)))


def ulp_bound_a(g: GraphJet) -> float:
    return (
        (1.0 + g.py * g.py) * abs(g.pxx)
        + 2.0 * abs(g.px * g.py * g.pxy)
        + (1.0 + g.px * g.px) * abs(g.pyy)
        + 1.0
    )


def ulp_bound_b(g: GraphJet) -> float:
    return (1.0 + g.px * g.px) * (1.0 + g.py * g.py) + (g.px * g.py) ** 2 + 1.0


class TestProducts:
    def test_minkowski_dot_hand_value(self):
        assert minkowski_dot(Vec3M(1, 2, 3), Vec3M(4, 5, 6)) == 4 + 10 - 18

    def test_null_direction(self):
        d = Vec3M(0.0, 1.0, 1.0)
        assert minkowski_dot(d, d) == 0.0


class TestFirstForm:
    def test_flat_plane(self):
        P, B = first_form(FLAT_PLANE)
        assert np.allclose(P, np.eye(2))
        assert B == 1.0

    def test_light_cone(self):
        v = 1.3
        P, B = first_form(entry("light_cone").jet(0.7, v))
        assert P[0, 0] == pytest.approx(v * v, rel=1e-15)
        assert abs(P[0, 1]) < 1e-15
        assert abs(P[1, 1]) < 1e-15
        assert abs(B) < 1e-15

    def test_elliptic_catenoid(self):
        u, v = 0.9, -0.6
        P, B = first_form(entry("elliptic_catenoid").jet(u, v))
        sh2 = math.sinh(v) ** 2
        assert np.allclose(P, sh2 * np.eye(2), atol=1e-15)
        assert B == pytest.approx(sh2 * sh2, rel=1e-12)


class TestZmcResidual:
    def test_plane_is_exactly_zero(self):
        assert zmc_residual(FLAT_PLANE) == 0.0

    def test_elliptic_catenoid_vanishes(self):
        e = entry("elliptic_catenoid")
        for u in np.linspace(-3.0, 3.0, 7):
            for v in (-1.2, -0.4, 0.5, 1.4):
                j = e.jet(u, v)
                assert abs(zmc_residual(j)) <= 1e-9
                assert abs(zmc_residual(j)) / jet_scale(j) <= 1e-12

    def test_light_cone_vanishes(self):
        e = entry("light_cone")
        for u in np.linspace(0.0, 2 * math.pi, 9):
            for v in (-1.0, -0.3, 0.0, 0.8):
                assert abs(zmc_residual(e.jet(u, v))) <= 1e-12


class TestGraphFormulas:
    def test_lightlike_plane(self):
        a, b = graph_af_bf(GraphJet(0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
        assert (a, b) == (0.0, 0.0)

    def test_spacelike_plane(self):
        a, b = graph_af_bf(GraphJet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert (a, b) == (0.0, 1.0)

    def test_bridge_identity_random_jets(self):
        rng = random.Random(42)
        for _ in range(1000):
            g = random_graph_jet(rng)
            j = graph_to_parametric(rng.uniform(-1, 1), rng.uniform(-1, 1), g)
            a_graph, b_graph = graph_af_bf(g)
            a_param = zmc_residual(j)
            _, b_param = first_form(j)
            assert abs(a_param - a_graph) <= 4 * math.ulp(ulp_bound_a(g))
            assert abs(b_param - b_graph) <= 4 * math.ulp(ulp_bound_b(g))


class TestCofactorIdentity:
    def test_float_random_symmetric(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b, c = (rng.uniform(-3, 3) for _ in range(3))
            P = np.array([[a, b], [b, c]])
            adj = np.array([[c, -b], [-b, a]])
            assert np.allclose(adj @ P, (a * c - b * b) * np.eye(2), atol=1e-12)

    def test_exact_random_symmetric(self):
        rng = random.Random(6)
        for _ in range(50):
            a, b, c = (Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3))
            det = a * c - b * b
            assert c * a - b * b == det
            # adj(P) P = det I, entrywise
            assert c * a + (-b) * b == det and c * b + (-b) * c == 0
            assert (-b) * a + a * b == 0 and (-b) * b + a * c == det


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


class TestReparametrization:
    def test_scaling_laws(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph_jet(rng)
            j = graph_to_parametric(0.0, 0.0, g)
            J = [[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(2)]
            det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
            if abs(det) < 0.1:
                continue
            jr = linear_reparametrize(j, J)
            _, b0 = first_form(j)
            _, b1 = first_form(jr)
            a0, a1 = zmc_residual(j), zmc_residual(jr)
            assert b1 == pytest.approx(det**2 * b0, rel=1e-9, abs=1e-12)
            assert a1 == pytest.approx(det**3 * a0, rel=1e-9, abs=1e-10)
            # sign of B is invariant under any regular linear change
            if abs(b0) > 1e-9:
                assert math.copysign(1, b1) == math.copysign(1, b0)

    def test_zero_set_invariant(self):
        j = graph_to_parametric(1.0, 2.0, GraphJet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        jr = linear_reparametrize(j, [[2.0, 1.0], [0.5, 3.0]])
        assert zmc_residual(jr) == 0.0


class TestClassify:
    def test_spacelike(self):
        assert classify(1.0, 1e-10).kind is Causal.SPACELIKE

    def test_null_at_zero_any_tol(self):
        for tol in (0.0, 1e-10, 0.5):
            assert classify(0.0, tol).kind is Causal.NULL

    def test_timelike(self):
        assert classify(-1e-3).kind is Causal.TIMELIKE

    def test_partition_is_monotone(self):
        tol = 1e-6
        kinds = [classify(b, tol).kind for b in np.linspace(-1, 1, 101)]
        # timelike block, then null block, then spacelike block
        changes = [i for i in range(1, len(kinds)) if kinds[i] != kinds[i - 1]]
        assert len(changes) == 2
        assert kinds[0] is Causal.TIMELIKE and kinds[-1] is Causal.SPACELIKE

    def test_negative_tol_rejected(self):
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                classify(0.0, tol)


class TestDegenerate:
    def test_lightlike_plane(self):
        assert degenerate_test(lambda u, v: 0.0, (0.3, -2.0)) is True

    def test_light_cone(self):
        field = B_field(entry("light_cone"))
        assert degenerate_test(field, (1.0, 0.5), tol=1e-12) is True

    def test_series_axis_points(self, series_ii_cm1_n12):
        def field(x, y):
            j = psi_jet(series_ii_cm1_n12, x, y)
            return 1.0 - j.px * j.px - j.py * j.py

        for y0 in (0.0, 0.5, -1.0):
            assert degenerate_test(field, (0.0, y0)) is True

    def test_not_null_rejected(self):
        with pytest.raises(ValueError, match="not a null point"):
            degenerate_test(lambda u, v: 1.0, (0.0, 0.0))

    def test_nondegenerate_null(self):
        # B = u vanishes on the axis with unit gradient
        assert degenerate_test(lambda u, v: u, (0.0, 0.0)) is False


class TestNullLineCheck:
    def test_the_null_line_itself(self):
        pts = [Vec3M(0.0, y, y) for y in np.linspace(-5, 5, 11)]
        v = null_line_check(pts)
        assert v.is_null_line
        assert abs(v.direction.x) < 1e-12
        assert v.direction.y == pytest.approx(v.direction.t, rel=1e-12)

    def test_spacelike_line_rejected(self):
        pts = [Vec3M(0.0, y, 0.0) for y in np.linspace(-5, 5, 11)]
        v = null_line_check(pts)
        assert not v.is_null_line
        assert v.direction_lorentz_sq == pytest.approx(1.0)
        assert v.max_distance <= 1e-12

    def test_bent_curve_rejected(self):
        pts = [Vec3M(y * y, y, y) for y in np.linspace(-2, 2, 11)]
        assert not null_line_check(pts).is_null_line

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3 points"):
            null_line_check([Vec3M(0, 0, 0), Vec3M(0, 1, 1)])

    def test_coincident_points(self):
        with pytest.raises(ValueError, match="degenerate"):
            null_line_check([Vec3M(1, 2, 3)] * 5)

    def test_offset_null_line(self):
        pts = [Vec3M(math.pi, y, y) for y in np.linspace(-10, 10, 21)]
        assert null_line_check(pts).is_null_line


class TestFiniteDifferenceJets:
    def test_against_analytic_graph_jet(self):
        def psi(x, y):
            return math.sin(x) * math.exp(0.3 * y)

        x, y = 0.4, -0.2
        g = fd_graph_jet(psi, x, y)
        e = math.exp(0.3 * y)
        assert g.value == psi(x, y)
        assert g.px == pytest.approx(math.cos(x) * e, abs=1e-9)
        assert g.py == pytest.approx(0.3 * math.sin(x) * e, abs=1e-9)
        assert g.pxx == pytest.approx(-math.sin(x) * e, abs=1e-6)
        assert g.pxy == pytest.approx(0.3 * math.cos(x) * e, abs=1e-6)
        assert g.pyy == pytest.approx(0.09 * math.sin(x) * e, abs=1e-6)
