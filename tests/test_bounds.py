"""Convergence certificates: tau, growth constants, domain geometry, estimates."""
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmcgraph.bounds import (
    BoundCheck,
    certificate,
    convexity_witness,
    growth_constant,
    tau_constant,
    tau_integrand_quadrature,
    tau_integrand_scaled,
    tau_integrand_slope,
    u_halfwidth,
    u_membership,
    verify_growth_estimates,
)

from zmcgraph.cli import _suite_growth
from zmcgraph.series import series_from_expansion, series_from_recursion

from conftest import seed


class TestTau:
    def test_endpoint_value(self):
        assert tau_integrand_scaled(0.5) == 0.0

    def test_small_t_limit(self):
        assert tau_integrand_scaled(1e-6) == pytest.approx(2.0, abs=1e-4)

    def test_supremum_location_and_value(self):
        tau, t_star = tau_constant()
        assert tau == 2.6911
        assert t_star == pytest.approx(0.1379, abs=2e-3)

    def test_tau_is_a_valid_upper_bound(self):
        tau, _ = tau_constant()
        ends = np.geomspace(1e-300, 1e-4, 300)
        grid = [np.linspace(1e-4, 0.4999, 2000), ends, 0.5 - ends, [0.5]]
        for t in np.concatenate(grid):
            assert tau_integrand_scaled(float(t)) <= tau

    def test_t_star_is_the_slope_root(self):
        # the root of g' to 40 digits (mpmath.findroot) is 0.13791172388553894329...
        _, t_star = tau_constant()
        assert abs(t_star - 0.13791172388553894) <= 1e-12
        assert tau_integrand_slope(t_star - 1e-9) > 0 > tau_integrand_slope(t_star + 1e-9)

    def test_slope_is_the_decreasing_derivative(self):
        # the bound in tau_constant rests on g' being g's slope and decreasing
        ts = np.linspace(1e-3, 0.499, 500)
        slopes = [tau_integrand_slope(float(t)) for t in ts]
        assert all(np.diff(slopes) < 0)
        h = 1e-6
        for t in ts[::25]:
            diff = (tau_integrand_scaled(t + h) - tau_integrand_scaled(t - h)) / (2 * h)
            assert tau_integrand_slope(float(t)) == pytest.approx(diff, rel=1e-6, abs=1e-6)
        with pytest.raises(ValueError):
            tau_integrand_slope(0.0)

    def test_runtime_import_loads_no_scipy(self):
        # scipy is a test-only dependency: importing the package and the CLI
        # and proving tau must not load it
        code = (
            "import sys, zmcgraph, zmcgraph.cli; zmcgraph.bounds.tau_constant(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_closed_form_matches_quadrature(self):
        for t in (0.05, 0.1, 0.2, 0.3, 0.45):
            assert abs(tau_integrand_scaled(t) - tau_integrand_quadrature(t)) <= 1e-8

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            tau_integrand_scaled(0.0)
        with pytest.raises(ValueError):
            tau_integrand_scaled(0.6)


class TestCertificate:
    def test_unit_parameters(self):
        cert = certificate(Fraction(1), 1.0)
        assert cert.M == pytest.approx(1162.6, abs=0.5)
        assert cert.C_delta == cert.M
        assert 1.0 / cert.C_delta == pytest.approx(8.60e-4, rel=1e-3)
        assert cert.theta0 == pytest.approx(3.0 / cert.M**3, rel=1e-12)
        (x0, x1), (y0, y1) = cert.rect
        assert (x1, y1) == (1.0 / cert.C_delta, 1.0)
        assert (x0, y0) == (-x1, -1.0)

    def test_delta_four(self):
        cert = certificate(Fraction(1), 4.0)
        assert cert.M == pytest.approx(9300.6, abs=1.0)  # 3 * 144 * tau * 8
        assert cert.C_delta == pytest.approx(2.0 * cert.M, rel=1e-12)

    def test_tiny_c_uses_fourth_root_branch(self):
        tau, _ = tau_constant()
        c = Fraction(1, 10**6)
        first = 144.0 * tau * 1e-6
        second = (192.0 * 1e-12 * tau) ** 0.25
        assert first < second
        assert growth_constant(c, 1.0) == pytest.approx(3.0 * second, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            certificate(Fraction(0), 1.0)
        with pytest.raises(ValueError):
            certificate(Fraction(1), 0.5)
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                certificate(Fraction(1), delta)

    def test_monotonicity(self):
        deltas = [1.0, 1.5, 2.0, 3.0, 5.0, 8.0]
        ms = [growth_constant(Fraction(1), d) for d in deltas]
        assert all(a <= b for a, b in zip(ms, ms[1:]))
        cs = [math.sqrt(d) * m for d, m in zip(deltas, ms)]
        assert all(a < b for a, b in zip(cs, cs[1:]))
        assert growth_constant(Fraction(1), 2.0) <= growth_constant(Fraction(3), 2.0)

    def test_json_shape(self):
        data = certificate(Fraction(-1), 2.0).to_json()
        assert data["c"] == "-1/1"
        assert set(data) == {"c", "delta", "tau", "M", "C_delta", "theta0", "rect"}


class TestDomainU:
    def test_contains_the_whole_axis(self):
        for y in (0.0, 1.0, 100.0, 1e6):
            assert u_membership(Fraction(1), 0.0, y)
            assert u_membership(Fraction(1), 0.0, -y)

    def test_input_guards(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="y must be finite"):
                u_halfwidth(Fraction(1), bad)
            with pytest.raises(ValueError, match="y must be finite"):
                u_membership(Fraction(1), 0.0, bad)
            with pytest.raises(ValueError, match="x must be finite"):
                u_membership(Fraction(1), bad, 0.0)

    def test_outside_the_widest_rectangle(self):
        w0 = u_halfwidth(Fraction(1), 0.0)
        assert not u_membership(Fraction(1), 2.0 * w0, 0.0)

    def test_horizontal_star_shape(self):
        c = Fraction(1)
        for y in (0.0, 0.7, 3.0):
            x = 0.999 * u_halfwidth(c, y)
            assert u_membership(c, x, y)
            assert u_membership(c, x / 2, y)
            assert u_membership(c, -x, y)

    def test_width_decays_like_inverse_square(self):
        c = Fraction(1)
        ratio = u_halfwidth(c, 4.0) / u_halfwidth(c, 2.0)
        assert ratio == pytest.approx(0.25, rel=0.01)

    def test_symmetry(self):
        assert u_halfwidth(Fraction(1), 2.5) == u_halfwidth(Fraction(1), -2.5)


class TestConvexityWitness:
    def test_unit_c(self):
        w = convexity_witness(Fraction(1))
        assert w.non_convex and not w.midpoint_in_u
        assert u_membership(Fraction(1), *w.p1)
        assert u_membership(Fraction(1), *w.p2)
        assert not u_membership(Fraction(1), *w.midpoint)

    def test_reflection(self):
        w = convexity_witness(Fraction(1))
        assert not u_membership(Fraction(1), w.midpoint[0], -w.midpoint[1])

    def test_scaling_c_preserves_verdict(self):
        assert convexity_witness(Fraction(4)).non_convex
        assert convexity_witness(Fraction(-1, 2)).non_convex

    def test_zero_c_rejected(self):
        with pytest.raises(ValueError):
            convexity_witness(Fraction(0))


class TestGrowthEstimates:
    def test_full_sweep_passes(self, series_ii_cm1_n12):
        rows = verify_growth_estimates(series_ii_cm1_n12, delta=1.0, samples=41)
        assert rows and all(r.passed for r in rows)
        assert len(rows) == (series_ii_cm1_n12.order - 4) * 4

    def test_delta_two(self, series_ii_cm1_n12):
        rows = verify_growth_estimates(series_ii_cm1_n12, delta=2.0, samples=21)
        assert all(r.passed for r in rows)

    def test_zero_coefficient_rows_have_zero_lhs(self, series_ii_cm1_n12):
        rows = verify_growth_estimates(series_ii_cm1_n12, delta=1.0, samples=11)
        l5 = [r for r in rows if r.l == 5 and r.inequality.endswith("bound") and r.inequality != "chain-bound"]
        assert len(l5) == 3
        for r in l5:
            assert r.passed and r.lhs <= 1e-300

    def test_mixed_seed_unsupported(self, series_i_c1_n8):
        with pytest.raises(ValueError, match="quartic"):
            verify_growth_estimates(series_i_c1_n8)

    def test_input_guards(self, series_ii_cm1_n12):
        with pytest.raises(ValueError):
            verify_growth_estimates(series_ii_cm1_n12, delta=0.5)
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                verify_growth_estimates(series_ii_cm1_n12, delta=delta)
        with pytest.raises(ValueError):
            verify_growth_estimates(series_ii_cm1_n12, samples=1)

    def test_row_json_shape(self, series_ii_cm1_n12):
        row = verify_growth_estimates(series_ii_cm1_n12, samples=11)[0].to_json()
        assert set(row) == {"l", "inequality", "delta", "worst_y", "lhs", "rhs", "pass"}


# ---------------------------------------------------------------------------
# the array growth sweep against the scalar loop it replaced
# ---------------------------------------------------------------------------


def scalar_round_up(x: float, steps: int = 4) -> float:
    if x == 0.0:
        return x
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def scalar_round_down(x: float, steps: int = 4) -> float:
    if x == 0.0:
        return x
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def loop_growth_estimates(s, delta=1.0, samples=101):
    """Reference: the growth sweep one (l, inequality, y) at a time, with
    Fraction derivatives, float Horner per point and scalar rounding."""
    cert = certificate(s.seed.c, delta)
    ca = abs(float(s.seed.c))
    M = cert.M
    rows = []
    ys = [-delta + 2.0 * delta * i / (samples - 1) for i in range(samples)]
    for l in range(5, s.order + 1):
        bl = s.betas[l]
        bld = bl.derivative()
        bldd = bld.derivative()
        lstar = 0.5 * (l - 1) - 2.0
        mpow = M ** (l - 3)
        checks = {
            "d2-bound": lambda y, _l=lstar, _m=mpow: (
                abs(bldd(y)),
                ca * abs(y) ** _l * _m,
            ),
            "d1-bound": lambda y, _l=lstar, _m=mpow: (
                abs(bld(y)),
                3.0 * ca * abs(y) ** (_l + 1.0) / (_l + 2.0) * _m,
            ),
            "value-bound": lambda y, _l=lstar, _m=mpow: (
                abs(bl(y)),
                3.0 * ca * abs(y) ** (_l + 2.0) / (_l + 2.0) ** 2 * _m,
            ),
            "chain-bound": lambda y, _l=lstar, _m=mpow: (
                3.0 * ca * abs(y) ** (_l + 2.0) / (_l + 2.0) ** 2 * _m,
                cert.theta0 * cert.C_delta**l,
            ),
        }
        for name, fn in checks.items():
            worst_margin = math.inf
            worst = (0.0, 0.0, 0.0)
            for y in ys:
                lhs, rhs = fn(y)
                lhs, rhs = scalar_round_up(lhs), scalar_round_down(rhs)
                margin = rhs - lhs
                if margin < worst_margin:
                    worst_margin = margin
                    worst = (y, lhs, rhs)
            rows.append(
                BoundCheck(
                    l, name, delta, worst[0], worst[1], worst[2], worst_margin >= 0.0
                )
            )
    return rows


def sweep_json(rows) -> str:
    # JSON text, so that a sign of zero or a last bit shows
    return json.dumps([r.to_json() for r in rows])


@st.composite
def rational_c32(draw):
    """c = p/q with p and q of up to 32 bits each, either sign."""
    p = draw(st.integers(1, 2**32))
    q = draw(st.integers(1, 2**32))
    return Fraction(p, q) * draw(st.sampled_from([1, -1]))


def quartic(c, order):
    return series_from_expansion(seed("iii" if c > 0 else "ii", c), order)


class TestGrowthSweepReference:
    @settings(max_examples=60, deadline=None)
    @given(
        rational_c32(),
        st.integers(5, 48),
        st.sampled_from([1.0, 1.5, 2.0, 4.0]),
        st.sampled_from([2, 11, 101]),
    )
    def test_equals_scalar_loop(self, c, order, delta, samples):
        s = quartic(c, order)
        try:
            want = sweep_json(loop_growth_estimates(s, delta, samples))
        except OverflowError:  # M^(l-3), C_delta^l or a coefficient
            with pytest.raises(ValueError, match=f"c = {c} "):
                verify_growth_estimates(s, delta, samples)
            return
        assert sweep_json(verify_growth_estimates(s, delta, samples)) == want

    def test_tiny_c_underflow_fails_identically(self):
        s = quartic(Fraction(1, 10**60), 48)
        want = loop_growth_estimates(s, 1.0, 11)
        got = verify_growth_estimates(s, 1.0, 11)
        assert sweep_json(got) == sweep_json(want)
        assert len(got) == 176
        assert sum(not r.passed for r in got) == 19

    def test_suite_rows_equal_the_recursion_series(self):
        want = []
        for c in (Fraction(1), Fraction(-1)):
            s = series_from_recursion(seed("iii" if c > 0 else "ii", c), 16)
            for delta in (1.0, 2.0):
                for check in loop_growth_estimates(s, delta, 101):
                    row = check.to_json()
                    row["suite"] = "growth"
                    row["name"] = f"c={c} delta={delta:g} l={check.l} {check.inequality}"
                    want.append(row)
        assert json.dumps(_suite_growth()) == json.dumps(want)

    @pytest.mark.parametrize("order", [40, 48])
    def test_overflow_names_c_and_order(self, order):
        # M^(l-3) and C_delta^l leave float range from l = 35 on
        s = quartic(Fraction(10**6), order)
        with pytest.raises(ValueError, match=r"c = 1000000 .* order l = 35$"):
            verify_growth_estimates(s, 1.0, 11)

    def test_non_finite_side_fails_its_row(self):
        # at delta = 1e57, |y|^(l*) overflows to inf for l >= 15 while
        # M^(l-3) stays finite: the bound side is inf, and rounded down it
        # is the largest float, which a zero measured side would pass under
        s = quartic(Fraction(1, 10**101), 16)
        l16 = [r for r in verify_growth_estimates(s, 1e57, 11) if r.l == 16]
        for r in l16[:3]:  # d2, d1 and value: 0 <= inf, rounded down
            assert r.lhs == 0.0 and r.rhs > 1e308 and not r.passed
        assert not l16[3].passed  # chain: its measured side is inf
