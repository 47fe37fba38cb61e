"""Convergence certificates: tau, growth constants, domain geometry, estimates."""
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from zmcgraph.bounds import (
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
