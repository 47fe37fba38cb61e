"""Series construction: recursion vs expansion, jets, homothety."""
import json
import math
import re
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zmcgraph.series as series_mod
from zmcgraph.bounds import u_halfwidth
from zmcgraph.poly import RationalPoly, ZERO_POLY
from zmcgraph.series import (
    MAX_ORDER,
    GraphSeries,
    SeedCondition,
    SeriesCase,
    _unit_betas,
    af_bf_exact,
    af_fd_exact,
    beta8_sign_note,
    causal_signs,
    graph_jet_exact,
    homothety,
    pqr_terms,
    psi_eval_exact,
    psi_jet,
    residual_order_slope,
    series_from_expansion,
    series_from_json,
    series_from_recursion,
    series_to_json,
)

from conftest import seed


def rp(*coeffs):
    return RationalPoly(coeffs)


class TestSeeds:
    def test_zero_c_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            SeedCondition(SeriesCase.TIMELIKE_III, Fraction(0))

    @pytest.mark.parametrize(
        "case,c",
        [("ii", 1), ("ii", Fraction(1, 3)), ("iii", -1), ("i", -2)],
    )
    def test_sign_constraints(self, case, c):
        with pytest.raises(ValueError):
            seed(case, c)

    def test_valid_seeds(self):
        assert seed("ii", -1).seed_betas() == {3: ZERO_POLY, 4: rp(0, -4)}
        assert seed("iii", Fraction(3, 2)).seed_betas() == {3: ZERO_POLY, 4: rp(0, 6)}
        assert seed("i", 1).seed_betas() == {3: rp(0, 3)}


class TestConvolutionTerms:
    def test_k6_single_term(self, series_iii_c1_n8):
        p, q, r = pqr_terms(6, series_iii_c1_n8.betas)
        assert p == rp(0, 8)
        assert q == ZERO_POLY and r == ZERO_POLY

    def test_below_thresholds_all_zero(self, series_iii_c1_n8):
        assert pqr_terms(5, series_iii_c1_n8.betas) == (ZERO_POLY, ZERO_POLY, ZERO_POLY)

    def test_q_zero_through_k9(self, recursion16):
        betas = recursion16[Fraction(1)].betas
        for k in range(6, 10):
            _, q, r = pqr_terms(k, betas)
            assert q == ZERO_POLY
            assert r == ZERO_POLY or k > 10

    def test_q_and_r_switch_on(self, recursion16):
        betas = recursion16[Fraction(1)].betas
        _, q10, r10 = pqr_terms(10, betas)
        assert q10 == rp(0, 20)  # (5/16) * 4 * 4 * 4y
        assert r10 == ZERO_POLY
        _, _, r11 = pqr_terms(11, betas)
        assert r11 == ZERO_POLY  # odd coefficients vanish
        _, _, r12 = pqr_terms(12, betas)
        assert r12 == rp(0, 0, 0, -128)  # beta_4^2 beta_6'' / 6

    def test_missing_prerequisites_rejected(self):
        betas = seed("iii", 1).seed_betas()
        with pytest.raises(ValueError, match="missing prerequisite"):
            pqr_terms(8, betas)

    def test_cubic_seed_rejected(self):
        with pytest.raises(ValueError, match="cubic"):
            pqr_terms(6, {3: rp(0, 3), 4: ZERO_POLY})

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            pqr_terms(2, {})


LOW_ORDER_C1 = {
    3: ZERO_POLY,
    4: rp(0, 4),
    5: ZERO_POLY,
    6: rp(0, 0, 0, -8),
    7: ZERO_POLY,
    8: rp(0, 0, 0, 0, 0, 32),
}


class TestRecursion:
    def test_low_order_table_c1(self, series_iii_c1_n8):
        for k, expected in LOW_ORDER_C1.items():
            assert series_iii_c1_n8.betas[k] == expected

    def test_beta10_has_two_terms(self, recursion16):
        # frozen from the expansion oracle; the y^3 term enters through q_10
        b10 = recursion16[Fraction(1)].betas[10]
        assert b10 == RationalPoly([0, 0, 0, Fraction(-100, 3), 0, 0, 0, -160])

    def test_seed_flatness(self, recursion16):
        for s in recursion16.values():
            for k, bk in s.betas.items():
                if k == 4 or bk.is_zero:
                    continue
                assert bk(Fraction(0)) == 0
                assert bk.derivative()(Fraction(0)) == 0

    def test_parity_odd_coefficients_vanish(self, recursion16):
        for s in recursion16.values():
            for k in range(5, s.order + 1, 2):
                assert s.betas[k] == ZERO_POLY

    def test_mixed_seed_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            series_from_recursion(seed("i", 1), 8)

    def test_order_floor(self):
        with pytest.raises(ValueError, match="order"):
            series_from_recursion(seed("iii", 1), 4)


class TestExpansionOracle:
    def test_matches_recursion_exactly(self, recursion16, expansion16):
        for c, s1 in recursion16.items():
            s2 = expansion16[c]
            assert s1.betas == s2.betas

    def test_mixed_case_low_orders(self, series_i_c1_n8):
        assert series_i_c1_n8.betas[3] == rp(0, 3)
        assert series_i_c1_n8.betas[4] == rp(0, 0, 0, -4)
        assert series_i_c1_n8.betas[5] == rp(0, 0, 0, 0, 0, 9)

    def test_minimal_order_is_seed_only(self):
        s = series_from_expansion(seed("iii", 1), 4)
        assert s.betas == {3: ZERO_POLY, 4: rp(0, 4)}
        si = series_from_expansion(seed("i", 1), 4)
        assert si.betas[3] == rp(0, 3)
        assert not si.betas[4].is_zero

    def test_cost_cap(self):
        with pytest.raises(ValueError, match="cost cap"):
            series_from_expansion(seed("iii", 1), 50)
        with pytest.raises(ValueError, match="cost cap"):
            series_from_recursion(seed("iii", 1), 49)
        with pytest.raises(ValueError, match="order"):
            series_from_expansion(seed("iii", 1), 3)

    def test_scaling_in_c_low_orders(self):
        # for k <= 8 the coefficients are monomials and scale by c^((k-2)/2)
        s1 = series_from_recursion(seed("iii", 1), 8)
        s2 = series_from_recursion(seed("iii", 2), 8)
        for k in (4, 6, 8):
            assert s2.betas[k] == s1.betas[k].scale(Fraction(2) ** ((k - 2) // 2))

    def test_quasi_homogeneous_scaling(self, series_ii_cm1_n12):
        # exact rescaling law: the series at 16 c equals the homothety by 2
        s16 = series_from_recursion(seed("ii", -16), 12)
        assert homothety(series_ii_cm1_n12, Fraction(2)).betas == s16.betas


# ---------------------------------------------------------------------------
# the unit-c table path against the dense constructions
# ---------------------------------------------------------------------------


def dense_x_coefficient(b, k):
    """Reference: x^k coefficient of the graph ZMC expression in dense
    polynomial products, with b_k treated as zero.

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


def dense_expansion(sd, order):
    """Reference: the series expanded at the seed's own c in dense products."""
    b = {0: RationalPoly([0, 1]), 1: ZERO_POLY, 2: ZERO_POLY}
    for k, bk in sd.seed_betas().items():
        b[k] = bk.scale(Fraction(1, k))
    for k in range(sd.first_unknown, order + 1):
        e_k = dense_x_coefficient(b, k)
        beta_k = e_k.scale(-k).antiderivative_zero().antiderivative_zero()
        b[k] = beta_k.scale(Fraction(1, k))
    return {j: b[j].scale(j) for j in range(3, order + 1)}


@st.composite
def rational_c(draw, negative=None):
    """c = p/q, q of 1 to 32 bits and p within a factor 2 of it, either sign."""
    bits = draw(st.integers(1, 32))
    q = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    p = draw(st.integers(max(1, q // 2), 2 * q))
    if negative is None:
        negative = draw(st.booleans())
    return Fraction(-p if negative else p, q)


class TestUnitTable:
    @settings(max_examples=25, deadline=None)
    @given(rational_c(), st.integers(5, 24))
    def test_equals_recursion(self, c, order):
        sd = seed("ii" if c < 0 else "iii", c)
        table = series_from_expansion(sd, order).betas
        assert table == series_from_recursion(sd, order).betas

    def test_equals_recursion_at_order_48(self):
        sd = seed("ii", Fraction(-7, 5))
        table = series_from_expansion(sd, 48).betas
        assert table == series_from_recursion(sd, 48).betas

    @settings(max_examples=15, deadline=None)
    @given(rational_c(negative=False), st.integers(4, 12))
    def test_cubic_equals_dense_expansion(self, c, order):
        sd = seed("i", c)
        assert series_from_expansion(sd, order).betas == dense_expansion(sd, order)

    def test_quartic_equals_dense_expansion(self):
        sd = seed("iii", Fraction(3, 11))
        assert series_from_expansion(sd, 16).betas == dense_expansion(sd, 16)

    def test_sparsity(self):
        # only y^d with w | k - 1 + d is nonzero: 100 of 552 entries at order 48
        rows = _unit_betas(4, 48)
        assert [k for k, _ in rows] == list(range(3, 49))
        assert all((k - 1 + d) % 4 == 0 for k, terms in rows for d, _ in terms)
        assert sum(len(terms) for _, terms in rows) == 100
        cubic = _unit_betas(3, 24)
        assert all((k - 1 + d) % 3 == 0 for k, terms in cubic for d, _ in terms)

    def test_growing_cache_equals_fresh_builds(self, monkeypatch):
        def build(case, c, order):
            return series_from_expansion(seed(case, c), order).betas

        cases = (("iii", Fraction(7, 5)), ("i", Fraction(3, 11)))
        monkeypatch.setattr(series_mod, "_UNIT_TABLES", {})
        grown = [build(*case, order) for case in cases for order in (16, 48, 16)]
        fresh = []
        for case in cases:
            for order in (16, 48, 16):
                monkeypatch.setattr(series_mod, "_UNIT_TABLES", {})
                fresh.append(build(*case, order))
        assert grown == fresh
        assert all(len(b) == 46 for b in grown[1::3])

    def test_threads_sharing_the_cache(self, monkeypatch):
        # more threads than cores, each growing the same tables to its own
        # order, with a short switch interval to interleave them
        monkeypatch.setattr(series_mod, "_UNIT_TABLES", {})
        jobs = [("iii", Fraction(7, 5), n) for n in (12, 40, 24, 48, 32, 16)]
        jobs += [("i", Fraction(3, 11), n) for n in (16, 8, 24)]
        out = [None] * len(jobs)

        def build(i):
            case, c, order = jobs[i]
            out[i] = series_from_expansion(seed(case, c), order).betas

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=build, args=(i,)) for i in range(len(jobs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        monkeypatch.setattr(series_mod, "_UNIT_TABLES", {})
        want = series_from_expansion(seed("iii", Fraction(7, 5)), 48).betas
        for (case, c, order), got in zip(jobs, out):
            if case == "iii":
                assert got == {k: want[k] for k in range(3, order + 1)}
            else:
                assert got == series_from_expansion(seed(case, c), order).betas

    def test_returned_betas_do_not_reach_the_cache(self):
        sd = seed("ii", Fraction(-3, 2))
        first = series_from_expansion(sd, 12)
        want = dict(first.betas)
        first.betas[6] = RationalPoly([1])
        del first.betas[8]
        _unit_betas(4, 12).clear()
        assert series_from_expansion(sd, 12).betas == want

    def test_no_table_at_import(self):
        code = "import zmcgraph.cli, zmcgraph.series as s; print(s._UNIT_TABLES)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "{}"


class TestJets:
    def test_on_axis_jet(self, series_iii_c1_n8):
        for y in (-2.0, 0.0, 0.7):
            j = psi_jet(series_iii_c1_n8, 0.0, y)
            assert (j.value, j.px, j.py) == (y, 0.0, 1.0)
            assert (j.pxx, j.pxy, j.pyy) == (0.0, 0.0, 0.0)

    def test_psi_vanishes_on_x_axis(self, series_iii_c1_n8):
        # every coefficient polynomial vanishes at y = 0
        for x in (Fraction(1, 10), Fraction(-7, 9), Fraction(2)):
            assert psi_eval_exact(series_iii_c1_n8, x, Fraction(0)) == 0

    def test_py_on_x_axis_is_quartic(self, series_iii_c1_n8):
        x = Fraction(1, 7)
        _, px, py, _, _, _ = graph_jet_exact(series_iii_c1_n8, x, Fraction(0))
        assert px == 0
        assert py == 1 + x**4

    def test_causal_field_on_x_axis(self, series_iii_c1_n8):
        x = Fraction(1, 5)
        _, b = af_bf_exact(series_iii_c1_n8, x, Fraction(0))
        assert b == -2 * x**4 - x**8

    def test_null_line_containment_exact(self, recursion16, series_i_c1_n8):
        ys = [Fraction(10) ** 6, -(Fraction(10) ** 6), Fraction(123456789, 7), Fraction(0)]
        for s in (*recursion16.values(), series_i_c1_n8):
            for y in ys:
                assert psi_eval_exact(s, Fraction(0), y) == y

    def test_float_jet_matches_exact(self, series_iii_c1_n8):
        x, y = 0.03, -0.4
        j = psi_jet(series_iii_c1_n8, x, y)
        exact = graph_jet_exact(series_iii_c1_n8, Fraction(x), Fraction(y))
        got = (j.value, j.px, j.py, j.pxx, j.pxy, j.pyy)
        for g, want in zip(got, exact):
            assert g == pytest.approx(float(want), rel=1e-12, abs=1e-15)


class TestResidualOrder:
    def test_fd_residual_matches_exact_jet_residual(self, series_iii_c1_n8):
        x, y = Fraction(1, 50), Fraction(1, 2)
        direct, _ = af_bf_exact(series_iii_c1_n8, x, y)
        fd = af_fd_exact(series_iii_c1_n8, x, y, Fraction(1, 10**9))
        assert abs(fd - direct) < Fraction(1, 10**12)

    def test_slope_meets_truncation_order(self, series_iii_c1_n8):
        xs = [Fraction(1, 20) / 2**i for i in range(4)]
        ys = [Fraction(-1), Fraction(1, 2), Fraction(1)]
        slope = residual_order_slope(series_iii_c1_n8, xs, ys)
        assert slope >= series_iii_c1_n8.order - 2

    def test_h_must_be_positive(self, series_iii_c1_n8):
        with pytest.raises(ValueError):
            af_fd_exact(series_iii_c1_n8, Fraction(1, 10), Fraction(0), Fraction(0))


class TestHomothety:
    def test_identity_factor(self, series_iii_c1_n8):
        assert homothety(series_iii_c1_n8, Fraction(1)) is series_iii_c1_n8

    def test_quartic_coefficient_transform(self, series_iii_c1_n8):
        scaled = homothety(series_iii_c1_n8, Fraction(2))
        assert scaled.betas[4] == rp(0, 64)
        assert scaled.seed.c == 16

    def test_mixed_seed_parameter_transform(self, series_i_c1_n8):
        scaled = homothety(series_i_c1_n8, Fraction(2))
        assert scaled.seed.c == 8
        assert scaled.betas[3] == rp(0, 24)

    def test_residual_transforms_exactly(self, series_iii_c1_n8):
        # A of the rescaled truncation at (x, y) is m times A at (m x, m y)
        m = Fraction(2)
        scaled = homothety(series_iii_c1_n8, m)
        x, y = Fraction(1, 40), Fraction(1, 3)
        a_scaled, _ = af_bf_exact(scaled, x, y)
        a_orig, _ = af_bf_exact(series_iii_c1_n8, m * x, m * y)
        assert a_scaled == m * a_orig

    def test_nonpositive_factor_rejected(self, series_iii_c1_n8):
        with pytest.raises(ValueError):
            homothety(series_iii_c1_n8, Fraction(-1))


class TestInterchangeFormat:
    def test_round_trip_exact(self, recursion16):
        s = recursion16[Fraction(-1)]
        back = series_from_json(series_to_json(s))
        assert back.betas == s.betas
        assert back.seed == s.seed and back.order == s.order

    @settings(max_examples=30, deadline=None)
    @given(rational_c(negative=False), st.sampled_from(["i", "ii", "iii"]),
           st.integers(4, 32))
    def test_round_trip_property(self, c, case, order):
        s = series_from_expansion(seed(case, -c if case == "ii" else c), order)
        text = json.dumps(series_to_json(s))
        back = series_from_json(json.loads(text))
        assert json.dumps(series_to_json(back)) == text
        assert back.betas == s.betas
        assert back.seed == s.seed and back.order == s.order

    def test_wire_shape(self, series_iii_c1_n8):
        data = series_to_json(series_iii_c1_n8)
        assert data["case"] == "iii"
        assert data["c"] == "1/1"
        assert data["order"] == 8
        assert data["betas"]["4"] == ["0", "4"]
        assert data["betas"]["6"] == ["0", "0", "0", "-8"]
        assert "5" not in data["betas"]  # zero polynomials are omitted

    def test_order_above_cap_rejected(self, series_iii_c1_n8):
        data = series_to_json(series_iii_c1_n8)
        data["order"] = MAX_ORDER + 1
        with pytest.raises(ValueError, match="cost cap"):
            series_from_json(data)

    def test_out_of_range_index_rejected(self, series_iii_c1_n8):
        data = series_to_json(series_iii_c1_n8)
        data["betas"]["99"] = ["1"]
        with pytest.raises(ValueError, match="outside"):
            series_from_json(data)

    @pytest.mark.parametrize("change,message", [
        (lambda d: d.pop("c"), "has no 'c'"),
        (lambda d: d.pop("betas"), "has no 'betas'"),
        (lambda d: [d.pop("case"), d.pop("order")], "has no 'case', 'order'"),
        (lambda d: d.update(betas=[]), "betas must be an object"),
        (lambda d: d.update(betas=None), "betas must be an object"),
        (lambda d: d["betas"].update({"4": "0 4"}), "beta_4 must be an array"),
        (lambda d: d["betas"].update({"4": ["0", "4y"]}), "beta_4 holds a string"),
        (lambda d: d["betas"].update({"6": ["0", 4]}), "beta_6 must hold rational strings"),
        (lambda d: d["betas"].update({"6": ["1/0"]}), "beta_6 holds a string"),
        (lambda d: d.update(c="one"), "c holds a string that is not a rational"),
        (lambda d: d.update(c=1), "c must hold rational strings"),
        (lambda d: d.update(order=3, betas={}), "order must be at least 4"),
        (lambda d: d.update(order="8"), "order must be an integer"),
        (lambda d: d.update(order=8.0), "order must be an integer"),
        (lambda d: d.update(case="iv"), "not a valid SeriesCase"),
    ])
    def test_malformed_file_rejected(self, series_iii_c1_n8, change, message):
        data = series_to_json(series_iii_c1_n8)
        change(data)
        with pytest.raises(ValueError, match=re.escape(message)):
            series_from_json(data)

    def test_non_object_rejected(self):
        for data in ([], "iii", None):
            with pytest.raises(ValueError, match="JSON object"):
                series_from_json(data)


class TestBeta8Note:
    def test_paths_agree_and_reference_differs(self, recursion16, expansion16):
        s = recursion16[Fraction(1)]
        assert s.betas[8] == expansion16[Fraction(1)].betas[8]
        note = beta8_sign_note(s)
        assert note["kind"] == "info"
        assert note["agrees_with_reference"] is False
        assert note["computed"] == ["0", "0", "0", "0", "0", "32"]
        assert note["reference"] == ["0", "0", "0", "0", "0", "-32"]

    def test_requires_order_8(self):
        s = series_from_recursion(seed("iii", 1), 6)
        with pytest.raises(ValueError):
            beta8_sign_note(s)


# ---------------------------------------------------------------------------
# the shared jet body against per-point and derive-at-each-point references
# ---------------------------------------------------------------------------


def loop_jet_exact(s, x, y):
    """Reference: the exact jet loop that derives beta_k' and beta_k'' per point."""
    x, y = Fraction(x), Fraction(y)
    value = y
    px = pxx = pxy = pyy = Fraction(0)
    py = Fraction(1)
    for k, bk in s.betas.items():
        if bk.is_zero:
            continue
        bd = bk.derivative()
        bv, bdv, bddv = bk(y), bd(y), bd.derivative()(y)
        xk2 = x ** (k - 2)
        xk1 = xk2 * x
        xk = xk1 * x
        value += bv * xk / k
        px += bv * xk1
        py += bdv * xk / k
        pxx += (k - 1) * bv * xk2
        pxy += bdv * xk1
        pyy += bddv * xk / k
    return value, px, py, pxx, pxy, pyy


def loop_af_bf_exact(s, x, y):
    """Reference: A and B written out on the reference jet."""
    _, px, py, pxx, pxy, pyy = loop_jet_exact(s, x, y)
    a = (1 - py * py) * pxx + 2 * px * py * pxy + (1 - px * px) * pyy
    b = 1 - px * px - py * py
    return a, b


@st.composite
def random_series(draw):
    case = draw(st.sampled_from(["i", "ii", "iii"]))
    c = draw(st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=1000))
    c = -c if case == "ii" else c
    if case == "i":
        return series_from_expansion(seed("i", c), draw(st.integers(4, 12)))
    return series_from_recursion(seed(case, c), draw(st.integers(5, 16)))


coords = st.lists(st.floats(-1, 1), min_size=1, max_size=6)
small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=10**6)


class TestSharedJetBody:
    @settings(max_examples=30, deadline=None)
    @given(random_series(), coords, coords)
    def test_array_jet_equals_per_point_bit_for_bit(self, s, xs, ys):
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        grid = psi_jet(s, X, Y)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                point = psi_jet(s, x, y)
                for name in ("value", "px", "py", "pxx", "pxy", "pyy"):
                    got = getattr(grid, name)[i, j]
                    want = getattr(point, name)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), name

    @settings(max_examples=30, deadline=None)
    @given(random_series(), small_fractions, small_fractions)
    def test_exact_jet_equals_derive_per_point_loop(self, s, x, y):
        assert graph_jet_exact(s, x, y) == loop_jet_exact(s, x, y)
        assert af_bf_exact(s, x, y) == loop_af_bf_exact(s, x, y)

    def test_array_call_leaves_its_arguments_alone(self, series_iii_c1_n8):
        X, Y = np.meshgrid([0.1, 0.2], [-0.5, 0.5], indexing="ij")
        before = Y.copy()
        psi_jet(series_iii_c1_n8, X, Y)
        assert np.array_equal(Y, before)


@st.composite
def wide_c(draw):
    """c = p/q from tiny to huge, with numerators of up to 1400 bits."""
    p = draw(st.integers(1, 2 ** draw(st.sampled_from([8, 64, 400, 1400]))))
    q = draw(st.integers(1, 2 ** draw(st.sampled_from([8, 64, 400]))))
    return Fraction(p, q)


class TestFloatTables:
    @settings(max_examples=40, deadline=None)
    @given(wide_c(), st.sampled_from(["i", "ii", "iii"]), st.integers(4, 24))
    def test_rows_are_float_of_the_exact_rows(self, c, case, order):
        s = series_from_expansion(seed(case, -c if case == "ii" else c), order)
        try:
            want = [
                (k, *([float(v) for v in row] for row in rows))
                for k, *rows in s._exact_table()
            ]
        except OverflowError:
            with pytest.raises(ValueError, match="too large for float evaluation"):
                s._float_tables()
            return
        floats, mags = s._float_tables()
        bits = lambda table: [
            (k, *(np.array(row, dtype=float).tobytes() for row in rows))
            for k, *rows in table
        ]
        assert bits(floats) == bits(want)
        assert bits(mags) == bits(
            [(k, *([abs(v) for v in row] for row in rows)) for k, *rows in want]
        )

    def test_overflow_message(self):
        s = series_from_expansion(seed("iii", 10**100), 16)
        with pytest.raises(ValueError) as err:
            s._float_tables()
        assert str(err.value) == (
            f"c = {10**100} is too large for float evaluation: the "
            "order-16 coefficients overflow float range"
        )
        assert s._exact is None


# ---------------------------------------------------------------------------
# the filtered causal signs against the exact sign of B at every point
# ---------------------------------------------------------------------------


def exact_signs(s, xs, ys):
    """Reference: the sign of af_bf_exact's B, one point at a time."""
    out = np.zeros((len(xs), len(ys)), dtype=np.int8)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            b = af_bf_exact(s, Fraction(float(x)), Fraction(float(y)))[1]
            out[i, j] = (b > 0) - (b < 0)
    return out


@st.composite
def sign_grids(draw):
    """A random series and a grid holding x = 0, a tiny |x| whose powers
    underflow, the certified edge and random points up to |x| = 1."""
    s = draw(random_series())
    edge = u_halfwidth(s.seed.c, 0.0)
    xs = [
        0.0,
        draw(st.sampled_from([1e-300, -1e-300, 1e-200, -1e-160])),
        draw(st.sampled_from([edge, -edge])),
        *draw(st.lists(st.floats(-1, 1), min_size=1, max_size=3)),
    ]
    ys = draw(st.lists(st.floats(-1, 1), min_size=1, max_size=4))
    return s, xs, ys


def sign_change_root(s, lo, hi, y):
    """The float x in [lo, hi] next to the sign change of the exact B(x, y)."""
    sign = lambda x: af_bf_exact(s, Fraction(x), Fraction(y))[1] > 0
    s_lo = sign(lo)
    assert sign(hi) != s_lo
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if sign(mid) == s_lo else (lo, mid)
    return lo


class TestCausalSigns:
    @settings(max_examples=30, deadline=None)
    @given(sign_grids())
    def test_equals_exact_sign(self, grid):
        s, xs, ys = grid
        signs, fallbacks, value = series_mod._causal_signs(s, xs, ys)
        assert signs.dtype == np.int8
        assert np.array_equal(signs, exact_signs(s, xs, ys))
        # the heights come out of the same jet, equal to psi_jet's bit for bit
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        assert value.tobytes() == psi_jet(s, X, Y).value.tobytes()
        # the tiny |x| row always goes to exact arithmetic, x = 0 never does
        assert len(ys) <= fallbacks <= (len(xs) - 1) * len(ys)

    def test_no_fallbacks_on_default_grid(self, recursion16, series_i_c1_n8):
        for s in (*recursion16.values(), series_i_c1_n8):
            half = 0.999 * u_halfwidth(s.seed.c, 0.0)
            xs, ys = np.linspace(-half, half, 21), np.linspace(-0.999, 0.999, 21)
            signs, fallbacks = causal_signs(s, xs, ys)
            assert fallbacks == 0
            assert not signs[10].any()  # the null line x = 0
            if s.seed.case is SeriesCase.MIXED_I:
                assert np.array_equal(signs, exact_signs(s, xs, ys))
            else:  # time-like for c > 0, space-like for c < 0, off the axis
                off_axis = np.delete(signs, 10, axis=0)
                assert (off_axis == (-1 if s.seed.c > 0 else 1)).all()

    def test_tiny_x_falls_back(self, series_iii_c1_n8):
        # x^4 underflows to 0 in the first two rows, so B_float = 0 decides
        # nothing; in the last B ~ 2e-160 is a normal float and x^8 is not,
        # which the absolute underflow term covers, so the float decides
        s = GraphSeries(series_iii_c1_n8.seed, 8, series_iii_c1_n8.betas)
        xs, ys = [1e-300, -1e-250, 1e-40], [-0.5, 0.5]
        signs, fallbacks = causal_signs(s, xs, ys)
        assert fallbacks == 4
        assert (signs == -1).all()
        assert s._exact is not None  # the fallbacks built the exact table

    def test_no_fallbacks_build_no_exact_table(self):
        s = series_from_expansion(seed("iii", Fraction(3, 2)), 24)
        half = 0.999 * u_halfwidth(s.seed.c, 0.0)
        xs, ys = np.linspace(-half, half, 21), np.linspace(-0.999, 0.999, 21)
        assert causal_signs(s, xs, ys)[1] == 0
        assert s._exact is None

    @pytest.mark.parametrize(
        "case,c,order,xs,ys,line",
        [
            # linspace puts -1.36e-20 where x = 0 should be: column 100
            ("iii", 1, 16, (-1e-4, 1e-4, 201), (-1, 1, 201), (100, None)),
            # and 1.1e-16 where y = 0 should be: row 100
            ("i", Fraction(7, 5), 16, "default", 201, (None, 100)),
            # the middle column sits at x = -2.17e-19
            ("i", Fraction(149, 230), 16, "default", 21, (10, None)),
        ],
    )
    def test_tiny_coordinates_decide_in_float(self, case, c, order, xs, ys, line):
        s = series_from_expansion(seed(case, c), order)
        if xs == "default":
            half = 0.999 * u_halfwidth(s.seed.c, 0.0)
            xs, ys = (-half, half, ys), (-0.999, 0.999, ys)
        xs, ys = np.linspace(*xs), np.linspace(*ys)
        i, j = line
        assert 0 < abs(xs[i] if i is not None else ys[j]) < 1e-15
        signs, fallbacks = causal_signs(s, xs, ys)
        assert fallbacks == 0
        sub = slice(None, None, 10)  # every tenth point of that line
        if i is not None:
            got, want = signs[i, sub], exact_signs(s, xs[i:i + 1], ys[sub])[0]
        else:
            got, want = signs[sub, j], exact_signs(s, xs[sub], ys[j:j + 1])[:, 0]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("case,order,lo,hi", [("iii", 8, -81.5, -77),
                                                  ("i", 4, -108.5, -102)])
    def test_bound_covers_underflow(self, case, order, lo, hi):
        # q ~ x^4 (case iii) or x^3 (case i) is subnormal at these x, so its
        # error is absolute, far above gamma M; only the underflow term of
        # the bound covers it
        s = series_from_expansion(seed(case, 1), order)
        rng = np.random.default_rng(2)
        xs = 10.0 ** rng.uniform(lo, hi, 60) * rng.choice([-1, 1], 60)
        ys = rng.uniform(-1, 1, 4)
        _, B, bound = series_mod._filtered_b(s, xs[:, None], ys[None, :])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                b = af_bf_exact(s, Fraction(float(x)), Fraction(float(y)))[1]
                assert abs(Fraction(float(B[i, j])) - b) <= Fraction(float(bound[i, j]))
        # and it is small enough that the float still decides most of them
        assert (np.abs(B) > bound).mean() > 0.5

    def test_underflow_cancellation_falls_back(self):
        # case i, order 4: B = -(px^2 + q (2 + q)) changes sign near
        # x = -2 / (9 y^2).  At y = 1e53 that is x ~ -2e-107, where px^2 and
        # q are subnormal: the float B has the wrong sign at some of these
        # points, and without the underflow term the filter would trust it
        s = series_from_expansion(seed("i", 1), 4)
        y = 1e53
        xs = -2 / (9 * y * y) * np.linspace(0.8, 1.2, 41)
        _, B, _ = series_mod._filtered_b(s, xs[:, None], np.array([[y]]))
        want = exact_signs(s, xs, [y])
        assert set(np.unique(want)) == {-1, 1}
        assert ((np.sign(B) != want) & (B != 0)).any()
        signs, fallbacks = causal_signs(s, xs, [y])
        assert np.array_equal(signs, want)
        assert fallbacks == len(xs)

    def test_consecutive_floats_across_a_sign_change(self):
        # case i changes type near x = -2 / (9 c y^2); next to that curve
        # the float B is all rounding noise and has the wrong sign at some
        # of these points, while the exact sign flips once along x
        s = series_from_expansion(seed("i", 64), 12)
        x0 = sign_change_root(s, -0.01, -0.001, 0.999)
        xs = x0 + np.arange(-20, 21) * math.ulp(x0)
        ys = 0.999 + np.arange(-1, 2) * math.ulp(0.999)
        signs, fallbacks = causal_signs(s, xs, ys)
        want = exact_signs(s, xs, ys)
        assert set(np.unique(want)) == {-1, 1}
        assert np.array_equal(signs, want)
        assert fallbacks > 0
