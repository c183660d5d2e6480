"""Model-function and closed-form bound tests.

Derived expected values were computed with an independent mpmath
re-derivation of the printed formulas (50 digits) and frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubecomp.models import (
    BoundReport,
    DomainError,
    InfeasibleBoundError,
    cheeger_delta,
    first_zero,
    hk_integrand,
    lemma52_coefficient,
    model_shape_trace,
    model_shape_traces,
    sn_cs,
    sphere_volume,
    thm1_bound,
    thm1_constants,
    unmet_hypothesis,
)


def second_derivative(f, x, h=0.1):
    """Richardson-extrapolated central second difference, O(h^6)."""
    def d2(step):
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / step**2
    a, b, c = d2(h), d2(h / 2.0), d2(h / 4.0)
    r1 = (4.0 * b - a) / 3.0
    r2 = (4.0 * c - b) / 3.0
    return (16.0 * r2 - r1) / 15.0


def first_derivative(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestSnCs:
    def test_flat_branch(self):
        assert sn_cs(0.0, 2.5) == (2.5, 1.0)

    def test_positive_branch(self):
        sn, cs = sn_cs(1.0, math.pi / 2.0)
        assert sn == pytest.approx(1.0, abs=1e-15)
        assert cs == pytest.approx(0.0, abs=1e-15)

    def test_negative_branch(self):
        sn, cs = sn_cs(-1.0, 1.0)
        assert sn == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert cs == pytest.approx(math.cosh(1.0), rel=1e-15)

    def test_continuity_at_flat_switch(self):
        for H in (1e-8, -1e-8, 9e-9, -9e-9):
            sn, cs = sn_cs(H, 3.0)
            assert sn == pytest.approx(3.0, abs=1e-7)
            assert cs == pytest.approx(1.0, abs=1e-7)

    @given(st.floats(-4.0, 4.0), st.floats(0.01, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_ode_and_pythagoras(self, H, r):
        sn, cs = sn_cs(H, r)
        # inside the flat-switch band the identity degrades by the branch cutoff;
        # elsewhere it is limited by cancellation between the (large) terms
        band = abs(H) * r * r if abs(H) < 1e-8 else 0.0
        term_scale = max(1.0, cs * cs, abs(H) * sn * sn)
        assert cs * cs + H * sn * sn == pytest.approx(
            1.0, abs=1e-12 * term_scale + band)
        if abs(H) >= 1e-7:
            d2 = second_derivative(lambda t: sn_cs(H, t)[0], r,
                                   h=0.05 / math.sqrt(1.0 + abs(H)))
            scale = max(1.0, abs(H * sn))
            assert abs(d2 + H * sn) <= 1e-10 * scale
        assert sn_cs(H, 0.0)[0] == 0.0
        dsn = first_derivative(lambda t: sn_cs(H, t)[0], 0.0, h=1e-4)
        assert dsn == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(-4.0, 4.0), st.floats(0.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_cs_is_sn_prime(self, H, r):
        _, cs = sn_cs(H, r)
        dsn = first_derivative(lambda t: sn_cs(H, t)[0], r)
        assert dsn == pytest.approx(cs, abs=1e-9 * max(1.0, abs(cs)))


class TestModelShapeTrace:
    def test_hyperbolic_generic(self):
        assert model_shape_trace(-1.0, 1, None, 1.0) == pytest.approx(
            1.0 / math.tanh(1.0), rel=1e-12)

    def test_flat_tangential(self):
        assert model_shape_trace(0.0, 2, -1.0, 0.5) == pytest.approx(-4.0, rel=1e-12)

    def test_spherical_tangential_w0_zero(self):
        assert model_shape_trace(1.0, 3, 0.0, math.pi / 4.0) == pytest.approx(
            -3.0, rel=1e-12)

    def test_domain_error_at_denominator_zero(self):
        with pytest.raises(DomainError):
            model_shape_trace(1.0, 1, None, math.pi)
        with pytest.raises(DomainError):
            model_shape_trace(0.0, 1, -1.0, 1.0)
        with pytest.raises(DomainError):
            model_shape_trace(-1.0, 2, -2.0, 10.0)
        # cosh + w0 sinh with w0 > -1 never vanishes
        assert model_shape_trace(-1.0, 2, -0.5, 10.0) == pytest.approx(
            2.0 * (-0.5 * math.cosh(10.0) + math.sinh(10.0))
            / (math.cosh(10.0) - 0.5 * math.sinh(10.0)), rel=1e-10)

    @given(st.floats(-4.0, 4.0), st.integers(1, 5), st.floats(0.15, 1.2))
    @settings(max_examples=150, deadline=None)
    def test_generic_branch_solves_riccati(self, H, k, t):
        try:
            model_shape_trace(H, k, None, t + 2e-5)
        except DomainError:
            return
        w = lambda s: model_shape_trace(H, k, None, s) / k
        resid = first_derivative(w, t, h=1e-5) + w(t) ** 2 + H
        assert abs(resid) <= 1e-6

    @given(st.floats(-4.0, 4.0), st.integers(1, 5), st.floats(-2.0, 2.0),
           st.floats(0.05, 1.2))
    @settings(max_examples=150, deadline=None)
    def test_tangential_branch_solves_riccati(self, H, k, w0, t):
        try:
            # w''' ~ 6 w^4 for the Riccati solution; keep FD truncation under 1e-6
            if abs(model_shape_trace(H, k, w0, t + 2e-5) / k) > 8.0:
                return
        except DomainError:
            return
        w = lambda s: model_shape_trace(H, k, w0, s) / k
        resid = first_derivative(w, t, h=1e-5) + w(t) ** 2 + H
        assert abs(resid) <= 1e-6

    def test_times_array_equals_scalar_calls(self):
        ts = np.array([0.05, 0.3, 0.9, 1.2])
        for H, w0 in [(1.0, None), (1.0, 0.2), (-1.0, None), (-1.0, -0.5), (0.0, -0.3)]:
            got = model_shape_trace(H, 2, w0, ts)
            assert got.shape == ts.shape
            assert np.array_equal(got, [model_shape_trace(H, 2, w0, float(t)) for t in ts])
        assert model_shape_trace(1.0, 2, None, ts[:0]).shape == (0,)
        with pytest.raises(DomainError):
            model_shape_trace(1.0, 1, None, np.array([0.5, math.pi]))

    def test_every_time_and_frame_equals_scalar_calls(self):
        # rows (rays) of times and of w0, NaN for the generic branch
        ts = np.array([[0.1, 0.4, 0.7], [0.2, 0.5, 0.8]])
        w0s = np.array([[math.nan, 0.2, -0.3], [0.1, math.nan, 0.0]])
        for H in (1.0, -1.0, 0.0):
            got = model_shape_traces(H, 2, w0s, ts)
            assert got.shape == (2, 3, 3)
            for r, t, f in np.ndindex(got.shape):
                w0 = None if math.isnan(w0s[r, f]) else float(w0s[r, f])
                assert got[r, t, f] == model_shape_trace(H, 2, w0, float(ts[r, t]))

    def test_tangential_initial_value(self):
        # w(t) -> w0 as t -> 0 in the tangential branch
        for H in (-1.0, 0.0, 1.0):
            for w0 in (-0.7, 0.0, 1.3):
                assert model_shape_trace(H, 2, w0, 1e-9) / 2.0 == pytest.approx(
                    w0, abs=1e-6)


class TestHkIntegrand:
    def test_s3_great_circle_density(self):
        # direct evaluation oracle: cos(pi/4) * sin(pi/4) = 1/2
        val = hk_integrand(1.0, 3, 1, 0.0, math.pi / 4.0)
        assert val == pytest.approx(0.5, rel=1e-14)

    def test_flat_branch(self):
        assert hk_integrand(0.0, 4, 1, 0.0, 2.0) == pytest.approx(4.0)

    def test_m_zero_kills_first_factor(self):
        for e in (-5.0, 0.0, 3.0):
            assert hk_integrand(0.0, 3, 0, e, 1.7) == pytest.approx(1.7**2)

    @pytest.mark.parametrize("t", [0.5, 1.0])   # sn^2 overflows; sinh(1000) does
    def test_past_the_floats_is_inf(self, t):
        assert hk_integrand(-1e6, 4, 1, 0.0, t) == math.inf


class TestFirstZero:
    def test_flat_inward(self):
        assert first_zero(0.0, 4, 1, -1.0, 5.0) == pytest.approx(1.0, rel=1e-10)
        assert first_zero(0.0, 3, 2, -1.0, 5.0) == pytest.approx(1.0, rel=1e-10)

    def test_spherical_cos_zero(self):
        assert first_zero(1.0, 3, 1, 0.0, 2.0) == pytest.approx(
            math.pi / 2.0, rel=1e-10)

    def test_hyperbolic_no_zero(self):
        assert first_zero(-1.0, 3, 1, 0.0, 3.0) == 3.0

    def test_even_power_touching_zero(self):
        # m = 2: (cos t - 0.5 sin t)^2 sin t touches zero at tan t = 2
        # without changing sign
        z = first_zero(1.0, 4, 2, -0.5, 3.0)
        assert z == pytest.approx(math.atan(2.0), rel=1e-14)
        assert hk_integrand(1.0, 4, 2, -0.5, z - 1e-3) > 0.0
        assert hk_integrand(1.0, 4, 2, -0.5, z + 1e-3) > 0.0

    @given(st.floats(-2.0, 2.0), st.floats(-1.5, 1.5), st.integers(1, 3),
           st.floats(0.5, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_zero_location_and_positivity(self, H, e, m, r):
        n = m + 2
        z = first_zero(H, n, m, e, r)
        assert 0.0 < z <= r
        ts = np.linspace(1e-6, z * (1.0 - 1e-9), 64)
        vals = np.array([hk_integrand(H, n, m, e, t) for t in ts])
        assert np.all(vals > -1e-12)
        if z < r:
            scale = max(1.0, np.max(np.abs(vals)))
            assert abs(hk_integrand(H, n, m, e, z)) <= 1e-10 * scale


class TestSphereVolume:
    def test_known_values(self):
        assert sphere_volume(0) == pytest.approx(2.0, rel=1e-14)
        assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert sphere_volume(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


class TestThm1Constants:
    def test_n4_case(self):
        c = thm1_constants(4, 1, 4.0, 0.0)
        assert c.k == 1
        assert c.alpha == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert c.beta == pytest.approx(0.25, rel=1e-15)
        assert c.delta == pytest.approx(36.0, rel=1e-15)
        assert c.kappa == 0.0

    def test_n5_case(self):
        c = thm1_constants(5, 2, 5.0, 0.0)
        assert c.k == 2
        assert c.alpha == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert c.beta == pytest.approx(0.3, rel=1e-15)
        assert c.delta == pytest.approx(17.0, rel=1e-15)

    def test_delta_carries_lemma52_coefficient(self):
        # (2p - 1)/(p - (n - k)): 7/1 at (4, 1, 4) and 9/2 at (5, 2, 5)
        assert lemma52_coefficient(4, 1, 4.0) == 7.0
        assert lemma52_coefficient(5, 2, 5.0) == 4.5
        c = thm1_constants(4, 1, 6.0, -0.5)
        assert c.delta == 4.0 * 2 + 4.0 * lemma52_coefficient(4, 1, 6.0)

    def test_kappa_negative_curvature(self):
        # mpmath oracle: 36^(2/3) / (4/3)
        c = thm1_constants(4, 1, 4.0, -1.0)
        assert c.kappa == pytest.approx(8.177042667744628, rel=1e-13)

    def test_rejections(self):
        with pytest.raises(ValueError):
            thm1_constants(4, 1, 3.0, 0.0)      # p <= n-k
        with pytest.raises(ValueError):
            thm1_constants(4, 1, 4.0, 0.5)      # H > 0
        with pytest.raises(ValueError):
            thm1_constants(4, 3, 4.0, 0.0)      # m = n-1
        with pytest.raises(ValueError):
            thm1_constants(2, 1, 4.0, 0.0)      # n < 3

    def test_raises_iff_integral_row_unmet(self):
        for n in range(2, 7):
            for m in range(n):
                k = min(m, n - m - 1)
                for p in (1.0, n - k, n - k + 0.5, 2.5, 8.0):
                    for H in (-1e6, -1.0, 0.0, 0.3):
                        reason = unmet_hypothesis("integral", n, m, k, p, H)
                        if reason is None:
                            assert thm1_constants(n, m, p, H).k == k
                        else:
                            with pytest.raises(ValueError) as err:
                                thm1_constants(n, m, p, H)
                            assert str(err.value) == reason

    def test_rows_in_order_with_their_reasons(self):
        assert unmet_hypothesis("integral", 4, 3, 1, 2.0, 1.0) == "needs 0 < m < n-1, got m=3, n=4"
        assert unmet_hypothesis("integral", 4, 1, 2, 2.0, 0.0) == (
            "needs k = min(m, n-m-1) = 1, got 2")
        assert unmet_hypothesis("lemmas", 4, 1, 1, 2.5, 1.0) == "needs p > n-k = 3, got p=2.5"
        assert unmet_hypothesis("focal", 4, 1, 2, 4.0, 0.0) == "needs H > 0, scenario has H = 0.0"
        assert unmet_hypothesis("focal", 4, 1, 2, 4.0, 1.0) == (
            "needs dim Sigma >= k, got m=1, k=2")
        # hk at k = min(m, n-m-1) covers every smaller k, and nothing above it
        assert unmet_hypothesis("hk", 5, 2, 1, 4.0, 1.0) is None
        assert unmet_hypothesis("hk", 4, 2, 3, 4.0, 0.5) == (
            "needs 1 <= k <= min(m, n-m-1) = 1, got k=3")
        assert unmet_hypothesis("hk", 3, 0, 1, 4.0, 0.0) is not None


class TestThm1Bound:
    def test_past_the_floats_is_inf(self):
        c = thm1_constants(4, 1, 4.0, -1e6)
        assert thm1_bound(c, 2.0 * math.pi, 0.0, 0.5) == math.inf

    def test_flat_tube_equality(self):
        c = thm1_constants(4, 1, 4.0, 0.0)
        val = thm1_bound(c, 2.0 * math.pi, 0.0, 0.5)
        assert val == pytest.approx(math.pi**2 / 3.0, rel=1e-12)

    def test_zero_radius(self):
        c = thm1_constants(5, 2, 5.0, -1.0)
        assert thm1_bound(c, 3.0, 0.0, 0.0) == 0.0

    def test_nonzero_deficit_against_mpmath_oracle(self):
        c = thm1_constants(4, 1, 4.0, 0.0)
        val = thm1_bound(c, 2.0 * math.pi, 0.1, 0.5)
        assert val == pytest.approx(881.34148934217673546, rel=1e-13)

    @given(st.integers(4, 7), st.floats(0.1, 3.0), st.floats(0.0, 2.0),
           st.floats(0.1, 2.0), st.floats(-3.0, 0.0))
    @settings(max_examples=120, deadline=None)
    def test_monotonicity(self, n, vol, nu, r, H):
        m = 1
        p = float(n + 1)
        c = thm1_constants(n, m, p, H)
        base = thm1_bound(c, vol, nu, r)
        assert thm1_bound(c, vol * 1.1, nu, r) >= base - 1e-12
        assert thm1_bound(c, vol, nu + 0.1, r) >= base - 1e-12
        assert thm1_bound(c, vol, nu, r * 1.1) >= base - 1e-12
        stronger = thm1_constants(n, m, p, H - 0.5)
        assert thm1_bound(stronger, vol, nu, r) >= base - 1e-12


class TestCheegerDelta:
    def test_flat_inversion(self):
        d = cheeger_delta(4, 1, 4.0, 0.0, v0=1.0, D=1.0, epsilon=0.0)
        assert d == pytest.approx(3.0 / (4.0 * math.pi), rel=1e-9)

    def test_linearity_in_v0(self):
        d1 = cheeger_delta(4, 1, 4.0, 0.0, v0=1.0, D=1.0, epsilon=0.0)
        d2 = cheeger_delta(4, 1, 4.0, 0.0, v0=2.0, D=1.0, epsilon=0.0)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-9)

    def test_infeasible_epsilon(self):
        with pytest.raises(InfeasibleBoundError):
            cheeger_delta(4, 1, 4.0, 0.0, v0=1e-6, D=1.0, epsilon=10.0)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 7))
            m = int(rng.integers(1, n - 1))
            k = min(m, n - m - 1)
            p = n - k + float(rng.uniform(0.5, 3.0))
            H = float(-rng.uniform(0.0, 1.0))
            v0 = float(rng.uniform(0.5, 4.0))
            D = float(rng.uniform(0.5, 2.0))
            eps = float(rng.uniform(0.0, 0.05))
            c = thm1_constants(n, m, p, H)
            try:
                d = cheeger_delta(n, m, p, H, v0, D, eps)
            except InfeasibleBoundError:
                continue
            assert thm1_bound(c, d, eps, D) == pytest.approx(v0, rel=1e-8)


class TestBoundReport:
    def test_pass_fail_rule(self):
        r = BoundReport.from_values("x", measured=1.0, bound=1.0 - 5e-6,
                                    tolerance=1e-5)
        assert r.passed and r.slack == pytest.approx(-5e-6)
        r2 = BoundReport.from_values("x", measured=1.0, bound=1.0 - 2e-5,
                                     tolerance=1e-5)
        assert not r2.passed

    def test_equality_flag_uses_error_estimate(self):
        r = BoundReport.from_values("x", measured=1.0, bound=1.0 + 1e-8,
                                    tolerance=1e-5, error_estimate=1e-8)
        assert r.equality
        r2 = BoundReport.from_values("x", measured=1.0, bound=1.1,
                                     tolerance=1e-5, error_estimate=1e-8)
        assert not r2.equality

    def test_infinite_slack_is_no_equality(self):
        r = BoundReport.from_values("x", measured=1.0, bound=math.inf,
                                    tolerance=1e-5, error_estimate=math.inf)
        assert r.passed and not r.equality
