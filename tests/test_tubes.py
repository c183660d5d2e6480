"""Tube volume, equidistant area, and tube-norm quadrature tests."""

import math
import sys

import numpy as np
import pytest

from tubecomp import manifolds
from tubecomp.geometry import rho_k
from tubecomp.manifolds import axes_with_pole
from tubecomp import submanifolds
from tubecomp.submanifolds import great_circle, point, round_sphere, sub_torus, weingarten
from tubecomp.tubes import (
    QuadratureSpec,
    TubeSampler,
    tube_volume_monte_carlo,
)


@pytest.fixture(scope="module")
def flat_setup():
    M = manifolds.flat_torus(4)
    M.volume_validity_radius = math.pi
    sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
    return M, sigma


@pytest.fixture(scope="module")
def s3_sampler():
    M = manifolds.sphere(3, axes=axes_with_pole(
        [0.0, 0.0, math.cos(0.196), math.sin(0.196)]))
    M.volume_validity_radius = math.pi / 2.0
    sigma = great_circle(M)
    spec = QuadratureSpec(base_resolution=8, fiber_resolution=8)
    return TubeSampler(M, sigma, math.pi / 2.0, spec)


class TestTubeVolume:
    def test_flat_circle_ball_product(self, flat_setup):
        M, sigma = flat_setup
        res = TubeSampler(M, sigma, 0.5, QuadratureSpec(
            base_resolution=6, fiber_resolution=4)).volume(0.5)
        assert res.value == pytest.approx(math.pi**2 / 3.0, rel=1e-10)
        assert res.error_estimate <= 1e-6
        assert not any(res.truncated_at_focal)
        assert not res.validity_exceeded

    def test_zero_radius(self, flat_setup):
        M, sigma = flat_setup
        res = TubeSampler(M, sigma, 0.0, QuadratureSpec(
            base_resolution=4, fiber_resolution=2)).volume(0.0)
        assert res.value == 0.0

    def test_s3_great_circle_equalities(self, s3_sampler):
        v1 = s3_sampler.volume(math.pi / 4.0)
        assert v1.value == pytest.approx(math.pi**2, rel=1e-8)
        v2 = s3_sampler.volume(math.pi / 2.0)
        assert v2.value == pytest.approx(2.0 * math.pi**2, rel=1e-4)

    def test_monotone_in_radius(self, s3_sampler):
        vals = [s3_sampler.volume(r).value for r in (0.2, 0.5, 0.9, 1.3)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_doubling_sigma_doubles_volume(self):
        spec = QuadratureSpec(base_resolution=6, fiber_resolution=4)
        vols = []
        for side in (2.0 * math.pi, 4.0 * math.pi):
            M = manifolds.flat_torus(4, side=side)
            sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
            vols.append(TubeSampler(M, sigma, 0.5, spec).volume(0.5).value)
        assert vols[1] == pytest.approx(2.0 * vols[0], rel=1e-12)

    def test_validity_flag(self, flat_setup):
        M, sigma = flat_setup
        r = math.pi + 0.5
        res = TubeSampler(M, sigma, r, QuadratureSpec(
            base_resolution=4, fiber_resolution=2)).volume(r)
        assert res.validity_exceeded

    def test_ball_in_hyperbolic_space(self):
        # vol B(r) in H^3 = pi (sinh(2r) - 2r)
        M = manifolds.hyperbolic(3)
        sigma = point(M, [0.0, 0.0, 1.0])
        r = 1.2
        res = TubeSampler(M, sigma, r, QuadratureSpec(fiber_resolution=6)).volume(r)
        expect = math.pi * (math.sinh(2.0 * r) - 2.0 * r)
        assert res.value == pytest.approx(expect, rel=1e-7)


class TestEquidistantArea:
    def test_flat_area(self, flat_setup):
        M, sigma = flat_setup
        area = TubeSampler(M, sigma, 0.5, QuadratureSpec(
            base_resolution=6, fiber_resolution=4)).area(0.5)
        assert area == pytest.approx(2.0 * math.pi * 4.0 * math.pi * 0.25, rel=1e-10)

    def test_s3_area(self, s3_sampler):
        t = math.pi / 4.0
        assert s3_sampler.area(t) == pytest.approx(2.0 * math.pi**2, rel=1e-8)

    def test_small_t_density_scaling(self, flat_setup):
        M, sigma = flat_setup
        sampler = TubeSampler(M, sigma, 0.01,
                              QuadratureSpec(base_resolution=6, fiber_resolution=4))
        t = 1e-3
        ratio = sampler.area(t) / t**2
        assert ratio == pytest.approx(2.0 * math.pi * 4.0 * math.pi, rel=1e-3)

    def test_ftc_derivative_matches_area(self, s3_sampler):
        h = 1e-4
        for r in (0.5, 0.9):
            dv = (s3_sampler.volume(r + h).value
                  - s3_sampler.volume(r - h).value) / (2.0 * h)
            assert dv == pytest.approx(s3_sampler.area(r), rel=1e-6)


class TestTubeLpDeficit:
    def test_flat_zero(self, flat_setup):
        M, sigma = flat_setup
        sampler = TubeSampler(M, sigma, 0.5,
                              QuadratureSpec(base_resolution=4, fiber_resolution=2))
        val = sampler.lp_deficit(0.5, 0.0, 4.0, rho=lambda X: np.full(len(X), 0.0))
        assert val == 0.0

    def test_scaled_s3_constant_integrand(self):
        # sec = 1/4 sphere: (rho_1 - 1)_- = 3/4 everywhere, so the norm is
        # (3/4) * V(t)^(1/2) for p = 2
        M = manifolds.sphere(3, radius=2.0, axes=axes_with_pole(
            [0.0, 0.0, math.cos(0.196), math.sin(0.196)]))
        sigma = great_circle(M)
        spec = QuadratureSpec(base_resolution=6, fiber_resolution=6)
        sampler = TubeSampler(M, sigma, 0.6, spec)
        t = 0.6
        vol = sampler.volume(t).value
        norm = sampler.lp_deficit(t, 1.0, 2.0, rho=lambda X: np.full(len(X), 0.25))
        assert norm == pytest.approx(0.75 * math.sqrt(vol), rel=1e-10)

    def test_grid_rho_matches_declared_on_space_form(self):
        M = manifolds.sphere(3, radius=2.0, axes=axes_with_pole(
            [0.0, 0.0, math.cos(0.196), math.sin(0.196)]))
        sigma = great_circle(M)
        spec = QuadratureSpec(base_resolution=4, fiber_resolution=2,
                              t_nodes_per_panel=8)
        sampler = TubeSampler(M, sigma, 0.4, spec)
        declared = sampler.lp_deficit(0.4, 1.0, 2.0, rho=lambda X: np.full(len(X), 0.25))
        computed = sampler.lp_deficit(0.4, 1.0, 2.0, rho=lambda X: rho_k(M, X, 1).hi)
        assert computed == pytest.approx(declared, rel=1e-6)


def count_node_builds(monkeypatch) -> list:
    """Arguments of every ``base_node`` call from here on, wherever it is bound."""
    original = submanifolds.base_node
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("tubecomp") and vars(module).get("base_node") is original:
            monkeypatch.setattr(module, "base_node", counted)
    return calls


class TestBaseNodes:
    """A sampler builds each base node once, and every ray starts from it."""

    @pytest.mark.parametrize("make", [
        lambda: (manifolds.sphere(3), great_circle),
        lambda: (manifolds.hyperbolic(3), lambda M: point(M, [0.0, 0.0, 1.0])),
    ], ids=["great_circle", "point"])
    def test_node_routine_runs_once_per_node(self, monkeypatch, make):
        M, build = make()
        calls = count_node_builds(monkeypatch)
        sampler = TubeSampler(M, build(M), 0.3,
                              QuadratureSpec(base_resolution=4, fiber_resolution=4))
        B, F = len(sampler.grid.base_params), len(sampler.grid.fiber_coeffs)
        assert F > 1 and len(sampler.rays) == B * F
        assert len(calls) == B

    def test_monte_carlo_builds_each_random_node_once(self, monkeypatch):
        M = manifolds.sphere(3)
        calls = count_node_builds(monkeypatch)
        tube_volume_monte_carlo(M, great_circle(M), 0.3, QuadratureSpec(mc_samples=64))
        assert len(calls) == 8      # max(8, 64 // 8) rays, one random node each

    def test_every_ray_starts_from_its_grid_node(self):
        M = manifolds.sphere(3)
        sampler = TubeSampler(M, round_sphere(M, 0.8), 0.3,
                              QuadratureSpec(base_resolution=3))
        F = len(sampler.grid.fiber_coeffs)
        for i, sol in enumerate(sampler.rays):
            b, f = divmod(i, F)
            node = sampler.grid.nodes[b]
            xi = sampler.grid.normals[b, f]
            assert np.array_equal(sol.weingarten0,
                                  weingarten(node.second_fundamental, node.metric, xi))
            assert np.abs(sol.weingarten0).max() > 0.1
            assert np.array_equal(sol.fields(0.0)[0], node.position)


class TestHkBound:
    def test_one_rule_per_distinct_eta_xi(self, monkeypatch):
        from tubecomp import tubes
        from tubecomp.models import first_zero, hk_integrand
        from tubecomp.quadrature import gauss_legendre_panels

        M = manifolds.sphere(3, axes=axes_with_pole(
            [0.0, 0.0, math.cos(0.196), math.sin(0.196)]))
        sampler = TubeSampler(M, great_circle(M), 1.2,
                              QuadratureSpec(base_resolution=4, fiber_resolution=8))
        zeros = []

        def counted(*args):
            zeros.append(args)
            return first_zero(*args)

        monkeypatch.setattr(tubes, "first_zero", counted)
        for H, r in ((1.0, 0.7), (1.0, 1.2), (0.0, 0.5), (-1.0, 1.0)):
            zeros.clear()
            # the per-ray loop: one first zero and one 24-node rule per ray
            expect = 0.0
            for i, w in enumerate(sampler.weights):
                b, f = divmod(i, len(sampler.grid.fiber_coeffs))
                e = sampler.grid.eta_xi[b, f]
                ts, tw = gauss_legendre_panels(0.0, first_zero(H, 3, 1, e, r), 24)
                expect += w * float(tw @ np.array([hk_integrand(H, 3, 1, e, t)
                                                   for t in ts]))
            assert sampler.hk_bound(H, r) == expect
            assert len(zeros) == len(np.unique(sampler.eta_xi)) < len(sampler.rays)


class TestHorizon:
    @pytest.fixture(scope="class")
    def short_sampler(self):
        M = manifolds.sphere(3, axes=axes_with_pole(
            [0.0, 0.0, math.cos(0.196), math.sin(0.196)]))
        spec = QuadratureSpec(base_resolution=4, fiber_resolution=4)
        return TubeSampler(M, great_circle(M), 0.5, spec)

    @pytest.mark.parametrize("evaluate", [
        lambda s: s.volume(0.9),
        lambda s: s.area(0.9),
        lambda s: s.lp_deficit(0.9, 1.0, 4.0, rho=lambda X: np.full(len(X), 0.0)),
    ], ids=["volume", "area", "lp_deficit"])
    def test_beyond_integrated_horizon_rejected(self, short_sampler, evaluate):
        with pytest.raises(ValueError, match="beyond integrated horizon"):
            evaluate(short_sampler)

    def test_at_horizon_accepted(self, short_sampler):
        assert short_sampler.area(0.5) == pytest.approx(
            4.0 * math.pi**2 * math.sin(0.5) * math.cos(0.5), rel=1e-6)


class TestRayFailurePropagation:
    def test_failed_ray_reports_base_and_direction(self):
        from tubecomp.submanifolds import point
        from tubecomp.transport import RayIntegrationError

        M = manifolds.euclidean(3, halfwidth=1.0)
        sigma = point(M, [0.0, 0.0, 0.0])
        with pytest.raises(RayIntegrationError) as err:
            TubeSampler(M, sigma, 5.0, QuadratureSpec(fiber_resolution=2))
        assert "xi=" in str(err.value) and "s=" in str(err.value)
        # exit when some coordinate passes halfwidth + 5% margin: t in
        # [1.05, 1.05 * sqrt(3)] depending on the ray direction
        assert 1.0 <= err.value.t <= 2.0


class TestMonteCarlo:
    def test_flat_within_three_sigma(self, flat_setup):
        M, sigma = flat_setup
        est, se = tube_volume_monte_carlo(
            M, sigma, 0.5, QuadratureSpec(mc_samples=512, seed=3))
        assert abs(est - math.pi**2 / 3.0) <= 3.0 * se

    def test_deterministic_given_seed(self, flat_setup):
        M, sigma = flat_setup
        spec = QuadratureSpec(mc_samples=128, seed=11)
        a = tube_volume_monte_carlo(M, sigma, 0.4, spec)
        b = tube_volume_monte_carlo(M, sigma, 0.4, spec)
        assert a == b
