"""Scenario checks: equality detection, precondition guards, suite aggregation."""

import dataclasses
import math

import numpy as np
import pytest

from tubecomp import manifolds, verification
from tubecomp.submanifolds import round_sphere, sub_torus
from tubecomp.tubes import QuadratureSpec
from tubecomp.verification import (
    Scenario,
    certify_rho_lower_bound,
    check_focal_radius,
    check_hessian_comparison,
    check_hk_bound,
    check_integral_bound,
    check_lemma_51_52,
    check_structural_residuals,
    run_suite,
)
from tubecomp.scenarios import build_scenario


def fast_flat_scenario(**overrides):
    M = manifolds.flat_torus(4)
    M.volume_validity_radius = math.pi
    sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
    defaults = dict(
        name="fast_flat", manifold=M, sigma=sigma, k=1, H=0.0, p=4.0,
        radii=(0.4,), quad=QuadratureSpec(base_resolution=4, fiber_resolution=2),
        checks=("hk",), check_rays=6)
    defaults.update(overrides)
    return Scenario(**defaults)


@pytest.fixture(scope="module")
def flat_scenario():
    return fast_flat_scenario()


class TestSamplerCache:
    def test_rebuilt_after_quadrature_change(self):
        sc = fast_flat_scenario()
        before = len(sc.sampler(0.5).rays)    # base_resolution 4
        sc.quad = dataclasses.replace(sc.quad, base_resolution=[8])
        assert len(sc.sampler(0.5).rays) == 2 * before
        # reused while nothing changes; a JSON list compares by value
        rebuilt = sc.sampler(0.5)
        sc.quad = dataclasses.replace(sc.quad, base_resolution=[8])
        assert sc.sampler(0.5) is rebuilt

    def test_rebuilt_after_geometry_change(self):
        sc = fast_flat_scenario()
        first = sc.sampler(0.5)
        sc.sigma = sub_torus(sc.manifold, [1], np.array([0.0, 1.0, 2.0, 3.0]))
        assert sc.sampler(0.5).sigma is sc.sigma
        assert sc.sampler(0.5) is not first


class TestCertification:
    def test_flat_nonnegative(self, flat_scenario):
        cert = certify_rho_lower_bound(flat_scenario, 1, 0.0)
        assert cert["ok"]
        assert abs(cert["min_rho_k"]) <= 1e-9
        assert cert["declared_gap"] <= 1e-9

    def test_flat_fails_positive_bound(self, flat_scenario):
        cert = certify_rho_lower_bound(flat_scenario, 1, 0.5)
        assert not cert["ok"]
        assert cert["margin"] == pytest.approx(-0.5, abs=1e-9)

    def test_batched_draws_match_per_point_draws(self, monkeypatch):
        # one (points, n) draw is the same stream as one draw per point
        from tubecomp.geometry import rho_k

        sc = toy_bump_scenario()
        sc.manifold.rho_exact = {1: 0.0}
        M, box = sc.manifold, sc.manifold.domain
        monkeypatch.setattr(verification, "CERTIFY_POINTS", 48)
        cert = certify_rho_lower_bound(sc, 1, -0.1)
        rng = sc.rng()
        vals = [rho_k(M, [box.wrap(rng.uniform(box.lo, box.hi))], 1).lo[0]
                for _ in range(48)]
        assert min(vals) < 0.0 < max(abs(v) for v in vals)
        assert cert["min_rho_k"] == min(vals)
        assert cert["declared_gap"] == max(abs(v - 0.0) for v in vals)
        assert cert["samples"] == 48 and cert["basis"] == "declared"

    def test_method_and_bracket_width(self, flat_scenario, monkeypatch):
        cert = certify_rho_lower_bound(flat_scenario, 1, 0.0)
        assert cert["rho_k_method"] == "conformal" and cert["bracket_width"] == 0.0
        assert cert["basis"] == "declared" and cert["samples"] == verification.CERTIFY_POINTS
        cert = certify_rho_lower_bound(flat_scenario, 2, 0.0)
        assert cert["rho_k_method"] == "conformal" and cert["bracket_width"] == 0.0
        # a declared value on the bump is checked against the evaluated lower end
        sc = build_scenario("bump_torus")
        sc.manifold.rho_exact = {1: -0.3}
        monkeypatch.setattr(verification, "CERTIFY_POINTS", 16)
        cert = certify_rho_lower_bound(sc, 1, -0.1)
        assert cert["rho_k_method"] == "conformal"
        assert 0.0 < cert["bracket_width"] <= 1e-12
        assert cert["min_rho_k"] < 0.0 < cert["declared_gap"]

    def test_undeclared_rho_is_refused(self, monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("an undeclared rho_k is not sampled")

        monkeypatch.setattr(verification, "rho_k", evaluated)
        sc = build_scenario("bump_torus")
        for H in (-0.01, -0.1):
            cert = certify_rho_lower_bound(sc, 1, H)
            assert not cert["ok"] and cert["basis"] is None
            assert cert["rho_k_method"] == "conformal"
            assert "no bound on rho_k between chart points is known" in cert["reason"]

    def test_exact_lower_end_off_the_thorpe_path(self):
        for name, k, method in (("s3_great_circle", 1, "conformal"),
                                ("hyperbolic_point", 2, "conformal"),
                                ("s2xs2_factor", 3, "product")):
            sc = build_scenario(name)
            cert = certify_rho_lower_bound(sc, k, sc.H)
            assert cert["rho_k_method"] == method
            assert 0.0 < cert["bracket_width"] <= 1e-12
            # Rm itself rounds at 1e-12 far out in the stereographic chart
            exact = sc.declared_rho(k)
            assert exact - 1e-10 <= cert["min_rho_k"] <= exact

    def test_reads_the_lower_end(self, monkeypatch):
        from tubecomp.geometry import RhoBracket

        sc = fast_flat_scenario()
        monkeypatch.setattr(verification, "rho_k", lambda M, X, k, **kw: RhoBracket(
            np.full(len(X), -0.25), np.zeros(len(X))))
        cert = certify_rho_lower_bound(sc, 1, 0.0)
        assert cert["min_rho_k"] == -0.25 and not cert["ok"]
        assert cert["bracket_width"] == 0.25


class TestDeclaredRho:
    def test_config_overrides_manifold(self):
        from tubecomp.cli import scenarios_from_config

        (sc,) = scenarios_from_config({
            "manifold": {"name": "product", "a": {"name": "sphere", "n": 2},
                         "b": {"name": "sphere", "n": 2},
                         "rho_exact": {"1": 0.0, "2": 0.0, "3": 1.0}},
            "submanifold": {"name": "point", "location": [0.1, 0.2, 0.0, 0.3]},
            "declared": {"rho_exact": {"1": -0.25}},
        })
        X = np.array([[0.1, 0.2, 0.0, 0.3], [0.4, -0.2, 0.1, 0.0]])
        assert sc.declared_rho(1) == -0.25
        assert np.array_equal(sc.rho(X, 1), [-0.25, -0.25])
        assert np.array_equal(sc.rho(X, 3), [1.0, 1.0])

    def test_undeclared_uses_the_quadrature_grid(self):
        from tubecomp.geometry import rho_k

        sc = toy_bump_scenario()
        X = sc.manifold.extra["center"] + np.array([[0.1, 0.2, -0.3], [0.5, 0.0, 0.2]])
        assert sc.declared_rho(1) is None
        assert np.array_equal(sc.rho(X, 1), rho_k(sc.manifold, X, 1).hi)

    def test_flat_checks_never_evaluate_curvature(self, monkeypatch):
        from tubecomp import geometry, verification

        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("rho_k called on a declared scenario")

        monkeypatch.setattr(verification, "rho_k", refuse)
        monkeypatch.setattr(geometry, "rho_k", refuse)
        sc = build_scenario("flat_t4_circle")
        sc.quad = QuadratureSpec(base_resolution=4, fiber_resolution=2,
                                 chart_resolution=3)
        sc.check_rays = 4
        reports = (verification.CHECK_DISPATCH["integral"](sc)
                   + verification.CHECK_DISPATCH["lemmas"](sc))
        assert calls == []
        assert all(rep.status == "ok" for rep in reports)
        assert {rep.details["rho_k_method"] for rep in reports
                if rep.name.startswith("integral")} == {"declared"}

    def test_declared_tube_norm_reads_no_ray(self, monkeypatch):
        from tubecomp.tubes import TubeSampler

        def refuse(*args, **kwargs):
            raise AssertionError("lp_deficit called with a declared rho_k")

        monkeypatch.setattr(TubeSampler, "lp_deficit", refuse)
        glob, tube = check_integral_bound(fast_flat_scenario(), [0.4])
        assert tube.details["norm_variant"] == "tube" and tube.details["deficit_norm"] == 0.0
        assert glob.passed and tube.passed

    def test_declared_tube_norm_matches_the_ray_integral(self):
        # declared rho_1 = 0 and H = 0.5: the deficit is the constant 0.5
        sc = fast_flat_scenario(H=0.5)
        sampler = sc.sampler(0.4)
        expect = sampler.lp_deficit(0.4, sc.H, sc.p, lambda X: sc.rho(X, 1))
        assert expect > 0.0
        got = sc.tube_deficit_norm(sampler, 0.4, sampler.volume(0.4).value)
        assert got == pytest.approx(expect, rel=1e-12)


class TestHkCheck:
    def test_flat_equality(self, flat_scenario):
        (rep,) = check_hk_bound(flat_scenario, [0.4])
        assert rep.passed and rep.equality
        assert rep.measured == pytest.approx(
            2.0 * math.pi * (4.0 / 3.0) * math.pi * 0.4**3, rel=1e-9)

    def test_violated_precondition_reported(self, flat_scenario):
        bad = fast_flat_scenario(H=0.3)  # flat torus has rho_1 = 0 < k H
        (rep,) = check_hk_bound(bad, [0.4])
        assert rep.status == "precondition-violation"
        assert not rep.passed
        assert "certification" in rep.details


class TestIntegralCheck:
    def test_flat_equality_both_norms(self, flat_scenario):
        reports = check_integral_bound(flat_scenario, [0.4])
        assert len(reports) == 2
        for rep in reports:
            assert rep.passed and rep.equality
            assert rep.details["rho_k_method"] == "declared"
        variants = {rep.details["norm_variant"] for rep in reports}
        assert variants == {"global", "tube"}

    def test_method_and_monte_carlo_z_score(self):
        sc = toy_bump_scenario(radii=(0.4,))
        (glob, tube) = check_integral_bound(sc, sc.radii, monte_carlo_check=True)
        for rep in (glob, tube):
            assert rep.details["rho_k_method"] == "conformal"
            z = (rep.details["mc_volume"] - rep.measured) / rep.details["mc_stderr"]
            assert rep.details["mc_z"] == pytest.approx(z, rel=1e-12)
            assert rep.details["mc_consistent"] == (abs(rep.details["mc_z"]) <= 3.0)

    def test_hypersurface_rejected(self):
        M = manifolds.sphere(3)
        sigma = round_sphere(M, 0.8)
        sc = Scenario(name="bad", manifold=M, sigma=sigma, k=1, H=0.0, p=4.0,
                      radii=(0.3,), quad=QuadratureSpec(base_resolution=4,
                                                        fiber_resolution=2))
        reports = check_integral_bound(sc, [0.3])
        assert len(reports) == 1
        assert reports[0].status == "precondition-violation"

    def test_positive_H_rejected(self, flat_scenario):
        bad = fast_flat_scenario(H=1.0)
        reports = check_integral_bound(bad, [0.4])
        assert reports[0].status == "precondition-violation"

    def test_nonminimal_rejected(self):
        # a circle of nonzero geodesic curvature in the flat torus: dimensions
        # satisfy 0 < m < n-1 but |eta| > 1e-6, so minimality must trip first
        from tubecomp.geometry import Box
        from tubecomp.submanifolds import EmbeddedSubmanifold

        M = manifolds.flat_torus(4)

        def wobbly(s):
            s = np.asarray(s, dtype=float)
            ang = s[..., 0]
            out = np.stack([ang, 1.0 + 0.2 * np.sin(ang),
                            np.full_like(ang, 2.0), np.full_like(ang, 3.0)],
                           axis=-1)
            return out

        def wobbly_jet(s, order):
            ang = np.asarray(s, dtype=float)[..., 0]
            zero = np.zeros_like(ang)
            if order == 1:
                return np.stack([np.ones_like(ang), 0.2 * np.cos(ang), zero, zero],
                                axis=-1)[..., :, None]
            return np.stack([zero, -0.2 * np.sin(ang), zero, zero], axis=-1)[..., None, None, :]

        sigma = EmbeddedSubmanifold(
            dim=1, embedding=wobbly,
            param_domain=Box([0.0], [2.0 * math.pi], (True,)),
            jacobian=lambda s: wobbly_jet(s, 1), hessian=lambda s: wobbly_jet(s, 2),
            name="wobbly_circle")
        sc = Scenario(name="nonminimal", manifold=M, sigma=sigma, k=1, H=0.0,
                      p=4.0, radii=(0.2,),
                      quad=QuadratureSpec(base_resolution=4, fiber_resolution=2))
        rep = check_integral_bound(sc, [0.2])[0]
        assert rep.status == "precondition-violation"
        assert "minimality" in rep.details["reason"]

    def test_failure_stands_only_at_both_bracket_ends(self, monkeypatch):
        # an open bracket: rho_k attains hi, and lo sits 1 below it
        from tubecomp.geometry import RhoBracket, rho_k
        from tubecomp.models import thm1_bound, thm1_constants

        def open_bracket(M, X, k):
            hi = rho_k(M, X, k).hi
            return RhoBracket(hi - 1.0, hi)

        monkeypatch.setattr(verification, "rho_k", open_bracket)
        sc = toy_bump_scenario(radii=(0.4,))
        passing = check_integral_bound(sc, sc.radii)
        assert [rep.details["norm_variant"] for rep in passing] == ["global", "tube"]
        assert all(rep.passed for rep in passing)
        original = verification.TubeSampler.volume

        def integral_at(volume):
            def moved(self, r):
                res = original(self, r)
                res.value = volume
                return res
            monkeypatch.setattr(verification.TubeSampler, "volume", moved)
            return check_integral_bound(sc, sc.radii)

        # past both bounds at hi, inside the global one at lo: refused
        glob, tube = integral_at((1.0 + 1e-3) * max(rep.bound for rep in passing))
        assert glob.status == "precondition-violation"
        assert glob.details["deficit_norm"] == passing[0].details["deficit_norm"]
        assert glob.details["deficit_norm_lo"] > glob.details["deficit_norm"]
        assert "certified lower end" in glob.details["reason"]
        assert tube.status == "ok" and not tube.passed    # only the global norm is rechecked
        # past the global bound at lo as well: the failure stands, at hi
        lo_bound = thm1_bound(thm1_constants(3, 1, sc.p, sc.H), glob.details["vol_sigma"],
                              glob.details["deficit_norm_lo"], 0.4)
        glob, _ = integral_at(2.0 * lo_bound)
        assert glob.status == "ok" and not glob.passed
        assert glob.bound == passing[0].bound


def toy_bump_scenario(radii=(0.3, 0.5)):
    """3-D bump torus around a geodesic circle that misses the bump; evaluated rho."""
    M = manifolds.bump_torus(3, amplitude=0.1, width=1.2)
    sigma = sub_torus(M, [0], np.array([0.0, math.pi - 2.3, math.pi]))
    quad = QuadratureSpec(base_resolution=2, fiber_resolution=2,
                          t_nodes_per_panel=8, chart_resolution=3)
    return Scenario(name="toy_bump", manifold=M, sigma=sigma, k=1, H=-0.1,
                    p=4.0, radii=radii, quad=quad, checks=("integral",))


class TestRadiusIndependentWork:
    """Work that does not depend on the radius runs once per check."""

    def test_integral_check_walks_each_chart_node_once(self, monkeypatch):
        from tubecomp import verification
        from tubecomp.verification import CHECK_DISPATCH

        sc = toy_bump_scenario()
        rows = []
        original = verification.rho_k

        def counted(M, X, k, **kwargs):
            rows.extend(tuple(x) for x in np.asarray(X, dtype=float))
            return original(M, X, k, **kwargs)

        monkeypatch.setattr(verification, "rho_k", counted)
        reports = CHECK_DISPATCH["integral"](sc)
        assert [rep.details["r"] for rep in reports] == [0.3, 0.3, 0.5, 0.5]
        assert all(rep.status == "ok" for rep in reports)
        region = sc.manifold.domain.intersect(sc.manifold.curvature_support)
        fine, _ = region.quadrature_grid(3)      # chart_resolution
        coarse, _ = region.quadrature_grid(2)    # the strictly coarser grid
        nodes = {tuple(x) for x in np.concatenate([fine, coarse])}
        assert len(nodes) == len(fine) + len(coarse) == 35
        node_rows = [x for x in rows if x in nodes]
        assert len(node_rows) == len(nodes)
        assert set(node_rows) == nodes
        # every other row is a radial node of a tube norm, one norm per radius
        per_radius = len(sc.sampler(max(sc.radii)).rays) * sc.quad.t_nodes_per_panel
        assert len(rows) - len(node_rows) == len(sc.radii) * per_radius

    def test_global_norm_recomputed(self):
        from tubecomp.geometry import lp_deficit_norm, rho_k, rho_k_at

        sc = toy_bump_scenario(radii=(0.4,))
        M, k, H, p = sc.manifold, sc.k, sc.H, sc.p
        region = M.domain.intersect(M.curvature_support)
        pts, w = region.quadrature_grid(sc.quad.chart_resolution)
        deficit = np.array([max(H - rho_k_at(M, x, k), 0.0) for x in pts])
        expect = float(np.sum(w * M.sqrt_det_at(pts) * deficit**p)) ** (1.0 / p)
        assert expect > 0.0
        norm = lp_deficit_norm(M, H, p, lambda X: rho_k(M, X, k).hi, resolution=3)
        assert norm.value == pytest.approx(expect, rel=1e-12)
        glob = check_integral_bound(sc, sc.radii)[0]
        assert glob.details["deficit_norm"] == norm.value
        assert "global_norm_inflated" not in glob.details

    def test_hk_check_certifies_once(self, monkeypatch):
        from tubecomp import verification

        sc = fast_flat_scenario(radii=(0.3, 0.4))
        certified = []
        original = verification.certify_rho_lower_bound

        def counted(*args, **kwargs):
            certified.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(verification, "certify_rho_lower_bound", counted)
        reports = verification.CHECK_DISPATCH["hk"](sc)
        assert len(certified) == 1
        assert [rep.constants["r"] for rep in reports] == [0.3, 0.4]
        assert all(rep.passed for rep in reports)


class TestFocalCheck:
    def test_nonpositive_H_is_violation(self, flat_scenario):
        rep = check_focal_radius(flat_scenario)
        assert rep.status == "precondition-violation"

    def test_equator_equality(self):
        sc = build_scenario("sn_equator")
        sc.quad = QuadratureSpec(base_resolution=4, fiber_resolution=2)
        sc.check_rays = 6
        rep = check_focal_radius(sc)
        assert rep.passed and rep.equality
        assert rep.measured == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_hypersurface_lines_drawn_once(self, monkeypatch):
        # the S^0 fiber holds both normals of a line; each line is drawn once
        from tubecomp import transport

        sc = build_scenario("sn_equator")
        integrate_rays = transport.integrate_rays
        batches = []

        def counted_rays(M, sigma, rays, nodes=None):
            batches.append(integrate_rays(M, sigma, rays, nodes))
            return batches[-1]
        monkeypatch.setattr(verification, "integrate_rays", counted_rays)
        rep = check_focal_radius(sc)
        (batch,) = batches
        rays = {(tuple(np.atleast_1d(ray.base_param)), tuple(ray.xi)) for ray in batch.rays}
        assert len(rays) == len(batch.rays) == 2 * rep.details["n_lines"] == 64
        assert rep.passed and rep.equality
        assert abs(rep.measured - math.pi / 2.0) <= 1e-7
        assert abs(rep.details["focal_radius"] - math.pi / 2.0) <= 1e-7

    def test_one_batch_of_sampled_pairs(self, monkeypatch):
        import sys

        from tubecomp import transport, tubes

        sc = build_scenario("sn_equator")
        sc.quad = QuadratureSpec(base_resolution=4)
        integrate_rays, sampler_class = transport.integrate_rays, tubes.TubeSampler
        batches, builds, given = [], [], []

        def counted_rays(M, sigma, rays, nodes=None):
            given.append(nodes)     # the grid's nodes: no node is built again
            batches.append(integrate_rays(M, sigma, rays, nodes))
            return batches[-1]

        def counted_sampler(*args, **kwargs):
            builds.append(args)
            return sampler_class(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if not name.startswith("tubecomp"):
                continue
            if vars(module).get("integrate_rays") is integrate_rays:
                monkeypatch.setattr(module, "integrate_rays", counted_rays)
            if vars(module).get("TubeSampler") is sampler_class:
                monkeypatch.setattr(module, "TubeSampler", counted_sampler)
        rep = check_focal_radius(sc)
        lines = rep.details["n_lines"]
        assert len(batches) == 1 and len(batches[0]) == 2 * lines and not builds
        assert len(given[0]) == 2 * lines
        (batch,) = batches
        pairs = batch.focal_times().reshape(-1, 2).min(axis=1)
        assert rep.measured == max(pairs) and rep.details["focal_radius"] == min(pairs)
        for j, pair in enumerate(pairs):
            alone = [integrate_rays(sc.manifold, sc.sigma, [ray]).focal_times()[0]
                     for ray in batch.rays[2 * j:2 * j + 2]]
            assert pair == min(alone)
            assert np.array_equal(batch.rays[2 * j].xi, -batch.rays[2 * j + 1].xi)


class TestHessianCheck:
    def test_flat_both_branches(self):
        reports = check_hessian_comparison(fast_flat_scenario(check_rays=4))
        names = {rep.name for rep in reports}
        assert names == {"hessian_comparison[tangential]",
                         "hessian_comparison[generic]"}
        for rep in reports:
            assert rep.passed

    def test_false_hypothesis_reported(self):
        # claiming H = 0.5 on the flat torus must be caught by the exact
        # per-sample Ric_k evaluation
        sc = fast_flat_scenario(hessian_H=0.5, checks=("hessian",), check_rays=4)
        reports = check_hessian_comparison(sc)
        assert any(rep.status == "precondition-violation" for rep in reports)


class TestLemmaCheck:
    def test_flat_zero_cases(self):
        reports = check_lemma_51_52(fast_flat_scenario(check_rays=4))
        assert [rep.name for rep in reports] == ["lemma_51", "lemma_52"]
        for rep in reports:
            assert rep.passed
            assert rep.measured <= 1e-9
        assert reports[1].details["jy_second_derivative_residual"] <= 1e-4

    def test_small_p_rejected(self):
        sc = fast_flat_scenario(p=2.5)  # n - k = 3
        reports = check_lemma_51_52(sc)
        assert reports[0].status == "precondition-violation"


class TestResidualCheck:
    def test_flat_passes(self, flat_scenario, monkeypatch):
        monkeypatch.setattr(verification, "RESIDUAL_RAYS", 3)
        rep = check_structural_residuals(flat_scenario)
        assert rep.passed
        assert set(rep.details["residuals"]) == {
            "riccati", "log_density", "wronskian", "density_power",
            "taylor_shape"}


    def test_short_rays_sampled_below_their_horizon(self, monkeypatch):
        # below a usable horizon of 0.3 the nine sample times start at a
        # quarter of it, so a short ray still reports its residuals; these
        # rays stay in the flat part, where the Wronskian can be exactly 0
        from tubecomp.cli import scenarios_from_config

        (sc,) = scenarios_from_config(short_bump_config(0.2))
        monkeypatch.setattr(verification, "RESIDUAL_RAYS", 2)
        rep = check_structural_residuals(sc)
        assert rep.status == "ok" and rep.passed
        for key in ("riccati", "log_density"):
            assert rep.details["residuals"][key] > 0.0

    def test_error_estimate_is_the_largest_stencil_error_ratio(self):
        rep = check_structural_residuals(build_scenario("hyperbolic_point"))
        errors, limits = rep.details["residual_errors"], rep.details["limits"]
        assert rep.error_estimate == max(errors[key] / limits[key] for key in limits)
        assert errors["log_density"] > 0.0 and errors["riccati"] > 0.0
        assert errors["wronskian"] == errors["density_power"] == errors["taylor_shape"] == 0.0
        # the log-density stencil error dominates, well inside the limit
        assert rep.error_estimate == errors["log_density"] / limits["log_density"] < 0.1
        assert not rep.equality

    def test_too_short_rays_are_a_precondition_violation(self, monkeypatch):
        from tubecomp.cli import scenarios_from_config

        (sc,) = scenarios_from_config(short_bump_config(0.004))
        monkeypatch.setattr(verification, "RESIDUAL_RAYS", 2)
        rep = check_structural_residuals(sc)
        assert rep.status == "precondition-violation"
        assert "horizon 0.004" in rep.details["reason"]


def short_bump_config(horizon):
    """The 4-D bump torus around a coordinate circle, rays of the given horizon."""
    return {
        "manifold": {"name": "bump_torus", "n": 4, "amplitude": 0.1, "width": 1.2},
        "submanifold": {"name": "sub_torus", "axes": [0],
                        "offset": [0.0, math.pi - 2.3, math.pi, math.pi]},
        "parameters": {"k": 1, "H": -0.1, "p": 4.0},
        "radii": [horizon],
        "quadrature": {"base_resolution": 2, "fiber_resolution": 2},
        "declared": {"ray_horizon": horizon},
        "checks": ["residuals"],
    }


def curvature_rows(monkeypatch):
    """Rows of every ``_jacobi_batch`` call from here on, wherever it is bound."""
    from tubecomp import geometry, transport, verification

    rows = []
    original = geometry._jacobi_batch

    def counted(M, xs, vs):
        rows.append(len(xs))
        return original(M, xs, vs)
    for module in (geometry, transport, verification):
        monkeypatch.setattr(module, "_jacobi_batch", counted, raising=False)
    return rows


class TestOneReadPerRay:
    """Checks read their sampled rays' times together: the Hessian check all
    its rays in one Jacobi-operator call, the residual check one per ray."""

    def test_hessian_check(self, monkeypatch):
        sc = fast_flat_scenario(check_rays=4)
        sc.sampler(sc.horizon())      # rays integrated before counting
        rows = curvature_rows(monkeypatch)
        check_hessian_comparison(sc)
        assert rows == [32]

    def test_hessian_traces_in_one_read_per_check(self, monkeypatch):
        from tubecomp.models import model_shape_trace
        from tubecomp.transport import partial_trace

        shapes = []

        def counted(S, W):
            shapes.append((np.shape(S), np.shape(W)))
            return partial_trace(S, W)
        monkeypatch.setattr(verification, "partial_trace", counted)
        sc = fast_flat_scenario(check_rays=4)
        reports = check_hessian_comparison(sc)
        # the tangential frames' w0 on every ray, then every (S or curvature
        # matrix, ray, time, frame) of both branches
        assert shapes == [((4, 1, 1), (4, 4, 1, 1)), ((2, 4, 8, 3, 3), (4, 1, 8, 1, 3))]
        for rep in reports:
            worst = rep.details["worst"]
            H = sc.hessian_H if sc.hessian_H is not None else sc.H
            assert worst["model"] == model_shape_trace(H, sc.k, worst["w0"], worst["t"])
            assert rep.details["samples"] == 4 * 8 * 4

    def test_residual_check(self, monkeypatch):
        sc = fast_flat_scenario()
        sc.sampler(sc.horizon())
        rows = curvature_rows(monkeypatch)
        monkeypatch.setattr(verification, "RESIDUAL_RAYS", 3)
        check_structural_residuals(sc)
        assert rows == [9, 9, 9]


class TestRunSuite:
    def test_empty_set(self):
        report = run_suite([])
        assert report.ok
        assert report.entries == []
        assert "0 failures" in report.summary()

    def test_one_violation_entry(self):
        bad = fast_flat_scenario(H=0.3, checks=("hk",))
        report = run_suite([bad])
        assert len(report.precondition_violations) == 1
        assert report.ok  # violations are not bound failures

    def test_failure_detection(self, monkeypatch):
        from tubecomp import verification

        sc = fast_flat_scenario(checks=("hk",))
        original = verification.TubeSampler.volume

        def inflated(self, r):
            res = original(self, r)
            res.value *= 1.1
            return res

        monkeypatch.setattr(verification.TubeSampler, "volume", inflated)
        report = run_suite([sc])
        assert not report.ok
        assert len(report.failures) == 1

    def test_sorted_and_serializable(self):
        import json
        sc_b = fast_flat_scenario(name="bbb")
        sc_a = fast_flat_scenario(name="aaa")
        report = run_suite([sc_b, sc_a])
        names = [name for name, _ in report.entries]
        assert names == sorted(names)
        payload = json.dumps(report.as_dict(), sort_keys=True)
        assert "aaa" in payload
        rows = report.csv_rows()
        assert rows[0][0] == "scenario"
        assert len(rows) == 1 + len(report.entries)
