"""Frames, Weingarten maps, mean curvature, and normal-bundle quadrature."""

import math

import numpy as np
import pytest

from tubecomp import manifolds
from tubecomp.models import sphere_volume
from tubecomp.submanifolds import (
    SUBMANIFOLD_BUILDERS,
    NonNormalVectorError,
    RankDeficiencyError,
    EmbeddedSubmanifold,
    base_node,
    build_submanifold,
    closed_geodesic,
    great_circle,
    point,
    round_sphere,
    sphere_point,
    sub_torus,
    unit_normal_grid,
    weingarten,
)
from tubecomp.scenarios import build_scenario
from tubecomp.geometry import Box
from tubecomp.transport import NormalRay, integrate_ray
from fd import embedding_hessian, embedding_jacobian


def torus4():
    return manifolds.flat_torus(4)


class TestFrames:
    def test_sub_torus_coordinate_splitting(self):
        M = torus4()
        sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
        node = base_node(sigma, M, np.array([0.3]))
        tangent, normal = node.tangent, node.normal
        assert np.allclose(np.abs(tangent), np.eye(4)[:1], atol=1e-12)
        assert np.allclose(np.abs(normal), np.eye(4)[1:], atol=1e-12)

    def test_equator_frames(self):
        M = manifolds.sphere(3)
        sigma = build_submanifold("equator", M)
        g_at = M.metric_at
        for s in ([0.7, 1.1], [2.0, 4.0]):
            node = base_node(sigma, M, np.array(s))
            x = sigma.embed(np.array(s))
            g = g_at(x)
            full = np.vstack([node.tangent, node.normal])
            gram = full @ g @ full.T
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-10

    def test_great_circle_frames(self):
        M = manifolds.sphere(3)
        sigma = great_circle(M)
        node = base_node(sigma, M, np.array([1.2]))
        tangent, normal = node.tangent, node.normal
        assert tangent.shape == (1, 3) and normal.shape == (2, 3)
        x = sigma.embed(np.array([1.2]))
        g = M.metric_at(x)
        full = np.vstack([tangent, normal])
        assert np.max(np.abs(full @ g @ full.T - np.eye(3))) <= 1e-10

    def test_rank_deficiency_error(self):
        M = torus4()

        def degenerate(s):
            s = np.asarray(s, dtype=float)
            out = np.zeros(s.shape[:-1] + (4,))
            return out  # constant map, rank 0

        sigma = EmbeddedSubmanifold(
            dim=1, embedding=degenerate,
            param_domain=Box([0.0], [2.0 * math.pi], (True,)),
            jacobian=lambda s: np.zeros(np.shape(s)[:-1] + (4, 1)),
            hessian=lambda s: np.zeros(np.shape(s)[:-1] + (1, 1, 4)))
        with pytest.raises(RankDeficiencyError):
            base_node(sigma, M, np.array([0.1]))


class TestWeingarten:
    def test_totally_geodesic_sub_torus(self):
        M = torus4()
        sigma = sub_torus(M, [0, 1], np.array([0.0, 0.0, 2.0, 3.0]))
        node = base_node(sigma, M, np.array([0.3, 0.4]))
        S = weingarten(node.second_fundamental, node.metric, node.normal[0])
        assert np.max(np.abs(S)) <= 1e-10

    def test_round_sphere_sign_mandatory(self):
        # outward normal on S^2(a) in R^3 must give S_xi = +(1/a) I and
        # eta = +(1/a) * outward; this pins the global sign convention
        M = manifolds.euclidean(3)
        a = 1.7
        sigma = round_sphere(M, a)
        s = np.array([1.1, 0.6])
        x = sigma.embed(s)
        outward = x / np.linalg.norm(x)
        node = base_node(sigma, M, s)
        S = weingarten(node.second_fundamental, node.metric, outward)
        assert np.allclose(S, (1.0 / a) * np.eye(2), atol=1e-6)
        assert np.max(np.abs(S - S.T)) <= 1e-8
        eta = node.mean_curvature
        assert np.linalg.norm(eta) == pytest.approx(1.0 / a, abs=1e-6)
        assert eta @ outward == pytest.approx(1.0 / a, abs=1e-6)

    def test_equator_totally_geodesic(self):
        M = manifolds.sphere(3)
        sigma = build_submanifold("equator", M)
        s = np.array([0.9, 2.2])
        node = base_node(sigma, M, s)
        S = weingarten(node.second_fundamental, node.metric, node.normal[0])
        assert np.max(np.abs(S)) <= 1e-13

    @pytest.mark.parametrize("name", ["sn_equator", "s3_great_circle"])
    def test_shipped_geodesic_scenarios_at_rounding(self, name):
        # the exact jets leave |S_xi| at rounding on every node of the shipped grid
        sc = build_scenario(name)
        grid = unit_normal_grid(sc.sigma, sc.manifold, sc.quad.base_resolution,
                                sc.quad.fiber_resolution)
        K = np.stack([node.second_fundamental for node in grid.nodes])
        g = np.stack([node.metric for node in grid.nodes])
        assert np.max(np.abs(weingarten(K[:, None], g[:, None], grid.normals))) <= 1e-13

    def test_non_normal_vector_rejected(self):
        M = torus4()
        sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
        for xi in (np.eye(4)[0],            # tangent dir
                   2.0 * np.eye(4)[1]):     # not unit
            with pytest.raises(NonNormalVectorError):
                integrate_ray(M, sigma, NormalRay(np.array([0.3]), xi, t_max=0.5))


class TestMeanCurvature:
    def test_sub_torus_zero(self):
        M = torus4()
        sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
        eta = base_node(sigma, M, np.array([0.5])).mean_curvature
        assert np.max(np.abs(eta)) <= 1e-10

    def test_great_circle_geodesic(self):
        M = manifolds.sphere(3)
        sigma = great_circle(M)
        for s in (0.0, 1.0, 2.5, 4.4):
            eta = base_node(sigma, M, np.array([s])).mean_curvature
            x = sigma.embed(np.array([s]))
            g = M.metric_at(x)
            assert math.sqrt(eta @ g @ eta) <= 1e-13

    def test_point_returns_zero(self):
        M = manifolds.hyperbolic(3)
        sigma = point(M, [0.0, 0.0, 1.0])
        node = base_node(sigma, M, np.zeros(0))
        assert np.allclose(node.mean_curvature, 0.0)
        assert node.tangent.shape == (0, 3) and node.normal.shape == (3, 3)
        assert node.second_fundamental.shape == (0, 0, 3) and node.gram_density == 1.0

    def test_weingarten_trace_consistency(self):
        # <eta, xi> from weingarten traces vs the mean curvature vector
        M = manifolds.sphere(3)
        sigma = round_sphere(M, 0.8)
        rng = np.random.default_rng(4)
        s = np.array([1.2, 0.7])
        x = sigma.embed(s)
        g = M.metric_at(x)
        node = base_node(sigma, M, s)
        normal, eta = node.normal, node.mean_curvature
        for _ in range(5):
            c = rng.standard_normal(1)
            xi = (c[0] * normal[0]) / abs(c[0])
            S = weingarten(node.second_fundamental, node.metric, xi)
            lhs = np.trace(S) / sigma.dim
            assert lhs == pytest.approx(float(eta @ g @ xi), abs=1e-9)

    def test_trace_consistency_random_fibers_codim3(self):
        # curve with nonzero curvature vector in T^4: random unit normals
        M = manifolds.flat_torus(4)

        def wobbly(s):
            s = np.asarray(s, dtype=float)
            ang = s[..., 0]
            return np.stack([ang, 1.0 + 0.3 * np.sin(ang),
                             2.0 + 0.2 * np.cos(2.0 * ang),
                             np.full_like(ang, 3.0)], axis=-1)

        def wobbly_jet(s, order):
            ang = np.asarray(s, dtype=float)[..., 0]
            zero = np.zeros_like(ang)
            if order == 1:
                return np.stack([np.ones_like(ang), 0.3 * np.cos(ang),
                                 -0.4 * np.sin(2.0 * ang), zero], axis=-1)[..., :, None]
            return np.stack([zero, -0.3 * np.sin(ang), -0.8 * np.cos(2.0 * ang),
                             zero], axis=-1)[..., None, None, :]

        sigma = EmbeddedSubmanifold(
            dim=1, embedding=wobbly,
            param_domain=Box([0.0], [2.0 * math.pi], (True,)),
            jacobian=lambda s: wobbly_jet(s, 1), hessian=lambda s: wobbly_jet(s, 2),
            name="wobbly")
        rng = np.random.default_rng(8)
        s = np.array([0.9])
        x = sigma.embed(s)
        g = M.metric_at(x)
        node = base_node(sigma, M, s)
        normal, eta = node.normal, node.mean_curvature
        assert np.linalg.norm(eta) > 1e-3  # genuinely curved
        for _ in range(6):
            c = rng.standard_normal(3)
            c /= np.linalg.norm(c)
            xi = c @ normal
            S = weingarten(node.second_fundamental, node.metric, xi)
            assert np.trace(S) / 1.0 == pytest.approx(float(eta @ g @ xi),
                                                      abs=1e-9)


def tilted_s3():
    return manifolds.sphere(3, axes=manifolds.axes_with_pole([0.2, -0.4, 0.5, 0.7]))


def on(M, build):
    return M, build(M)


def factor_sphere():
    scenario = build_scenario("s2xs2_factor")
    return scenario.manifold, scenario.sigma


POLAR = ([1e-8, 0.0], [math.pi - 1e-8, 2.0 * math.pi], (False, True))
# every submanifold of a stereographic sphere: (build, name, parameter box)
SPHERE_SUBMANIFOLDS = {
    "great_circle": (lambda: on(tilted_s3(), great_circle), "great_circle",
                     ([0.0], [2.0 * math.pi], (True,))),
    "equator": (lambda: on(tilted_s3(), lambda M: build_submanifold("equator", M)),
                "equator", POLAR),
    "geodesic_round_sphere": (lambda: on(manifolds.sphere(3), lambda M: round_sphere(M, 0.8)),
                              "round_sphere_rho0.8", POLAR),
    # the tilted pole lies about 0.04 rad from this sphere
    "geodesic_round_sphere_near_pole": (lambda: on(tilted_s3(), lambda M: round_sphere(M, 0.8)),
                                        "round_sphere_rho0.8", POLAR),
    "sphere_point": (lambda: on(tilted_s3(), lambda M: sphere_point(M, [1.0, 2.0, 0.5, 0.3])),
                     "point", None),
    "s2xs2_factor": (factor_sphere, "factor_sphere", POLAR),
}


# every builder's embedding with its exact jet: SUBMANIFOLD_BUILDERS' entries,
# round_sphere in both ambients, sphere_point and the s2xs2_factor sphere
EMBEDDING_JETS = {
    "point": lambda: on(manifolds.hyperbolic(3), lambda M: point(M, [0.1, -0.2, 1.3])),
    "closed_geodesic": lambda: on(torus4(), lambda M: closed_geodesic(M, axis=1)),
    "sub_torus": lambda: on(manifolds.flat_torus(5),
                            lambda M: sub_torus(M, [0, 3], np.arange(5.0))),
    "equator": lambda: on(tilted_s3(), lambda M: build_submanifold("equator", M)),
    "equator_s2": lambda: on(manifolds.sphere(2, axes=manifolds.axes_with_pole([0.3, -0.5, 0.8])),
                             lambda M: build_submanifold("equator", M)),
    "great_circle": lambda: on(tilted_s3(), lambda M: great_circle(M, plane=(1, 3), phase=0.3)),
    "round_sphere": lambda: on(manifolds.euclidean(3),
                               lambda M: round_sphere(M, 1.7, center=[0.1, -0.2, 0.3])),
    "geodesic_round_sphere": lambda: on(tilted_s3(), lambda M: round_sphere(M, 0.8)),
    "sphere_point": lambda: on(tilted_s3(), lambda M: sphere_point(M, [1.0, 2.0, 0.5, 0.3])),
    "s2xs2_factor": factor_sphere,
}


class TestEmbeddingJets:
    """Each embedding's exact Jacobian and Hessian against central differences of the embedding."""

    def test_every_builder_is_covered(self):
        assert set(SUBMANIFOLD_BUILDERS) <= set(EMBEDDING_JETS)

    @pytest.mark.parametrize("name", sorted(EMBEDDING_JETS))
    def test_jets_match_central_differences(self, name):
        M, sigma = EMBEDDING_JETS[name]()
        m, n = sigma.dim, M.dim
        if m == 0:
            S = np.zeros((1, 0))
        else:
            box = sigma.param_domain
            S = box.lo + np.random.default_rng(5).uniform(0.05, 0.95, (12, m)) * box.widths()
        J, H = sigma.jacobian(S), sigma.hessian(S)
        assert J.shape == (len(S), n, m) and H.shape == (len(S), m, m, n)
        for s, J_s, H_s in zip(S, J, H):
            # a row's jet is its own, up to the rounding of a batched product
            assert np.allclose(sigma.jacobian(s), J_s, rtol=1e-14, atol=1e-14)
            assert np.allclose(sigma.hessian(s), H_s, rtol=1e-14, atol=1e-14)
            assert np.max(np.abs(J_s - embedding_jacobian(sigma, s)), initial=0.0) <= (
                1e-8 * max(1.0, np.max(np.abs(J_s), initial=0.0)))
            assert np.max(np.abs(H_s - embedding_hessian(sigma, s)), initial=0.0) <= (
                1e-7 * max(1.0, np.max(np.abs(H_s), initial=0.0)))


class TestUnitNormalGrid:
    def test_sub_torus_total_weight(self):
        M = torus4()
        sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
        grid = unit_normal_grid(sigma, M, base_resolution=8, fiber_resolution=8)
        expect = 2.0 * math.pi * 4.0 * math.pi
        assert grid.total_weight == pytest.approx(expect, rel=1e-8)
        assert grid.sigma_volume == pytest.approx(2.0 * math.pi, rel=1e-10)
        assert np.sum(grid.fiber_weights) == pytest.approx(
            sphere_volume(2), rel=1e-8)

    def test_point_full_sphere(self):
        M = manifolds.euclidean(3)
        sigma = point(M, [0.0, 0.0, 0.0])
        grid = unit_normal_grid(sigma, M, fiber_resolution=8)
        assert grid.total_weight == pytest.approx(4.0 * math.pi, rel=1e-8)

    def test_hypersurface_two_point_fiber(self):
        M = manifolds.sphere(3)
        sigma = build_submanifold("equator", M)
        grid = unit_normal_grid(sigma, M, base_resolution=12, fiber_resolution=8)
        assert len(grid.fiber_coeffs) == 2
        # equator of the unit S^3 is a unit S^2 of area 4 pi
        assert grid.sigma_volume == pytest.approx(4.0 * math.pi, rel=1e-6)
        assert grid.total_weight == pytest.approx(8.0 * math.pi, rel=1e-6)

    @pytest.mark.parametrize("name", sorted(SPHERE_SUBMANIFOLDS))
    def test_frames_orthonormal_at_nodes(self, name):
        build, expect_name, expect_box = SPHERE_SUBMANIFOLDS[name]
        M, sigma = build()
        assert sigma.name == expect_name
        if expect_box is None:
            assert sigma.param_domain is None
        else:
            box = sigma.param_domain
            assert (box.lo.tolist(), box.hi.tolist(), box.periodic) == expect_box
        grid = unit_normal_grid(sigma, M, base_resolution=6, fiber_resolution=4)
        for node in grid.nodes:
            g = M.metric_at(node.position)
            full = np.vstack([node.tangent, node.normal])
            assert np.max(np.abs(full @ g @ full.T - np.eye(M.dim))) <= 1e-13

    def test_eta_dot_xi_matches_weingarten_trace(self):
        M = manifolds.sphere(3)
        sigma = round_sphere(M, 0.8)
        grid = unit_normal_grid(sigma, M, base_resolution=6, fiber_resolution=4)
        for b in (0, 3):
            node = grid.nodes[b]
            for f in range(len(grid.fiber_coeffs)):
                S = weingarten(node.second_fundamental, node.metric, grid.normals[b, f])
                assert np.trace(S) / sigma.dim == pytest.approx(
                    grid.eta_xi[b, f], abs=1e-9)

    def test_great_circle_volume(self):
        M = manifolds.sphere(3, radius=1.0)
        sigma = great_circle(M)
        grid = unit_normal_grid(sigma, M, base_resolution=16, fiber_resolution=8)
        assert grid.sigma_volume == pytest.approx(2.0 * math.pi, rel=1e-9)
