"""Built-in verification scenarios and the named suites.

Sphere scenarios park the stereographic projection point away from every
quadrature ray (between fiber angles, off the submanifold), so no ray
ever approaches the chart's missing point.
"""

from __future__ import annotations

import math

import numpy as np

from . import manifolds
from .manifolds import axes_with_pole
from .submanifolds import (
    POLAR_BOX,
    EmbeddedSubmanifold,
    build_submanifold,
    great_circle,
    point,
    polar_jet,
    round_sphere,
    sub_torus,
)
from .tubes import QuadratureSpec
from .verification import Scenario

__all__ = ["SCENARIO_BUILDERS", "SUITES", "build_scenario", "build_suite"]

_TORUS_SIDE = 2.0 * math.pi


def flat_t4_circle() -> Scenario:
    M = manifolds.flat_torus(4, side=_TORUS_SIDE)
    M.volume_validity_radius = _TORUS_SIDE / 2.0
    sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
    return Scenario(
        name="flat_t4_circle", manifold=M, sigma=sigma, k=1, H=0.0, p=4.0,
        radii=(0.25, 0.5), quad=QuadratureSpec(base_resolution=8, fiber_resolution=4),
        checks=("integral", "hk", "hessian", "lemmas", "residuals"), check_rays=64,
        description="coordinate circle in the flat 4-torus; all equality cases")


def flat_t5_torus2() -> Scenario:
    M = manifolds.flat_torus(5, side=_TORUS_SIDE)
    M.volume_validity_radius = _TORUS_SIDE / 2.0
    sigma = sub_torus(M, [0, 1], np.array([0.0, 0.0, 1.0, 2.0, 3.0]))
    return Scenario(
        name="flat_t5_torus2", manifold=M, sigma=sigma, k=2, H=0.0, p=4.0,
        radii=(0.4,), quad=QuadratureSpec(base_resolution=6, fiber_resolution=4),
        checks=("integral", "hk", "residuals"),
        description="coordinate 2-torus in the flat 5-torus (k = m = 2)")


def s3_great_circle() -> Scenario:
    # projection point on the polar circle, between the 16 fiber angles
    pole = [0.0, 0.0, math.cos(math.pi / 16.0), math.sin(math.pi / 16.0)]
    M = manifolds.sphere(3, axes=axes_with_pole(pole))
    M.volume_validity_radius = math.pi / 2.0
    sigma = great_circle(M)
    return Scenario(
        name="s3_great_circle", manifold=M, sigma=sigma, k=1, H=1.0, p=4.0,
        radii=(math.pi / 4.0, math.pi / 2.0),
        quad=QuadratureSpec(base_resolution=8, fiber_resolution=8),
        checks=("hk", "hessian", "lemmas", "residuals"), check_rays=64,
        description="great circle in the unit 3-sphere; space-form equality")


def sn_equator() -> Scenario:
    pole = [math.cos(0.4) * math.cos(0.55), math.cos(0.4) * math.sin(0.55),
            0.0, math.sin(0.4)]
    M = manifolds.sphere(3, axes=axes_with_pole(pole))
    M.volume_validity_radius = math.pi / 2.0
    sigma = build_submanifold("equator", M)
    return Scenario(
        name="sn_equator", manifold=M, sigma=sigma, k=1, H=1.0, p=4.0,
        radii=(1.0,), quad=QuadratureSpec(base_resolution=6, fiber_resolution=4),
        checks=("focal", "hessian", "residuals"), ray_horizon=1.2,
        description="equatorial 2-sphere in S^3; focal radius equality pi/2")


def s3_small_sphere() -> Scenario:
    pole_dir = np.array([math.sin(1.17) * math.cos(0.61),
                         math.sin(1.17) * math.sin(0.61),
                         math.cos(1.17)])
    pole = np.concatenate([math.cos(0.31) * pole_dir, [math.sin(0.31)]])
    M = manifolds.sphere(3, axes=axes_with_pole(pole))
    sigma = round_sphere(M, 0.8)
    return Scenario(
        name="s3_small_sphere", manifold=M, sigma=sigma, k=1, H=1.0, p=4.0,
        radii=(0.6,), quad=QuadratureSpec(base_resolution=6, fiber_resolution=4),
        checks=("focal", "residuals"), ray_horizon=0.5,
        description="distance sphere of radius 0.8 in S^3; focal strictly inside")


def s2xs2_factor() -> Scenario:
    Ma = manifolds.sphere(2)
    Mb = manifolds.sphere(2)
    M = manifolds.product(Ma, Mb)
    M.volume_validity_radius = 0.5
    c0 = manifolds.sphere_to_chart(Ma, np.array([1.0, 0.0, 0.0]))

    def jet(s):
        y, J, H = manifolds.ambient_jet_to_chart(Mb, *polar_jet(s))
        lead = y.shape[:-1]
        return (np.concatenate([np.broadcast_to(c0, lead + (2,)), y], axis=-1),
                np.concatenate([np.zeros(lead + (2, 2)), J], axis=-2),
                np.concatenate([np.zeros(lead + (2, 2, 2)), H], axis=-1))

    def normal_frame(_s, x, g, _tangent):
        # normal space is the first factor's tangent plane; its coordinate
        # directions are g-orthogonal under the conformal factor metric
        e0 = np.zeros(4)
        e0[0] = 1.0 / math.sqrt(g[0, 0])
        e1 = np.zeros(4)
        e1[1] = 1.0 / math.sqrt(g[1, 1])
        return np.stack([e0, e1])

    sigma = EmbeddedSubmanifold.from_jet(2, jet, POLAR_BOX, name="factor_sphere",
                                         normal_frame_fn=normal_frame)
    return Scenario(
        name="s2xs2_factor", manifold=M, sigma=sigma, k=1, H=0.0, p=4.0,
        radii=(0.4,), quad=QuadratureSpec(base_resolution=6, fiber_resolution=8),
        checks=("hk", "residuals"),
        description="factor 2-sphere in S^2 x S^2 (k=1, H=0); strict slack")


def hyperbolic_point() -> Scenario:
    M = manifolds.hyperbolic(3)
    sigma = point(M, [0.0, 0.0, 1.0])
    return Scenario(
        name="hyperbolic_point", manifold=M, sigma=sigma, k=2, H=-1.0, p=4.0,
        radii=(2.0,), quad=QuadratureSpec(base_resolution=1, fiber_resolution=6),
        checks=("hessian", "residuals"), ray_horizon=2.1,
        description="distance from a point in hyperbolic 3-space; "
                    "Laplacian comparison equality 2 coth(t)")


def _bump_scenario(name: str, amplitude: float, p: float) -> Scenario:
    M = manifolds.bump_torus(4, side=_TORUS_SIDE, amplitude=amplitude,
                             center=np.full(4, math.pi), width=1.2)
    M.volume_validity_radius = _TORUS_SIDE / 2.0
    offset = np.array([0.0, math.pi - 2.3, math.pi, math.pi])
    sigma = sub_torus(M, [0], offset)
    sigma.name = "bump_circle"
    return Scenario(
        name=name, manifold=M, sigma=sigma, k=1, H=-0.1, p=p,
        radii=(2.0,), quad=QuadratureSpec(base_resolution=10, fiber_resolution=4,
                                          chart_resolution=8),
        checks=("integral_mc", "lemmas", "hessian", "residuals"),
        hessian_H=-0.6, ray_horizon=2.0, check_rays=64,
        description=f"conformal bump torus (eps={amplitude:g}, p={p:g}); "
                    "rays cross the curvature region, Sigma stays flat")


def bump_torus() -> Scenario:
    return _bump_scenario("bump_torus", 0.1, 4.0)


def bump_torus_eps05() -> Scenario:
    return _bump_scenario("bump_torus_eps05", 0.05, 6.0)


SCENARIO_BUILDERS = {builder.__name__: builder for builder in (
    flat_t4_circle, flat_t5_torus2, s3_great_circle, sn_equator, s3_small_sphere,
    s2xs2_factor, hyperbolic_point, bump_torus, bump_torus_eps05)}

SUITES = {
    "spaceforms": ("flat_t4_circle", "flat_t5_torus2", "s3_great_circle",
                   "sn_equator", "s3_small_sphere", "hyperbolic_point"),
    "products": ("s2xs2_factor",),
    "bumps": ("bump_torus", "bump_torus_eps05"),
    "all": tuple(SCENARIO_BUILDERS),
}


def build_scenario(name: str) -> Scenario:
    if name not in SCENARIO_BUILDERS:
        raise KeyError(f"unknown scenario '{name}'; known: {sorted(SCENARIO_BUILDERS)}")
    return SCENARIO_BUILDERS[name]()


def build_suite(name: str) -> list[Scenario]:
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}'; known: {sorted(SUITES)}")
    return [build_scenario(s) for s in SUITES[name]]
