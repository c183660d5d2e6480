"""Tube volumes by normal-bundle quadrature, against closed-form oracles.

The flat tube is a circle times a 3-ball; the spherical tube around a
great circle fills the whole 3-sphere at r = pi/2; the Monte Carlo
estimator cross-validates the product quadrature.
"""

import math

import numpy as np

from tubecomp import manifolds
from tubecomp.manifolds import axes_with_pole
from tubecomp.submanifolds import great_circle, sub_torus
from tubecomp.tubes import QuadratureSpec, TubeSampler, tube_volume_monte_carlo

print("== flat T^4, coordinate circle ==")
M = manifolds.flat_torus(4)
M.volume_validity_radius = math.pi
sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
flat_sampler = TubeSampler(M, sigma, 0.5,
                           QuadratureSpec(base_resolution=8, fiber_resolution=4))
for r in (0.25, 0.5):
    res = flat_sampler.volume(r)
    oracle = 2.0 * math.pi * (4.0 / 3.0) * math.pi * r**3
    print(f"  V({r}) = {res.value:.9f}  oracle vol(S^1)*vol(B^3) = {oracle:.9f}"
          f"  (error est {res.error_estimate:.1e})")

est, se = tube_volume_monte_carlo(M, sigma, 0.5, QuadratureSpec(mc_samples=1024, seed=1))
print(f"  Monte Carlo cross-check at r=0.5: {est:.4f} +- {se:.4f}")

print("\n== unit S^3, great circle ==")
M3 = manifolds.sphere(3, axes=axes_with_pole(
    [0.0, 0.0, math.cos(math.pi / 16), math.sin(math.pi / 16)]))
M3.volume_validity_radius = math.pi / 2
sigma3 = great_circle(M3)
sampler = TubeSampler(M3, sigma3, math.pi / 2,
                      QuadratureSpec(base_resolution=8, fiber_resolution=8))
for r, oracle in ((math.pi / 4, math.pi**2), (math.pi / 2, 2.0 * math.pi**2)):
    res = sampler.volume(r)
    print(f"  V({r:.4f}) = {res.value:.9f}  oracle 2 pi^2 sin^2 r = {oracle:.9f}"
          f"  ({sum(res.truncated_at_focal)} rays focal-truncated)")
print("  at r = pi/2 the tube exhausts the sphere: vol(S^3) = "
      f"{2 * math.pi**2:.9f}")

print("\n== equidistant areas and the fundamental-theorem check ==")
h = 1e-4
for r in (0.5, 1.0):
    dv = (sampler.volume(r + h).value - sampler.volume(r - h).value) / (2 * h)
    print(f"  dV/dr at r={r}: {dv:.6f}  vs area v(r) = {sampler.area(r):.6f}")
