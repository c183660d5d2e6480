"""Chart curvature, the directional operator, and k-Ricci minima.

Builds a few model metrics, checks curvature against space-form closed
forms, and shows the eigenvalue picture behind rho_k on the product of two
round spheres (where rho_2 = 0 but rho_3 = 1): R(., u)u on u-perp has the
eigenvalues 0, sin^2 and cos^2 of u's mixing angle, so the least Ric_k sits
at a factor direction, and rho_k reads it from the factors' own rho_j.
"""

import math

import numpy as np

from tubecomp import manifolds
from tubecomp.geometry import (
    christoffel_at,
    complete_frame,
    curvature_tensor_at,
    frame_curvature,
    lp_deficit_norm,
    rho_k,
    rho_method,
)

print("== Christoffel symbols on familiar charts ==")
M2 = manifolds.sphere_colatitude(2)
G = christoffel_at(M2, np.array([math.pi / 4, 1.0]))
print(f"  round S^2, Gamma^theta_phiphi at theta=pi/4: {G[0, 1, 1]:.9f} "
      f"(= -sin cos = -0.5)")
Mh = manifolds.hyperbolic(2)
Gh = christoffel_at(Mh, np.array([0.3, 2.0]))
print(f"  half-plane, Gamma^x_xy at y=2: {Gh[0, 0, 1]:.9f} (= -1/y = -0.5)")

print("\n== curvature tensor vs the space-form closed form ==")
M3 = manifolds.sphere(3, radius=2.0)
x = np.array([0.2, -0.1, 0.3])
g = M3.metric_at(x)
Rm = curvature_tensor_at(M3, x)
target = 0.25 * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))
print(f"  S^3(radius 2): max |Rm - (1/4)(g.g - g.g)| = "
      f"{np.max(np.abs(Rm - target)):.2e}")

print("\n== directional curvature eigenvalues on S^2 x S^2 ==")
P = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
xp = np.array([0.1, 0.3, -0.2, 0.4])
gp = P.metric_at(xp)
Rp = curvature_tensor_at(P, xp)
for theta in (0.0, math.pi / 6, math.pi / 4):
    u = np.zeros(4)
    u[0] = math.cos(theta) / math.sqrt(gp[0, 0])
    u[2] = math.sin(theta) / math.sqrt(gp[2, 2])
    # R(., u)u on u-perp, in a g-orthonormal frame completing u
    eigs = np.linalg.eigvalsh(frame_curvature(Rp, complete_frame(gp, [u])[1:], u))
    print(f"  mixing angle {theta:.3f}: eigenvalues {np.round(eigs, 6)} "
          f"(expect 0, sin^2, cos^2)")

print("\n== rho_k: minimum of Ric_k over directions and k-planes ==")
for k in (1, 2, 3):
    lo, hi = rho_k(P, [xp], k)
    print(f"  rho_{k}(S^2 x S^2) in [{lo[0]:.2e}, {hi[0]:.2e}] ({rho_method(P, k)})")
print("  (rho_1 = rho_2 = 0: a factor direction with planes in the other factor;"
      " rho_3 = 1: the whole of u-perp takes in the factor's own curvature 1)")

print("\n== L^p deficit norms ==")
M2big = manifolds.sphere_colatitude(2, radius=2.0)
res = lp_deficit_norm(M2big, 1.0, 1.0, lambda X: rho_k(M2big, X, 1).hi,
                     resolution=24)
print(f"  S^2(radius 2), k=1, H=1, p=1: {res.value:.6f} "
      f"(= (3/4) * 16 pi = {12 * math.pi:.6f}), error est {res.error_estimate:.1e}")
Mb = manifolds.bump_torus(3, amplitude=0.1)
res_b = lp_deficit_norm(Mb, -0.05, 3.0, lambda X: rho_k(Mb, X, 1).hi, resolution=10)
print(f"  bump 3-torus, k=1, H=-0.05, p=3: {res_b.value:.6f} "
      f"+- {res_b.error_estimate:.1e} (support-restricted quadrature)")
