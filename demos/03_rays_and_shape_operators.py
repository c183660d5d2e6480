"""Normal rays: Jacobi matrices, shape operators, focal times, J/Y factors.

Integrates single rays on three model geometries and compares everything
to the constant-curvature closed forms, then shows how the density
polarizes into the tangential/normal growth factors. A ray is read at
one time or an array of times: ``fields`` (position, velocity, frame, J,
J'), ``density`` (det J) and ``shape_fields`` (S = J' J^-1 with the fields,
refused at t = 0 and at the focal time).
"""

import math

import numpy as np

from tubecomp import manifolds
from tubecomp.manifolds import ambient_tangent_to_chart, axes_with_pole
from tubecomp.submanifolds import great_circle, point, sub_torus
from tubecomp.transport import (
    NormalRay,
    growth_factors,
    integrate_ray,
    split_traces,
    structural_residuals,
)

print("== flat 4-torus, coordinate circle ==")
M = manifolds.flat_torus(4)
sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
sol = integrate_ray(M, sigma, NormalRay(np.array([0.5]), np.eye(4)[2], t_max=2.0))
S, _ = sol.shape_fields(1.3)
print(f"  det J(1.3) = {sol.density(1.3):.9f} (= t^2 = {1.3**2})")
print(f"  S(1.3) diag = {np.round(np.diagonal(S), 9)} (= 0, 1/t, 1/t)")
print(f"  focal time: {sol.focal_time()} (inf: flat rays never focus)")

print("\n== great circle in the unit 3-sphere ==")
M3 = manifolds.sphere(3, axes=axes_with_pole(
    [0.0, 0.0, math.cos(0.196), math.sin(0.196)]))
sigma3 = great_circle(M3)
q = np.array([math.cos(0.7), math.sin(0.7), 0.0, 0.0])
xi = ambient_tangent_to_chart(M3, q, np.array([0.0, 0.0, 1.0, 0.0]))
sol3 = integrate_ray(M3, sigma3, NormalRay(np.array([0.7]), xi, t_max=2.0))
t = math.pi / 4
phi, psi = split_traces(*sol3.fields(t)[3:], sol3.m)
# the J and Y factors integrate phi and psi from t = 1e-8 on a fine grid
ts = np.linspace(1e-8, t, 16385)
_, _, j_t, y_t = growth_factors(ts, *sol3.fields(ts)[3:], sol3.m)
jj, yy = j_t[-1], y_t[-1]
print(f"  A(pi/4) = {sol3.density(t):.9f} (= cos sin = 0.5)")
print(f"  phi, psi = {phi:.6f}, {psi:.6f} (= -tan, cot = -1, 1)")
print(f"  J, Y factors = {jj:.9f}, {yy:.9f} (= cos, sin = "
      f"{math.cos(t):.9f}, {math.sin(t):.9f}); J^m Y^(n-m-1) reproduces A")
print(f"  focal time = {sol3.focal_time():.9f} (= pi/2: the polar circle)")

print("\n== hyperbolic 3-space from a point ==")
Mh = manifolds.hyperbolic(3)
sp = point(Mh, [0.0, 0.0, 1.0])
gh = Mh.metric_at(np.array([0.0, 0.0, 1.0]))
xih = np.array([0.3, -0.2, 0.5])
xih = xih / math.sqrt(xih @ gh @ xih)
solh = integrate_ray(Mh, sp, NormalRay(np.zeros(0), xih, t_max=2.0))
print(f"  tr S(1) = {np.trace(solh.shape_fields(1.0)[0]):.9f} "
      f"(= 2 coth 1 = {2 / math.tanh(1.0):.9f})")
print(f"  det J(1) = {solh.density(1.0):.9f} (= sinh^2 1 = {math.sinh(1.0)**2:.9f})")

print("\n== evolution-law residuals along the hyperbolic ray ==")
res = structural_residuals(solh.batch, [solh.index])
for key, err in res.pop("error").items():
    print(f"  {key:>14}: {res[key]:.3e}  (stencil error {err:.1e})")
