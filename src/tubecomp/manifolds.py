"""Built-in chart manifolds: space forms, tori, products, warped and bump metrics.

All metric callables are vectorized over leading batch axes, and every
chart gives its exact metric gradient and Hessian. Every conformally flat
chart (flat tori, stereographic spheres, the upper half-space and the
conformal bump) is g = phi * I, built by ``_conformal`` from one 2-jet of
phi. The chart keeps that jet as ``conformal_jet``, from which the ray
kernel ``geometry._jacobi_batch`` reads its Jacobi data in closed form; the
metric, gradient and Hessian callbacks, which the full curvature tensor
reads, share one memoized evaluation of it.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Box, ChartManifold, complete_euclidean

__all__ = [
    "euclidean",
    "flat_torus",
    "sphere",
    "sphere_colatitude",
    "hyperbolic",
    "product",
    "warped_product",
    "bump_torus",
    "axes_with_pole",
    "sphere_to_chart",
    "ambient_jet_to_chart",
    "MANIFOLD_BUILDERS",
]


def _conformal(n, jet):
    """``ChartManifold`` fields of g = phi * I from the 2-jet (phi, d_k phi, d_k d_l phi).

    ``jet`` maps rows x (..., n) to arrays (...), (..., n) and (..., n, n).
    It is handed to the chart as ``conformal_jet`` as it is, and the ray
    kernel (``geometry._jacobi_batch``) calls it once per batch. The metric,
    grad and hess callbacks serve ``_connection_batch`` and
    ``_curvature_batch``, which read all three on the same rows, so they
    keep the last rows' jet, keyed on their shape and bytes.
    """
    eye = np.eye(n)
    memo = {}

    def shared(x):
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        if memo.get("key") != key:
            memo["key"], memo["jet"] = key, jet(x)
        return memo["jet"]

    def metric(x):
        return shared(x)[0][..., None, None] * eye

    def grad(x):
        return shared(x)[1][..., :, None, None] * eye

    def hess(x):
        return shared(x)[2][..., :, :, None, None] * eye

    return {"dim": n, "metric": metric, "metric_grad": grad, "metric_hess": hess,
            "conformal_jet": jet}


def _flat_jet(x):
    # broadcast views: the kept jet of a flat chart allocates nothing per row
    return (np.broadcast_to(1.0, x.shape[:-1]), np.broadcast_to(0.0, x.shape),
            np.broadcast_to(0.0, x.shape + x.shape[-1:]))


def euclidean(n: int, halfwidth: float = 6.0) -> ChartManifold:
    """Flat R^n on an open box chart."""
    domain = Box(-halfwidth * np.ones(n), halfwidth * np.ones(n), (False,) * n)
    return ChartManifold(**_conformal(n, _flat_jet), domain=domain, name=f"euclidean{n}",
                         rho_exact={k: 0.0 for k in range(1, n)})


def flat_torus(n: int, side: float = 2.0 * math.pi) -> ChartManifold:
    """Flat torus with all periods equal to ``side``."""
    domain = Box(np.zeros(n), side * np.ones(n), (True,) * n)
    return ChartManifold(**_conformal(n, _flat_jet), domain=domain, name=f"flat_torus{n}",
                         rho_exact={k: 0.0 for k in range(1, n)})


def axes_with_pole(pole: np.ndarray) -> np.ndarray:
    """Orthonormal axes matrix whose last row is the given unit direction.

    Used to park a stereographic projection point away from every
    quadrature ray of a scenario.
    """
    pole = np.asarray(pole, dtype=float)
    return np.roll(complete_euclidean(pole / np.linalg.norm(pole)), -1, axis=0)


def sphere(n: int, radius: float = 1.0, axes: np.ndarray | None = None,
           halfwidth: float = 64.0) -> ChartManifold:
    """Round S^n in a stereographic chart: g = 4 R^2 / (1+|y|^2)^2 * I.

    The chart omits a single projection point; ``axes`` is an orthonormal
    (n+1)x(n+1) matrix whose last row is that point's direction, letting
    scenarios park it away from every quadrature ray. Christoffel symbols
    are bounded on the whole chart.
    """
    axes = np.eye(n + 1) if axes is None else np.asarray(axes, dtype=float)
    if axes.shape != (n + 1, n + 1) or np.max(np.abs(axes @ axes.T - np.eye(n + 1))) > 1e-10:
        raise ValueError(f"sphere axes must be an orthonormal {n + 1}x{n + 1} matrix")
    R2 = radius * radius
    eye = np.eye(n)

    def jet(x):
        u = 1.0 + np.sum(x * x, axis=-1)
        return (4.0 * R2 / u**2, -16.0 * R2 * x / (u**3)[..., None],
                -16.0 * R2 * eye * (u**-3)[..., None, None]
                + 96.0 * R2 * (x[..., :, None] * x[..., None, :]) * (u**-4)[..., None, None])

    domain = Box(-halfwidth * np.ones(n), halfwidth * np.ones(n), (False,) * n)
    return ChartManifold(**_conformal(n, jet), domain=domain, name=f"sphere{n}_r{radius:g}",
                         rho_exact={k: k / R2 for k in range(1, n)},
                         extra={"kind": "sphere", "radius": radius, "axes": axes})


def sphere_to_chart(M: ChartManifold, q: np.ndarray) -> np.ndarray:
    """Ambient R^(n+1) point on the round sphere -> stereographic coordinates."""
    radius = M.extra["radius"]
    axes = M.extra["axes"]
    q = np.asarray(q, dtype=float) / radius
    comps = q @ axes.T
    denom = 1.0 - comps[..., -1]
    return comps[..., :-1] / denom[..., None]


def ambient_tangent_to_chart(M: ChartManifold, q: np.ndarray,
                             w: np.ndarray) -> np.ndarray:
    """Push an ambient vector at a point of the round sphere into chart components.

    q is the ambient point (|q| = R) and w any ambient vector; the result is
    the stereographic map's differential at q applied to w. The chart metric
    is the pullback metric, so for a tangent w (<q, w> = 0) the g-norm of the
    result equals the ambient norm of w exactly.
    """
    radius = M.extra["radius"]
    axes = M.extra["axes"]
    c = (np.asarray(q, dtype=float) / radius) @ axes.T
    cw = (np.asarray(w, dtype=float) / radius) @ axes.T
    denom = 1.0 - c[..., -1]
    return (cw[..., :-1] * denom[..., None]
            + c[..., :-1] * cw[..., -1:]) / (denom**2)[..., None]


def ambient_jet_to_chart(M: ChartManifold, q: np.ndarray, dq: np.ndarray,
                         d2q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chart 2-jet (y, J, H) of a parametrized piece of the round sphere.

    q (..., n+1) are ambient points (|q| = R) and dq (..., n+1, m), d2q
    (..., m, m, n+1) their first and second parameter derivatives. On
    c = axes q / R the chart map is y = c' / d with d = 1 - c_n (c' the
    first n entries), so J = Dy q' (``ambient_tangent_to_chart`` per column)
    and H_ab = Dy q''_ab + D^2y[q'_a, q'_b], where, on u = axes q'_a / R and
    w = axes q'_b / R, D^2y = (u' w_n + w' u_n) / d^2 + 2 c' u_n w_n / d^3.
    """
    q = np.asarray(q, dtype=float)
    rows = np.swapaxes(np.asarray(dq, dtype=float), -1, -2)          # (..., m, n+1)
    c = (q / M.extra["radius"]) @ M.extra["axes"].T
    u = (rows / M.extra["radius"]) @ M.extra["axes"].T
    d = (1.0 - c[..., -1])[..., None, None, None]
    un = u[..., :, None, -1:] * u[..., None, :, -1:]                  # (..., m, m, 1)
    H = (ambient_tangent_to_chart(M, q[..., None, None, :], d2q)
         + (u[..., :, None, :-1] * u[..., None, :, -1:]
            + u[..., None, :, :-1] * u[..., :, None, -1:]) / d**2
         + 2.0 * c[..., None, None, :-1] * un / d**3)
    return (sphere_to_chart(M, q),
            np.swapaxes(ambient_tangent_to_chart(M, q[..., None, :], rows), -1, -2), H)


def sphere_colatitude(n: int, radius: float = 1.0) -> ChartManifold:
    """Round S^n in hyperspherical angles; good for chart-box integrals.

    Coordinates (t_1, ..., t_{n-1}, phi) with metric
    diag(R^2, R^2 sin^2 t_1, ..., R^2 prod sin^2 t_j). Degenerate at the
    poles, so only interior quadrature uses this chart.
    """
    R2 = radius * radius
    idx = np.arange(n)
    below = np.triu(np.ones((n, n)), 1)   # below[k, i] = 1 where t_k enters g_ii

    def diagonal(d):   # (..., i) -> (..., i, i)
        out = np.zeros(d.shape + d.shape[-1:])
        out[..., idx, idx] = d
        return out

    def g_ii(x):
        x = np.asarray(x, dtype=float)
        return R2 * np.concatenate([np.ones(x.shape[:-1] + (1,)),
                                    np.cumprod(np.sin(x[..., :n - 1]) ** 2, axis=-1)], axis=-1)

    def log_jet(x):
        """d_k log g_ii = 2 cot t_k and d_k d_l log g_ii = -2 csc^2 t_k delta_kl (k < i)."""
        t = np.asarray(x, dtype=float)[..., :n - 1]
        pad = np.zeros(t.shape[:-1] + (1,))
        d1 = np.concatenate([2.0 / np.tan(t), pad], axis=-1)[..., :, None] * below
        d2 = np.concatenate([-2.0 / np.sin(t) ** 2, pad], axis=-1)[..., :, None] * below
        return d1, d2[..., :, None, :] * np.eye(n)[:, :, None]

    def metric(x):
        return diagonal(g_ii(x))

    def grad(x):
        return diagonal(g_ii(x)[..., None, :] * log_jet(x)[0])

    def hess(x):
        d1, d2 = log_jet(x)
        return diagonal(g_ii(x)[..., None, None, :]
                        * (d1[..., :, None, :] * d1[..., None, :, :] + d2))

    lo = np.concatenate([np.full(n - 1, 1e-8), [0.0]])
    hi = np.concatenate([np.full(n - 1, math.pi - 1e-8), [2.0 * math.pi]])
    periodic = tuple([False] * (n - 1) + [True])
    return ChartManifold(dim=n, metric=metric, domain=Box(lo, hi, periodic),
                         metric_grad=grad, metric_hess=hess,
                         name=f"sphere{n}_colat_r{radius:g}",
                         rho_exact={k: k / R2 for k in range(1, n)},
                         extra={"kind": "sphere_colatitude", "radius": radius})


def hyperbolic(n: int, z_range: tuple[float, float] = (0.02, 20.0),
               halfwidth: float = 8.0) -> ChartManifold:
    """Hyperbolic space (curvature -1) in the upper half-space chart: g = z^-2 * I."""

    def jet(x):
        z = x[..., -1]
        dphi = np.zeros(x.shape)
        dphi[..., n - 1] = -2.0 * z**-3.0
        d2phi = np.zeros(x.shape + (n,))
        d2phi[..., n - 1, n - 1] = 6.0 * z**-4.0
        return z**-2.0, dphi, d2phi

    lo = np.concatenate([-halfwidth * np.ones(n - 1), [z_range[0]]])
    hi = np.concatenate([halfwidth * np.ones(n - 1), [z_range[1]]])
    return ChartManifold(**_conformal(n, jet), domain=Box(lo, hi, (False,) * n),
                         name=f"hyperbolic{n}",
                         rho_exact={k: -float(k) for k in range(1, n)})


def product(Ma: ChartManifold, Mb: ChartManifold,
            rho_exact: dict[int, float] | None = None) -> ChartManifold:
    """Riemannian product on the concatenated chart."""
    na, nb = Ma.dim, Mb.dim
    n = na + nb

    def metric(x):
        x = np.asarray(x, dtype=float)
        ga = Ma.metric_at(x[..., :na])
        gb = Mb.metric_at(x[..., na:])
        out = np.zeros(x.shape[:-1] + (n, n))
        out[..., :na, :na] = ga
        out[..., na:, na:] = gb
        return out

    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (n, n, n))
        out[..., :na, :na, :na] = Ma.metric_grad(x[..., :na])
        out[..., na:, na:, na:] = Mb.metric_grad(x[..., na:])
        return out

    def hess(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (n, n, n, n))
        out[..., :na, :na, :na, :na] = Ma.metric_hess(x[..., :na])
        out[..., na:, na:, na:, na:] = Mb.metric_hess(x[..., na:])
        return out

    domain = Box(np.concatenate([Ma.domain.lo, Mb.domain.lo]),
                 np.concatenate([Ma.domain.hi, Mb.domain.hi]),
                 Ma.domain.periodic + Mb.domain.periodic)
    return ChartManifold(dim=n, metric=metric, domain=domain, metric_grad=grad,
                         metric_hess=hess, name=f"{Ma.name}_x_{Mb.name}",
                         rho_exact=rho_exact,
                         extra={"kind": "product", "factors": (Ma, Mb)})


def warped_product(fiber_dim: int, warp, dwarp, d2warp,
                   base_interval: tuple[float, float] = (-2.0, 2.0),
                   fiber_side: float = 2.0 * math.pi) -> ChartManifold:
    """Warped product over an interval: g = dt^2 + warp(t)^2 * flat fiber torus.

    ``dwarp`` and ``d2warp`` are the warp's first and second derivatives.
    """
    n = 1 + fiber_dim

    def metric(x):
        x = np.asarray(x, dtype=float)
        w = np.asarray(warp(x[..., 0]), dtype=float)
        out = np.zeros(x.shape[:-1] + (n, n))
        out[..., 0, 0] = 1.0
        for i in range(1, n):
            out[..., i, i] = w * w
        return out

    def grad(x):
        x = np.asarray(x, dtype=float)
        t = x[..., 0]
        w = np.asarray(warp(t), dtype=float)
        dw = np.asarray(dwarp(t), dtype=float)
        out = np.zeros(x.shape[:-1] + (n, n, n))
        for i in range(1, n):
            out[..., 0, i, i] = 2.0 * w * dw
        return out

    def hess(x):
        x = np.asarray(x, dtype=float)
        t = x[..., 0]
        w = np.asarray(warp(t), dtype=float)
        dw = np.asarray(dwarp(t), dtype=float)
        d2w = np.asarray(d2warp(t), dtype=float)
        out = np.zeros(x.shape[:-1] + (n, n, n, n))
        for i in range(1, n):
            out[..., 0, 0, i, i] = 2.0 * (dw * dw + w * d2w)
        return out

    lo = np.concatenate([[base_interval[0]], np.zeros(fiber_dim)])
    hi = np.concatenate([[base_interval[1]], fiber_side * np.ones(fiber_dim)])
    periodic = tuple([False] + [True] * fiber_dim)
    return ChartManifold(dim=n, metric=metric, domain=Box(lo, hi, periodic),
                         metric_grad=grad, metric_hess=hess,
                         name=f"warped{n}")


def _mollifier(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact bump b(s) = (1-s^2)^5 on |s|<1 with b, b', b''.

    Polynomial profile rather than exp(-1/(1-s^2)): the latter's
    derivative spikes near |s|=1 concentrate curvature in thin shells
    that desk-scale quadrature cannot resolve; this one keeps curvature
    spread over the support (metric is C^4 across the boundary).
    """
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    q = np.where(inside, 1.0 - s * s, 0.0)
    b = q**5
    db = np.where(inside, -10.0 * s * q**4, 0.0)
    d2b = np.where(inside, -10.0 * q**4 + 80.0 * s * s * q**3, 0.0)
    return b, db, d2b


def _bump_jet(b, db, d2b, amplitude):
    """(f, d_k f, d_k d_l f) of f = amplitude * prod_i b_i, one factor per axis.

    b, db and d2b (..., n) hold each factor and its first two derivatives.
    One masked product gives every partial product at once: ``rest[..., k,
    l]`` leaves out the factors k and l (only k on the diagonal).
    """
    n = b.shape[-1]
    eye = np.eye(n, dtype=bool)
    rest = np.prod(np.where(eye[:, None, :] | eye[None, :, :], 1.0, b[..., None, None, :]),
                   axis=-1)
    fkl = amplitude * db[..., :, None] * db[..., None, :]
    fkl[..., np.arange(n), np.arange(n)] = amplitude * d2b
    return (amplitude * np.prod(b, axis=-1),
            amplitude * db * np.diagonal(rest, axis1=-2, axis2=-1), fkl * rest)


def bump_torus(n: int, side: float = 2.0 * math.pi, amplitude: float = 0.1,
               center: np.ndarray | None = None,
               width: np.ndarray | float = 1.0) -> ChartManifold:
    """Flat torus with a compactly supported conformal bump e^(2f) * delta.

    f = amplitude * prod_i b((x_i - c_i)/w_i) with b the standard
    mollifier, wrapped periodically. Curvature is supported exactly in the
    declared box, which lp_deficit_norm exploits; no box is declared when
    the bump crosses the chart's seam.
    """
    if center is None:
        center = np.full(n, side / 2.0)
    center = np.asarray(center, dtype=float)
    width = np.broadcast_to(np.asarray(width, dtype=float), (n,)).copy()
    if np.any(width >= side / 2.0):
        raise ValueError("bump width must be below half the period")

    def jet(x):
        b, db, d2b = _mollifier((np.mod(x - center + side / 2.0, side) - side / 2.0) / width)
        f, fk, fkl = _bump_jet(b, db / width, d2b / width**2, amplitude)
        phi = np.exp(2.0 * f)
        return (phi, 2.0 * fk * phi[..., None],
                (2.0 * fkl + 4.0 * fk[..., :, None] * fk[..., None, :]) * phi[..., None, None])

    domain = Box(np.zeros(n), side * np.ones(n), (True,) * n)
    lo, hi = np.mod(center, side) - width, np.mod(center, side) + width
    support = Box(lo, hi, (False,) * n) if np.all((lo >= 0) & (hi <= side)) else None
    return ChartManifold(**_conformal(n, jet), domain=domain,
                         name=f"bump_torus{n}_eps{amplitude:g}",
                         curvature_support=support,
                         extra={"kind": "bump_torus", "amplitude": amplitude,
                                "center": center.copy(), "width": width.copy(),
                                "side": side})


MANIFOLD_BUILDERS = {
    "euclidean": euclidean,
    "flat_torus": flat_torus,
    "sphere": sphere,
    "sphere_colatitude": sphere_colatitude,
    "hyperbolic": hyperbolic,
    "product": product,
    "warped_product": warped_product,
    "bump_torus": bump_torus,
}

