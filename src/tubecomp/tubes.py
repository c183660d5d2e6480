"""Tube volumes, equidistant areas, and tube-restricted curvature norms.

Everything is assembled by Fubini over the unit normal bundle: one ray
integration per (base node, fiber direction), then Gauss-Legendre in
the radial variable with the density set to zero past each ray's first
focal time. Accumulation order is fixed, so results are bitwise
reproducible for a given spec and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ChartManifold
from .models import first_zero, hk_integrand, sphere_volume
from .quadrature import gauss_legendre_panels
from .submanifolds import EmbeddedSubmanifold, NormalFiberGrid, base_node, unit_normal_grid
from .transport import NormalRay, RayBatch, integrate_rays, jacobi_det

__all__ = [
    "QuadratureSpec",
    "TubeVolumeResult",
    "TubeSampler",
    "tube_volume_monte_carlo",
]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i, each by the same dot product as 1-D ``@``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _ray_sum(values: np.ndarray) -> float:
    """Sum of per-ray values as a running total in ray order (fixed order)."""
    return float(np.cumsum(values)[-1])


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the radial rule, fiber sphere, and parameter domain;
    none for rho_k, whose bracket (``geometry.rho_k``) has no direction grid."""

    t_nodes_per_panel: int = 16
    base_resolution: int | tuple = 8
    fiber_resolution: int = 4               # x 256 Monte Carlo points if n-m-1 >= 3
    mc_samples: int = 2048                  # volume cross-check sample budget
    seed: int = 0
    ray_tolerance: float = 1e-9
    chart_resolution: int = 8               # per-axis nodes for chart-box norms

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class TubeVolumeResult:
    value: float
    error_estimate: float
    rays_used: int
    truncated_at_focal: list[bool]
    validity_exceeded: bool = False

    def __post_init__(self):
        if self.value < -1e-12 or self.error_estimate < 0.0:
            raise ValueError("tube volume and error estimate must be nonnegative")


class TubeSampler:
    """Shared ray cache: integrates every (node, fiber) ray once up to r_max."""

    def __init__(self, M: ChartManifold, sigma: EmbeddedSubmanifold,
                 r_max: float, spec: QuadratureSpec | None = None):
        self.M = M
        self.sigma = sigma
        self.spec = spec or QuadratureSpec()
        self.r_max = float(r_max)
        self.grid: NormalFiberGrid = unit_normal_grid(
            sigma, M, base_resolution=self.spec.base_resolution,
            fiber_resolution=self.spec.fiber_resolution, rng=self.spec.rng())
        grid = self.grid
        rays = [NormalRay(base_param=s, xi=xi, t_max=self.r_max,
                          tolerance=self.spec.ray_tolerance)
                for s, row in zip(grid.base_params, grid.normals) for xi in row]
        self.weights = (grid.base_weights[:, None] * grid.fiber_weights).ravel()
        self.eta_xi = grid.eta_xi.ravel()
        self.rays: RayBatch = integrate_rays(
            M, sigma, rays, [node for node in grid.nodes for _ in grid.fiber_coeffs])

    def _check_horizon(self, r: float):
        if r > self.r_max + 1e-12:
            raise ValueError(f"radius {r} beyond integrated horizon {self.r_max}")

    def volume(self, r: float) -> TubeVolumeResult:
        self._check_horizon(r)
        if r <= 0.0:
            return TubeVolumeResult(0.0, 0.0, len(self.rays),
                                    [False] * len(self.rays))
        nodes = self.spec.t_nodes_per_panel
        focal = self.rays.focal_times()
        # every ray's radial rules on [0, min(r, its focal time)]
        tops = np.minimum(r, focal)
        ts, tw = gauss_legendre_panels(0.0, tops, nodes)
        ts2, tw2 = gauss_legendre_panels(0.0, tops, max(4, nodes // 2))
        dens = self.rays.density(np.concatenate([ts, ts2], axis=1))
        total = _ray_sum(self.weights * _row_dots(tw, dens[:, :ts.shape[1]]))
        total_coarse = _ray_sum(self.weights * _row_dots(tw2, dens[:, ts.shape[1]:]))
        validity = self.M.volume_validity_radius
        return TubeVolumeResult(value=total,
                                error_estimate=abs(total - total_coarse),
                                rays_used=len(self.rays),
                                truncated_at_focal=(focal < r).tolist(),
                                validity_exceeded=(validity is not None
                                                   and r > validity + 1e-12))

    def area(self, t: float) -> float:
        self._check_horizon(t)
        if t <= 0.0:
            return 0.0
        dens = self.rays.density(np.full((len(self.rays), 1), t))[:, 0]
        return _ray_sum(np.where(t < self.rays.focal_times(), self.weights * dens, 0.0))

    def lp_deficit(self, t: float, H: float, p: float, rho) -> float:
        """Tube-restricted ||(rho_k - H)_-||_p; ``rho`` maps points (P, n) to (P,)."""
        if p < 1.0:
            raise ValueError(f"need p >= 1, got {p}")
        self._check_horizon(t)
        if t <= 0.0:
            return 0.0
        ts, tw = gauss_legendre_panels(0.0, np.minimum(t, self.rays.focal_times()),
                                       self.spec.t_nodes_per_panel)
        positions, J = self.rays.fields(ts, parts=("x", "J"))
        deficit = np.maximum(H - rho(positions.reshape(-1, self.M.dim)), 0.0)
        integrand = deficit.reshape(ts.shape) ** p * jacobi_det(J)
        return _ray_sum(self.weights * _row_dots(tw, integrand)) ** (1.0 / p)

    def hk_bound(self, H: float, r: float) -> float:
        """Heintze-Karcher comparison volume of the tube of radius r (0 at r <= 0).

        The model density of curvature H is integrated to its first zero
        with 24 Gauss-Legendre nodes once per distinct <eta, xi> of the rays.
        """
        if r <= 0.0:
            return 0.0
        n, m = self.M.dim, self.sigma.dim
        values, which = np.unique(self.eta_xi, return_inverse=True)
        integrals = []
        for e in values.tolist():
            ts, tw = gauss_legendre_panels(0.0, first_zero(H, n, m, e, r), 24)
            integrals.append(float(tw @ np.array([hk_integrand(H, n, m, e, t)
                                                  for t in ts])))
        return _ray_sum(self.weights * np.array(integrals)[which])


def tube_volume_monte_carlo(M: ChartManifold, sigma: EmbeddedSubmanifold,
                            r: float, spec: QuadratureSpec | None = None,
                            ) -> tuple[float, float]:
    """(estimate, standard error) for vol(T(Sigma, r)) by random nodes.

    Same Fubini representation with uniform random base points, fiber
    directions, and radial times, clustered per ray so the standard error
    comes from independent ray aggregates. Cross-validates the product
    quadrature without sharing its node placement.
    """
    spec = spec or QuadratureSpec()
    rng = spec.rng()
    n, m = M.dim, sigma.dim
    d = n - m - 1
    t_draws = 8
    n_rays = max(8, spec.mc_samples // t_draws)
    box = sigma.param_domain
    param_measure = 1.0 if m == 0 else float(np.prod(box.widths()))

    # draw every ray's randomness first, in the order of one ray at a time
    rays, nodes, scales, t_samples = [], [], [], []
    for _ in range(n_rays):
        s = (np.zeros(0) if m == 0
             else rng.uniform(box.lo, box.hi))
        node = base_node(sigma, M, s)
        c = rng.standard_normal(n - m)
        c /= np.linalg.norm(c)
        rays.append(NormalRay(s, c @ node.normal, t_max=r, tolerance=spec.ray_tolerance))
        nodes.append(node)
        scales.append(param_measure * node.gram_density * sphere_volume(d) * r)
        t_samples.append(rng.uniform(0.0, r, size=t_draws))
    batch = integrate_rays(M, sigma, rays, nodes)
    ts = np.array(t_samples)
    dens = np.where(ts < batch.focal_times()[:, None], batch.density(ts), 0.0)
    values = np.array(scales) * np.mean(dens, axis=1)
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_rays))
    return estimate, stderr
