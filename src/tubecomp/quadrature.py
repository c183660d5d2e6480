"""Quadrature rules shared by chart, fiber-sphere, and radial integrations."""

from __future__ import annotations

import functools
import math

import numpy as np

from .models import sphere_volume

__all__ = [
    "gauss_legendre_panels",
    "cumulative_trapezoid",
    "periodic_trapezoid",
    "circle_grid",
    "product_angle_sphere",
    "monte_carlo_sphere",
    "unit_sphere_quadrature",
]


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n (read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_panels(a: float, b, nodes: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [a, b].

    ``b`` may be an array of right ends; the rules then stack along its
    axes, each bitwise the rule of its scalar ``b``.
    """
    if np.any(b < a):
        raise ValueError(f"empty interval [{a}, {b}]")
    x, w = _leggauss(nodes)
    half = 0.5 * (np.asarray(b, dtype=float)[..., None] - a)
    return a + half * (x + 1.0), half * w


def cumulative_trapezoid(vals: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of vals from ts[0] to every ts, along the last axis."""
    out = np.zeros(np.shape(vals))
    out[..., 1:] = np.cumsum(0.5 * (vals[..., 1:] + vals[..., :-1]) * np.diff(ts), axis=-1)
    return out


def periodic_trapezoid(period: float, count: int,
                       offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Uniform nodes on a period (spectrally accurate for smooth periodic f)."""
    nodes = offset + period * np.arange(count) / count
    weights = np.full(count, period / count)
    return nodes, weights


def circle_grid(count: int, offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights on the unit circle S^1, weights summing to 2 pi."""
    theta, w = periodic_trapezoid(2.0 * math.pi, count, offset)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    return pts, w


def product_angle_sphere(d: int, polar: int = 16,
                         azimuth: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Product-angle grid on S^d: GL in each colatitude cosine, trapezoid in phi.

    Exact total weight for d <= 2; for higher d the polar weight
    (1-u^2)^((d-2)/2) is merely smooth, so weights are renormalized to
    vol(S^d).
    """
    if d == 0:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 1:
        return circle_grid(azimuth)
    u, wu = _leggauss(polar)
    sub_pts, sub_w = product_angle_sphere(d - 1, polar, azimuth)
    rho = np.sqrt(1.0 - u * u)
    pts = np.concatenate([
        np.column_stack([np.full(len(sub_pts), ui), ri * sub_pts])
        for ui, ri in zip(u, rho)])
    w = np.concatenate([
        wui * (1.0 - ui * ui) ** ((d - 2) / 2.0) * sub_w
        for ui, wui in zip(u, wu)])
    w *= sphere_volume(d) / w.sum()
    return pts, w


def monte_carlo_sphere(d: int, count: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random points on S^d with equal weights vol(S^d)/N."""
    pts = rng.standard_normal((count, d + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts, np.full(count, sphere_volume(d) / count)


def unit_sphere_quadrature(d: int, resolution: int = 16,
                           rng: np.random.Generator | None = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on S^d used for normal fibers.

    Deterministic product-angle grids up to d = 2; for d >= 3 a Monte
    Carlo rule of 256 * resolution points (per-sample standard errors are
    the caller's job).
    """
    if d <= 2:
        return product_angle_sphere(d, polar=resolution, azimuth=2 * resolution)
    if rng is None:
        raise ValueError(f"fiber dimension {d} >= 3 requires Monte Carlo sampling")
    return monte_carlo_sphere(d, 256 * resolution, rng)

