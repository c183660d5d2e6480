"""Parameterized closed submanifolds: frames, second fundamental form, normal grids.

The Weingarten sign convention matches the ambient-derivative definition
S_xi = (grad xi)^tangential, equivalently <S_xi X, Y> = -<II(X, Y), xi>,
which makes <eta, xi> = tr(S_xi)/m and gives the round sphere in
Euclidean space S_xi = +(1/a) I for the outward normal. The sphere test
in the suite pins this sign. ``base_node`` is the only code that builds a
node's frames and II tensor, and ``weingarten`` the only code that turns
them into S_xi.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import FD_STEP_FIRST, FD_STEP_SECOND, Box, ChartManifold, christoffel_at
from .geometry import complete_euclidean, complete_frame, fd_gradient, fd_hessian
from .manifolds import ambient_tangent_to_chart, sphere_to_chart
from .quadrature import unit_sphere_quadrature

__all__ = [
    "RankDeficiencyError",
    "NonNormalVectorError",
    "EmbeddedSubmanifold",
    "NormalFiberGrid",
    "BaseNode",
    "base_node",
    "weingarten",
    "unit_normal_grid",
    "point",
    "sphere_point",
    "sub_torus",
    "closed_geodesic",
    "great_circle",
    "equator",
    "round_sphere",
    "POLAR_BOX",
    "polar_direction",
    "SUBMANIFOLD_BUILDERS",
    "build_submanifold",
]


class RankDeficiencyError(ValueError):
    """Embedding differential fell below full rank at a parameter point."""


class NonNormalVectorError(ValueError):
    """Vector is not a unit normal of the submanifold at the given point."""


@dataclass(eq=False)
class EmbeddedSubmanifold:
    """Closed submanifold given by a vectorized parameter-box embedding.

    ``embedding`` maps (..., m) parameter arrays into chart coordinates
    (..., n); for m = 0 use param_domain None and an embedding ignoring
    its argument. Analytic jacobian/hessian callbacks are optional;
    central differences (steps FD_STEP_FIRST / 20 * FD_STEP_SECOND) are
    the fallback.
    """

    dim: int
    embedding: Callable[[np.ndarray], np.ndarray]
    param_domain: Box | None
    name: str = "submanifold"
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None   # (..., n, m)
    hessian: Callable[[np.ndarray], np.ndarray] | None = None    # (..., m, m, n)
    normal_frame_fn: Callable | None = None   # (s, x, g, tangent) -> (n-m, n)

    def __post_init__(self):
        if self.dim > 0 and (self.param_domain is None
                             or self.param_domain.dim != self.dim):
            raise ValueError("parameter box must match submanifold dimension")

    def embed(self, s) -> np.ndarray:
        if self.dim == 0:
            shape = np.shape(s)[:-1] if np.ndim(s) > 1 else ()
            base = np.asarray(self.embedding(np.zeros(0)), dtype=float)
            return np.broadcast_to(base, shape + base.shape).copy()
        return np.asarray(self.embedding(np.asarray(s, dtype=float)), dtype=float)

    def jacobian_at(self, s: np.ndarray) -> np.ndarray:
        """d embedding / d s as columns: shape (n, m)."""
        s = np.asarray(s, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(s), dtype=float)
        return fd_gradient(self.embed, s, FD_STEP_FIRST).T

    def hessian_at(self, s: np.ndarray) -> np.ndarray:
        """Second parameter derivatives of the embedding: shape (m, m, n).

        Central differences with one Richardson level (steps 2e-3 and
        1e-3); keeps the noise floor near 1e-9 so totally geodesic cases
        test clean at 1e-8.
        """
        s = np.asarray(s, dtype=float)
        if self.hessian is not None:
            return np.asarray(self.hessian(s), dtype=float)
        def one_by_one(points):     # an embedding's batched call may round differently
            return np.array([self.embed(p) for p in points])

        h = 20.0 * FD_STEP_SECOND
        return (4.0 * fd_hessian(one_by_one, s, h / 2.0) - fd_hessian(one_by_one, s, h)) / 3.0

    def base_quadrature(self, resolution) -> tuple[np.ndarray, np.ndarray]:
        """Parameter nodes and coordinate-measure weights (no metric factor)."""
        if self.dim == 0:
            return np.zeros((1, 0)), np.ones(1)
        return self.param_domain.quadrature_grid(resolution)


def _normal_frame(sigma: EmbeddedSubmanifold, s, x, g, tangent) -> np.ndarray:
    """The declared normal frame at x = embed(s), else the g-orthonormal completion."""
    if sigma.normal_frame_fn is not None:
        return np.asarray(sigma.normal_frame_fn(s, x, g, tangent))
    return complete_frame(g, list(tangent))[len(tangent):]


@dataclass(frozen=True, eq=False)
class BaseNode:
    """Everything the rays and the quadrature read about Sigma at one parameter.

    ``second_fundamental`` K[a, b, :] is the ambient covariant second
    derivative along the orthonormal tangent directions a, b; its normal
    component is the second fundamental form. ``gram_density`` is
    sqrt(det(J^T g J)) for the embedding differential J.
    """

    position: np.ndarray             # (n,)
    metric: np.ndarray               # (n, n)
    tangent: np.ndarray              # (m, n) g-orthonormal rows
    normal: np.ndarray               # (n-m, n) g-orthonormal rows
    second_fundamental: np.ndarray   # (m, m, n), empty for m = 0
    mean_curvature: np.ndarray       # (n,) eta with <eta, xi> = tr(S_xi)/m
    gram_density: float


def base_node(sigma: EmbeddedSubmanifold, M: ChartManifold, s) -> BaseNode:
    """Position, metric, frames, II tensor and mean curvature at embed(s), any m >= 0.

    The tangent frame is L^-1 J^T for the Cholesky factor L of J^T g J;
    this is the only place a node's frames are built.
    """
    s = np.asarray(s, dtype=float)
    x = sigma.embed(s)
    g = M.metric_at(x)
    m = sigma.dim
    J = sigma.jacobian_at(s)                  # (n, m)
    gram = J.T @ g @ J
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"embedding differential of {sigma.name} rank-deficient at s={s}") from exc
    coeff = np.linalg.inv(L)                  # tangent frame = coeff @ J.T
    tangent = coeff @ J.T
    normal = _normal_frame(sigma, s, x, g, tangent)
    H2 = sigma.hessian_at(s)                  # (m, m, n) coordinate second derivatives
    K_coord = H2 + np.einsum("ijk,ja,kb->abi", christoffel_at(M, x), J, J)
    K = np.einsum("ac,bd,cdi->abi", coeff, coeff, K_coord)
    # eta = -sum over normal rows nu of <tr K, nu> nu / m
    eta = np.zeros(len(g))
    if m > 0:
        trace_K = np.einsum("aai->i", K)
        for nu in normal:
            eta += (-(trace_K @ g @ nu) / m) * nu
    return BaseNode(position=x, metric=g, tangent=tangent, normal=normal,
                    second_fundamental=K, mean_curvature=eta,
                    gram_density=math.sqrt(np.linalg.det(gram)))


def weingarten(K: np.ndarray, g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Shape operator S_xi = -<K, xi>_g in the node's tangent frame, over leading axes.

    K (..., m, m, n) is a node's II tensor, g (..., n, n) its metric and
    xi (..., n) a unit normal; the result (..., m, m) is symmetric.
    """
    return -np.einsum("...abi,...ij,...j->...ab", K, g, xi)


@dataclass(eq=False)
class NormalFiberGrid:
    """Product quadrature data over the unit normal bundle."""

    base_params: np.ndarray       # (B, m)
    base_weights: np.ndarray      # (B,) includes the induced volume density
    nodes: list[BaseNode]         # (B,) one per base parameter
    fiber_coeffs: np.ndarray      # (F, n-m) unit coefficient vectors
    fiber_weights: np.ndarray     # (F,)
    normals: np.ndarray           # (B, F, n) unit normal of every (node, fiber)
    eta_xi: np.ndarray            # (B, F) <eta, xi> of every (node, fiber)

    @property
    def sigma_volume(self) -> float:
        return float(np.sum(self.base_weights))

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.base_weights) * np.sum(self.fiber_weights))

    @property
    def eta_max(self) -> float:
        """Largest g-norm of the mean curvature vector over the base nodes."""
        return max((math.sqrt(max(0.0, node.mean_curvature @ node.metric
                                  @ node.mean_curvature)) for node in self.nodes),
                   default=0.0)


def unit_normal_grid(sigma: EmbeddedSubmanifold, M: ChartManifold,
                     base_resolution=8, fiber_resolution: int = 8,
                     rng: np.random.Generator | None = None) -> NormalFiberGrid:
    """Product quadrature over the unit normal bundle.

    Fiber weights sum to vol(S^(n-m-1)) at every node (two antipodal
    normals of weight 1 for hypersurfaces); base weights integrate the
    induced volume, so the total weight is vol(Sigma) * vol(S^(n-m-1)).
    """
    params, par_w = sigma.base_quadrature(base_resolution)
    nodes = [base_node(sigma, M, s) for s in params]
    weights = np.array([w * node.gram_density for w, node in zip(par_w, nodes)])
    fiber_coeffs, fiber_w = unit_sphere_quadrature(
        M.dim - sigma.dim - 1, resolution=fiber_resolution, rng=rng)
    # one pair at a time, so each value is the same whatever the grid's size
    normals = np.array([[c @ node.normal for c in fiber_coeffs] for node in nodes])
    eta_xi = np.array([[float(node.mean_curvature @ node.metric @ xi) for xi in row]
                       for node, row in zip(nodes, normals)])
    return NormalFiberGrid(base_params=params, base_weights=weights, nodes=nodes,
                           fiber_coeffs=fiber_coeffs, fiber_weights=fiber_w,
                           normals=normals, eta_xi=eta_xi)


# ---------------------------------------------------------------------------
# built-in submanifolds

# polar parameters (theta, phi) of a 2-sphere, kept off its poles
POLAR_BOX = Box([1e-8, 0.0], [math.pi - 1e-8, 2.0 * math.pi], (False, True))


def polar_direction(s) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t) of polar parameters (..., 2) -> (..., 3)."""
    s = np.asarray(s, dtype=float)
    theta, phi = s[..., 0], s[..., 1]
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)


def _on_sphere(M: ChartManifold, dim: int, box: Box | None, ambient_point,
               ambient_normals, name: str) -> EmbeddedSubmanifold:
    """Submanifold of a stereographic round sphere from its ambient parametrization.

    ``ambient_point`` maps parameters (..., dim) to points of the sphere of
    radius R in R^(n+1); ``ambient_normals`` maps one parameter to the rows
    of an ambient orthonormal normal frame there. The frame is pushed into
    the chart, so fiber angles correspond exactly to ambient directions.
    """
    def embedding(s):
        return sphere_to_chart(M, ambient_point(np.asarray(s, dtype=float)))

    def normal_frame(s, _x, _g, _tangent):
        s = np.asarray(s, dtype=float)
        q = ambient_point(s)
        return np.stack([ambient_tangent_to_chart(M, q, w) for w in ambient_normals(s)])

    return EmbeddedSubmanifold(dim=dim, embedding=embedding, param_domain=box,
                               name=name, normal_frame_fn=normal_frame)


def point(M: ChartManifold, location) -> EmbeddedSubmanifold:
    loc = np.asarray(location, dtype=float)
    if loc.shape != (M.dim,):
        raise ValueError(f"point location must have length {M.dim}, got shape {loc.shape}")
    return EmbeddedSubmanifold(dim=0, embedding=lambda _s: loc.copy(), param_domain=None,
                               name="point")


def sphere_point(M: ChartManifold, ambient_location) -> EmbeddedSubmanifold:
    """Point of a stereographic round sphere with a deterministic ambient frame."""
    unit = np.asarray(ambient_location, dtype=float)
    unit = unit / np.linalg.norm(unit)
    q0 = M.extra["radius"] * unit
    basis = complete_euclidean(unit)[1:]
    return _on_sphere(M, 0, None, lambda _s: q0, lambda _s: basis, "point")


def sub_torus(M: ChartManifold, axes, offset) -> EmbeddedSubmanifold:
    """Coordinate sub-torus of a (possibly bumped) flat torus chart.

    ``axes`` are distinct chart coordinates (at least one) that the torus
    spans; ``offset`` (length n) fixes the other coordinates.
    """
    n = M.dim
    axes = [operator.index(a) for a in axes]
    offset = np.asarray(offset, dtype=float)
    if (not axes or len(set(axes)) < len(axes) or not set(axes) <= set(range(n))
            or offset.shape != (n,)):
        raise ValueError(f"sub_torus needs distinct axes in range({n}) and an offset of"
                         f" length {n}, got axes {axes} and offset shape {offset.shape}")
    m = len(axes)
    side = M.domain.widths()[axes[0]]

    def embedding(s):
        s = np.asarray(s, dtype=float)
        out = np.broadcast_to(offset, s.shape[:-1] + (n,)).copy()
        for i, ax in enumerate(axes):
            out[..., ax] = s[..., i]
        return out

    def jac(s):
        s = np.asarray(s, dtype=float)
        J = np.zeros(s.shape[:-1] + (n, m))
        for i, ax in enumerate(axes):
            J[..., ax, i] = 1.0
        return J

    def hess(s):
        s = np.asarray(s, dtype=float)
        return np.zeros(s.shape[:-1] + (m, m, n))

    box = Box(np.zeros(m), side * np.ones(m), (True,) * m)
    return EmbeddedSubmanifold(dim=m, embedding=embedding, param_domain=box,
                               jacobian=jac, hessian=hess,
                               name=f"sub_torus{m}")


def closed_geodesic(M: ChartManifold, axis: int = 0, offset=None) -> EmbeddedSubmanifold:
    """Closed coordinate geodesic of a flat torus chart."""
    if offset is None:
        offset = M.domain.lo + 0.5 * M.domain.widths()
    sigma = sub_torus(M, [axis], offset)
    sigma.name = "closed_geodesic"
    return sigma


def great_circle(M: ChartManifold, plane=(0, 1), phase: float = 0.0) -> EmbeddedSubmanifold:
    """Great circle of a stereographic round sphere, in the ambient plane given.

    The normal frame is the ambient axes outside the circle's plane.
    ``plane`` is two distinct ambient axes in range(n + 1).
    """
    radius = M.extra["radius"]
    n_amb = M.dim + 1
    plane = [operator.index(c) for c in plane]
    if len(plane) != 2 or plane[0] == plane[1] or not set(plane) <= set(range(n_amb)):
        raise ValueError(f"great_circle plane must be two distinct axes in range({n_amb}),"
                         f" got {plane}")
    e1 = np.eye(n_amb)[plane[0]]
    e2 = np.eye(n_amb)[plane[1]]
    others = [np.eye(n_amb)[c] for c in range(n_amb) if c not in plane]

    def ambient_point(s):
        ang = s[..., 0] + phase
        return radius * (np.cos(ang)[..., None] * e1 + np.sin(ang)[..., None] * e2)

    return _on_sphere(M, 1, Box([0.0], [2.0 * math.pi], (True,)), ambient_point,
                      lambda _s: others, "great_circle")


def equator(M: ChartManifold) -> EmbeddedSubmanifold:
    """Equatorial hypersurface S^(n-1) of a stereographic round S^n (n = 2, 3)."""
    radius = M.extra["radius"]
    n = M.dim
    if n == 2:
        sigma = great_circle(M, plane=(0, 1))
        sigma.name = "equator"
        return sigma
    if n != 3:
        raise ValueError("equator builder implemented for S^2 and S^3 ambients")

    def ambient_point(s):
        v = polar_direction(s)
        return radius * np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)

    e4 = np.eye(4)[3:]
    return _on_sphere(M, 2, POLAR_BOX, ambient_point, lambda _s: e4, "equator")


def round_sphere(M: ChartManifold, radius: float,
                 center=None) -> EmbeddedSubmanifold:
    """Round hypersurface sphere.

    In Euclidean ambients: the sphere of Euclidean radius ``radius`` about
    ``center``. In a stereographic round-sphere ambient S^3: the distance
    sphere of geodesic radius ``radius`` about the last coordinate pole.
    """
    kind = M.extra.get("kind", "euclidean")
    if kind == "sphere":
        if M.dim != 3:
            raise ValueError("geodesic round_sphere implemented for S^3 ambients")
        R = M.extra["radius"]
        rho = radius

        def ambient_point(s):
            v = polar_direction(s)
            return R * np.concatenate([math.sin(rho) * v,
                                       math.cos(rho) * np.ones(v.shape[:-1] + (1,))], axis=-1)

        def ambient_normal(s):
            return np.concatenate([math.cos(rho) * polar_direction(s), [-math.sin(rho)]])[None]

        return _on_sphere(M, 2, POLAR_BOX, ambient_point, ambient_normal,
                          f"round_sphere_rho{radius:g}")
    if M.dim != 3:
        raise ValueError("euclidean round_sphere implemented for R^3 ambients")
    c = np.zeros(3) if center is None else np.asarray(center, dtype=float)

    def embedding(s):
        return c + radius * polar_direction(s)

    return EmbeddedSubmanifold(dim=2, embedding=embedding, param_domain=POLAR_BOX,
                               name=f"round_sphere_a{radius:g}")


SUBMANIFOLD_BUILDERS = {
    "point": point,
    "closed_geodesic": closed_geodesic,
    "sub_torus": sub_torus,
    "equator": equator,
    "great_circle": great_circle,
    "round_sphere": round_sphere,
}


def build_submanifold(name: str, M: ChartManifold, **params) -> EmbeddedSubmanifold:
    """Construct a built-in submanifold by registry name."""
    if name not in SUBMANIFOLD_BUILDERS:
        raise KeyError(f"unknown submanifold '{name}'; known: {sorted(SUBMANIFOLD_BUILDERS)}")
    return SUBMANIFOLD_BUILDERS[name](M, **params)
