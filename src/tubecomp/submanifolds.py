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

from .geometry import Box, ChartManifold, christoffel_at, complete_euclidean, complete_frame
from .manifolds import ambient_jet_to_chart, ambient_tangent_to_chart
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
    "polar_jet",
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
    its argument. The exact ``jacobian`` (d embedding / d s as columns) and
    ``hessian`` (second parameter derivatives) are required callbacks.
    """

    dim: int
    embedding: Callable[[np.ndarray], np.ndarray]
    param_domain: Box | None
    jacobian: Callable[[np.ndarray], np.ndarray]   # (..., n, m)
    hessian: Callable[[np.ndarray], np.ndarray]    # (..., m, m, n)
    name: str = "submanifold"
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

    @classmethod
    def from_jet(cls, dim: int, jet, param_domain: Box | None, **fields):
        """Submanifold whose embedding, jacobian and hessian are the parts of
        one 2-jet callback s -> (x, J, H)."""
        return cls(dim=dim, embedding=lambda s: jet(s)[0], param_domain=param_domain,
                   jacobian=lambda s: jet(s)[1], hessian=lambda s: jet(s)[2], **fields)

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
    J = sigma.jacobian(s)                     # (n, m)
    gram = J.T @ g @ J
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"embedding differential of {sigma.name} rank-deficient at s={s}") from exc
    coeff = np.linalg.inv(L)                  # tangent frame = coeff @ J.T
    tangent = coeff @ J.T
    normal = _normal_frame(sigma, s, x, g, tangent)
    H2 = sigma.hessian(s)                     # (m, m, n) coordinate second derivatives
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


def polar_jet(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit vector v = (sin t cos p, sin t sin p, cos t) of polar parameters s = (t, p)
    (..., 2) with its first and second derivatives: (..., 3), (..., 3, 2), (..., 2, 2, 3)."""
    s = np.asarray(s, dtype=float)
    st, ct, sp, cp = np.sin(s[..., 0]), np.cos(s[..., 0]), np.sin(s[..., 1]), np.cos(s[..., 1])
    zero = np.zeros_like(st)
    v = np.stack([st * cp, st * sp, ct], axis=-1)
    v_tp = np.stack([-ct * sp, ct * cp, zero], axis=-1)
    return (v, np.stack([np.stack([ct * cp, ct * sp, -st], axis=-1),
                         np.stack([-st * sp, st * cp, zero], axis=-1)], axis=-1),
            np.stack([np.stack([-v, v_tp], axis=-2),
                      np.stack([v_tp, np.stack([-st * cp, -st * sp, zero], axis=-1)], axis=-2)],
                     axis=-3))


def _on_sphere(M: ChartManifold, dim: int, box: Box | None, ambient_jet,
               ambient_normals, name: str) -> EmbeddedSubmanifold:
    """Submanifold of a stereographic round sphere from its ambient parametrization.

    ``ambient_jet`` maps parameters (..., dim) to points q of the sphere of
    radius R in R^(n+1) and their first and second parameter derivatives,
    (..., n+1), (..., n+1, dim) and (..., dim, dim, n+1), which
    ``ambient_jet_to_chart`` pushes into the chart. ``ambient_normals`` maps
    one parameter to the rows of an ambient orthonormal normal frame there.
    The frame is pushed into the chart, so fiber angles correspond exactly
    to ambient directions.
    """
    def normal_frame(s, _x, _g, _tangent):
        s = np.asarray(s, dtype=float)
        q = ambient_jet(s)[0]
        return np.stack([ambient_tangent_to_chart(M, q, w) for w in ambient_normals(s)])

    return EmbeddedSubmanifold.from_jet(
        dim, lambda s: ambient_jet_to_chart(M, *ambient_jet(np.asarray(s, dtype=float))),
        box, name=name, normal_frame_fn=normal_frame)


def point(M: ChartManifold, location) -> EmbeddedSubmanifold:
    n = M.dim
    loc = np.asarray(location, dtype=float)
    if loc.shape != (n,):
        raise ValueError(f"point location must have length {n}, got shape {loc.shape}")
    return EmbeddedSubmanifold(dim=0, embedding=lambda _s: loc.copy(), param_domain=None,
                               jacobian=lambda s: np.zeros(np.shape(s)[:-1] + (n, 0)),
                               hessian=lambda s: np.zeros(np.shape(s)[:-1] + (0, 0, n)),
                               name="point")


def sphere_point(M: ChartManifold, ambient_location) -> EmbeddedSubmanifold:
    """Point of a stereographic round sphere with a deterministic ambient frame."""
    unit = np.asarray(ambient_location, dtype=float)
    unit = unit / np.linalg.norm(unit)
    q0 = M.extra["radius"] * unit
    basis = complete_euclidean(unit)[1:]

    def ambient_jet(s):
        lead = np.shape(s)[:-1]
        return (np.broadcast_to(q0, lead + q0.shape), np.zeros(lead + (len(q0), 0)),
                np.zeros(lead + (0, 0, len(q0))))

    return _on_sphere(M, 0, None, ambient_jet, lambda _s: basis, "point")


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

    def ambient_jet(s):
        ang = s[..., 0] + phase
        c, sn = np.cos(ang)[..., None], np.sin(ang)[..., None]
        q = radius * (c * e1 + sn * e2)
        return q, (radius * (c * e2 - sn * e1))[..., None], -q[..., None, None, :]

    return _on_sphere(M, 1, Box([0.0], [2.0 * math.pi], (True,)), ambient_jet,
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

    e4 = np.eye(4)[3:]
    return _on_sphere(M, 2, POLAR_BOX, lambda s: _latitude(radius, 1.0, 0.0, s),
                      lambda _s: e4, "equator")


def _latitude(R: float, sin: float, cos: float, s):
    """Ambient 2-jet of the 2-sphere q = R (sin * v, cos) of S^3(R), v = polar_jet(s)."""
    v, dv, d2v = polar_jet(s)
    return (R * np.concatenate([sin * v, cos * np.ones(v.shape[:-1] + (1,))], axis=-1),
            R * np.concatenate([sin * dv, np.zeros(v.shape[:-1] + (1, 2))], axis=-2),
            R * np.concatenate([sin * d2v, np.zeros(v.shape[:-1] + (2, 2, 1))], axis=-1))


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
        R, sin, cos = M.extra["radius"], math.sin(radius), math.cos(radius)

        def ambient_normal(s):
            return np.concatenate([cos * polar_jet(s)[0], [-sin]])[None]

        return _on_sphere(M, 2, POLAR_BOX, lambda s: _latitude(R, sin, cos, s), ambient_normal,
                          f"round_sphere_rho{radius:g}")
    if M.dim != 3:
        raise ValueError("euclidean round_sphere implemented for R^3 ambients")
    c = np.zeros(3) if center is None else np.asarray(center, dtype=float)
    if c.shape != (3,):
        raise ValueError(f"round_sphere center must have length 3, got shape {c.shape}")

    def jet(s):
        v, dv, d2v = polar_jet(s)
        return c + radius * v, radius * dv, radius * d2v

    return EmbeddedSubmanifold.from_jet(2, jet, POLAR_BOX, name=f"round_sphere_a{radius:g}")


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
