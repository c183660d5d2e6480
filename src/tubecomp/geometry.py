"""Chart-based Riemannian metrics with curvature and k-Ricci machinery.

A manifold is a metric tensor field on a single coordinate chart (periodic
directions model tori). Curvature is assembled from the chart's exact
metric gradient and Hessian callbacks, which every chart supplies. All
curvature quantities use the sign convention in
which ``Rm[i,j,k,l] = g_ik g_jl - g_il g_jk`` on the unit round sphere, so
``Rm(x, u, x, u)`` is the sectional curvature of an orthonormal pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import gauss_legendre_panels, periodic_trapezoid

__all__ = [
    "SingularMetricError",
    "Box",
    "ChartManifold",
    "DeficitNorm",
    "christoffel_at",
    "curvature_tensor_at",
    "connection_and_curvature",
    "RhoBracket",
    "rho_method",
    "rho_k",
    "rho_k_at",
    "lp_deficit_norm",
    "frame_curvature",
    "frame_matrix",
    "gram_schmidt",
    "complete_frame",
    "complete_euclidean",
]


class SingularMetricError(ValueError):
    """Metric failed to be positive definite at working precision."""


@dataclass(eq=False)
class Box:
    """Coordinate box with optional periodic identifications per axis."""

    lo: np.ndarray
    hi: np.ndarray
    periodic: tuple[bool, ...]

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.periodic):
            raise ValueError("box arrays and periodic flags must share length")
        if np.any(self.hi <= self.lo):
            raise ValueError("box must have positive extent on every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Reduce periodic coordinates into the box; leaves open axes alone."""
        x = np.array(x, dtype=float)
        for i, per in enumerate(self.periodic):
            if per:
                w = self.hi[i] - self.lo[i]
                x[..., i] = self.lo[i] + np.mod(x[..., i] - self.lo[i], w)
        return x

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Whether each point (row) of x lies in the box (to 1e-9), after wrapping."""
        x = self.wrap(x)
        return np.all((x >= self.lo - 1e-9) & (x <= self.hi + 1e-9), axis=-1)

    def intersect(self, other: "Box") -> "Box":
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        return Box(lo, hi, tuple(False for _ in self.periodic))

    def quadrature_grid(self, resolution) -> tuple[np.ndarray, np.ndarray]:
        """Tensor-product quadrature: trapezoid on periodic axes, GL otherwise."""
        if np.isscalar(resolution):
            resolution = [int(resolution)] * self.dim
        if len(resolution) != self.dim:
            raise ValueError(f"resolution {resolution!r} needs one entry per axis ({self.dim})")
        axes, weights = [], []
        for i, res in enumerate(resolution):
            if self.periodic[i]:
                nodes, w = periodic_trapezoid(self.hi[i] - self.lo[i], res, self.lo[i])
            else:
                nodes, w = gauss_legendre_panels(self.lo[i], self.hi[i], res)
            axes.append(nodes)
            weights.append(w)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        wmesh = np.meshgrid(*weights, indexing="ij")
        w = np.ones(len(pts))
        for wm in wmesh:
            w *= wm.ravel()
        return pts, w


@dataclass(eq=False)
class ChartManifold:
    """Riemannian metric field on one chart.

    metric(x) must map points of shape (..., n) to SPD matrices of shape
    (..., n, n), for any leading batch axes. The exact first derivatives
    (``metric_grad``, layout dg[..., k, i, j] = d_k g_ij) and second
    derivatives (``metric_hess``, d2g[..., k, l, i, j]) are required
    callbacks, batched the same way.
    ``conformal_jet`` is set only on a conformally flat chart, g = phi * I:
    it maps points (..., n) to the 2-jet (phi, d_k phi, d_k d_l phi), shapes
    (...), (..., n) and (..., n, n), from which ``_jacobi_batch`` reads the
    ray data in closed form.
    ``extra`` holds builder facts such as a sphere's radius and chart axes.
    """

    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    domain: Box
    metric_grad: Callable[[np.ndarray], np.ndarray]
    metric_hess: Callable[[np.ndarray], np.ndarray]
    name: str = "chart"
    volume_validity_radius: float | None = None
    rho_exact: dict[int, float] | None = None
    curvature_support: Box | None = None
    conformal_jet: Callable[[np.ndarray], tuple] | None = None
    extra: dict = field(default_factory=dict)

    def metric_at(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.metric(np.asarray(pts, dtype=float)), dtype=float)

    def sqrt_det_at(self, pts: np.ndarray) -> np.ndarray:
        g = self.metric_at(pts)
        det = np.linalg.det(g)
        if np.any(det <= 0.0):
            raise SingularMetricError(f"nonpositive metric determinant on {self.name}")
        return np.sqrt(det)


# ---------------------------------------------------------------------------
# connection and curvature from the chart's exact metric jet


def _inverse_spd(g: np.ndarray, name: str) -> np.ndarray:
    """Inverse of a batch of SPD matrices; a Cholesky factorization checks definiteness.

    A non-finite entry is refused first: Cholesky passes a NaN row.
    """
    if not np.isfinite(g).all():
        raise SingularMetricError(f"metric not finite on {name}")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"metric not positive definite on {name}") from exc
    return np.linalg.inv(g)


def _connection_batch(M: ChartManifold, xs: np.ndarray):
    """(g, A, Gamma) at each row of xs: A_alj = 2 Gamma_a,lj and Gamma^i_lj = g^ia A_alj / 2."""
    g = M.metric_at(xs)
    ginv = _inverse_spd(g, M.name)
    dg = M.metric_grad(xs)
    B, n = dg.shape[:2]
    A = np.einsum("blaj->balj", dg) + np.einsum("bjal->balj", dg) - dg
    return g, A, 0.5 * (ginv @ A.reshape(B, n, n * n)).reshape(B, n, n, n)


@functools.cache
def _rm_gathers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat source indices of Rm's four d2g terms (4, n^4) and two Q terms (2, n^4)."""
    d2 = np.array([np.arange(n**4).reshape((n,) * 4).transpose(p).ravel()
                   for p in ((2, 1, 0, 3), (1, 3, 0, 2), (2, 1, 3, 0), (1, 3, 2, 0))])
    return d2, d2[[3, 1]]


def _curvature_batch(M: ChartManifold, xs: np.ndarray,
                     want_gamma: bool = False):
    """Batched all-lowered curvature tensor Rm[b,p,j,k,l] (and optionally Gamma).

    From the lowered Christoffel symbols, with no derivative of g^-1:
    Rm_pjkl = (d_k d_j g_pl - d_k d_p g_lj - d_l d_j g_pk + d_l d_p g_kj) / 2
    + Q_lpkj - Q_kplj, Q_lpkj = sum_d A_dlp Gamma^d_kj / 2, where Q is one
    batched (n^2, n) @ (n, n^2) product and the permuted terms are gathered
    from the flat (B, n^4) d2g and Q by ``_rm_gathers``. The metric, gradient
    and Hessian callbacks each read xs once (``manifolds._conformal`` shares
    one jet per call); every row's result depends on that row alone.
    """
    g, A, gamma = _connection_batch(M, xs)
    d2g = M.metric_hess(xs)
    B, n = A.shape[:2]
    Q = 0.5 * (np.swapaxes(A.reshape(B, n, n * n), 1, 2) @ gamma.reshape(B, n, n * n))
    t = np.take(d2g.reshape(B, n**4), _rm_gathers(n)[0], axis=1)
    rm = 0.5 * (t[:, 0] - t[:, 1] - t[:, 2] + t[:, 3])
    del t   # the Q gather reuses its memory; holding both makes calls page-fault
    t = np.take(Q.reshape(B, n**4), _rm_gathers(n)[1], axis=1)
    rm = (rm + t[:, 0] - t[:, 1]).reshape(B, n, n, n, n)
    if want_gamma:
        return g, gamma, rm
    return g, rm


def _conformal_form(M: ChartManifold, xs: np.ndarray):
    """(phi, u, A) at each row of xs (B, n) on a conformally flat chart, from its
    ``conformal_jet``: the one place the ray kernel and ``rho_k`` read A from.

    Under g = phi * I = e^(2u) * I, with u_k = d_k phi / (2 phi), the
    curvature is Rm = -e^(2u) A (.) delta (Besse, Einstein Manifolds, 1987,
    1.J), with A = Hess u - du du^T + |du|^2 I / 2 = d d phi / (2 phi) -
    3 u u^T + |u|^2 I / 2 and the Kulkarni-Nomizu product (h (.) k)_pjkl =
    h_pk k_jl + h_jl k_pk - h_pl k_jk - h_jk k_pl; in this module's sign
    convention the unit sphere's Rm is (g (.) g) / 2. phi > 0 on every row
    stands for the positive-definiteness check.
    """
    phi, dphi, d2phi = M.conformal_jet(xs)
    if not (phi > 0.0).all():   # False on NaN too
        raise SingularMetricError(f"metric not positive definite on {M.name}")
    h = 0.5 / phi
    u = dphi * h[:, None]
    A = d2phi * h[:, None, None]
    A -= (3.0 * u)[:, :, None] * u[:, None, :]
    # einsum("bii->bi") is a writeable view of each row's diagonal
    np.einsum("bii->bi", A)[...] += 0.5 * np.vecdot(u, u)[:, None]
    return phi, u, A


def _jacobi_batch(M: ChartManifold, xs: np.ndarray, vs: np.ndarray):
    """(Gamma v, Gamma(v, v), w) at each row (x, v) of xs, vs (B, n), without Rm.

    Gamma v is (Gamma v)^d_k = Gamma^d_kj v^j (B, n, n), Gamma(v, v) its
    product with v (B, n), and w_pk = Rm_pjkl v^j v^l (B, n, n), the
    Jacobi operator R(., v)v as a form. Every row's result depends on that
    row alone.

    A conformally flat chart, g = phi * I = e^(2u) * I, gives them in
    closed form from its ``conformal_jet``, in O(n^2) per row. With u and
    A of ``_conformal_form``, Gamma^i_jk = delta^i_j u_k + delta^i_k u_j -
    delta_jk u_i, so, with Euclidean dot products and matrices indexed
    [d, k], Gamma v = (u.v) I + v u^T - u v^T and Gamma(v, v) =
    2 (u.v) v - |v|^2 u, and contracting Rm = -phi A (.) delta with v^j v^l
    gives w = phi ((A v) v^T + v (A v)^T - |v|^2 A - (v^T A v) I).

    Any other chart takes the general formula, straight from the metric's
    2-jet in O(n^4) per row, where Rm costs n^5. Derivation: with A_alj =
    d_l g_aj + d_j g_al - d_a g_lj, Gamma v = g^-1 (A v) / 2, where (A v)_al = A_alj v^j = G_la - G_al + (D_v g)_al
    with G_ki = d_k g_ij v^j and D_v g = v^j d_j g. Contracting
    ``_curvature_batch``'s Rm_pjkl = (d_k d_j g_pl - d_k d_p g_lj -
    d_l d_j g_pk + d_l d_p g_kj) / 2 + Q_lpkj - Q_kplj, Q_lpkj =
    A_dlp Gamma^d_kj / 2, with v^j v^l term by term gives
    w = (T + T^T - d d g[v, v] - D_v D_v g) / 2 + (A v)^T (Gamma v) / 2
        - A_d.. Gamma^d(v, v) / 2,
    T_pk = d_k d_j g_pl v^j v^l, (d d g[v, v])_pk = d_p d_k g_lj v^l v^j;
    the two Q terms are the last two, since A is symmetric in its last
    two indices, and A_dkp c^d = G'_kp + G'_pk - (D_c g)_kp for the vector
    c = Gamma(v, v), G'_kp = d_k g_pd c^d. The metric, gradient and
    Hessian callbacks each read xs once, the metric behind ``_inverse_spd``'s
    positive-definiteness check.
    """
    if M.conformal_jet is not None:
        phi, u, A = _conformal_form(M, xs)
        uv = np.vecdot(u, vs)[:, None]
        vv = np.vecdot(vs, vs)[:, None]
        vu = vs[:, :, None] * u[:, None, :]
        gamma_v = vu - vu.mT
        np.einsum("bii->bi", gamma_v)[...] += uv
        Av = (A @ vs[:, :, None])[:, :, 0]
        w = Av[:, :, None] * vs[:, None, :]
        w += w.mT
        w -= vv[:, :, None] * A
        np.einsum("bii->bi", w)[...] -= np.vecdot(Av, vs)[:, None]
        w *= phi[:, None, None]
        return gamma_v, 2.0 * uv * vs - vv * u, w
    ginv = _inverse_spd(M.metric_at(xs), M.name)
    dg = M.metric_grad(xs)
    d2g = M.metric_hess(xs)
    B, n = dg.shape[:2]
    v = vs[:, :, None]
    vt = vs[:, None, :]

    def lowered(c):
        """(G, D_c g) for vectors c (B, n, 1): G_ki = d_k g_ij c^j, D_c g = c^j d_j g."""
        return ((dg.reshape(B, n * n, n) @ c).reshape(B, n, n),
                (c.mT @ dg.reshape(B, n, n * n)).reshape(B, n, n))

    G, Dv = lowered(v)
    Av = G.mT - G + Dv
    gamma_v = 0.5 * (ginv @ Av)
    gamma_vv = gamma_v @ v
    Gc, Dc = lowered(gamma_vv)
    # U_jkp = d_j d_k g_pl v^l; d2g is symmetric in its derivative pair and
    # in its metric pair, so T^T = v^j U_j.. and D_v D_v g = v^j v^l d_j d_l g
    U = d2g.reshape(B, n**3, n) @ v
    X = (vt @ U.reshape(B, n, n * n)).reshape(B, n, n)
    hvv = (U.reshape(B, n * n, n) @ v).reshape(B, n, n)
    dvv = (vt @ (vt @ d2g.reshape(B, n, n**3)).reshape(B, n, n * n)).reshape(B, n, n)
    w = 0.5 * (X + X.mT - hvv - dvv + Av.mT @ gamma_v - (Gc + Gc.mT - Dc))
    return gamma_v, gamma_vv[:, :, 0], w


def christoffel_at(M: ChartManifold, x: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients Gamma[i, j, k] = Gamma^i_jk, symmetric in (j, k)."""
    return _connection_batch(M, np.asarray(x, dtype=float)[None])[-1][0]


def curvature_tensor_at(M: ChartManifold, x: np.ndarray) -> np.ndarray:
    """All-lowered curvature Rm[i,j,k,l]; Rm(u,v,u,v) = sectional for orthonormal u,v."""
    return _curvature_batch(M, np.asarray(x, dtype=float)[None])[1][0]


def connection_and_curvature(M: ChartManifold, x: np.ndarray):
    """(metric, Gamma, Rm) at one point; shares the derivative evaluations."""
    g, gamma, rm = _curvature_batch(M, np.asarray(x, dtype=float)[None], want_gamma=True)
    return g[0], gamma[0], rm[0]


def frame_curvature(rm: np.ndarray, E: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrized R(E_a, v, E_b, v) over leading batch axes.

    rm (..., n, n, n, n), frame rows E (..., r, n), v (..., n) -> (..., r, r).
    """
    return frame_matrix(np.einsum("...ijkl,...j,...l->...ik", rm, v, v), E)


def frame_matrix(w: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Symmetrized E w E^T: the form w (..., n, n) on frame rows E (..., r, n).

    With w from ``_jacobi_batch`` this is the parallel-frame curvature
    matrix R(E_a, v, E_b, v) of the ray ODE and of the checks.
    """
    mat = E @ w @ E.mT
    return 0.5 * (mat + mat.mT)


# ---------------------------------------------------------------------------
# frames


def gram_schmidt(g: np.ndarray, vectors) -> np.ndarray:
    """Modified Gram-Schmidt in the inner product g, with re-orthogonalization.

    Near-dependent vectors (norm below 1e-10 of the original after
    projection) are dropped.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.array(v, dtype=float)
        scale = math.sqrt(max(w @ g @ w, 0.0))
        if scale == 0.0:
            continue
        for _ in range(2):  # second pass restores orthogonality lost to cancellation
            for b in basis:
                w = w - (b @ g @ w) * b
        norm = math.sqrt(max(w @ g @ w, 0.0))
        if norm > 1e-10 * scale:
            w = w / norm
            residual = max((abs(b @ g @ w) for b in basis), default=0.0)
            if residual > 1e-12:
                for b in basis:
                    w = w - (b @ g @ w) * b
                w = w / math.sqrt(w @ g @ w)
            basis.append(w)
    return np.array(basis) if basis else np.zeros((0, len(g)))


def complete_euclidean(first_row: np.ndarray) -> np.ndarray:
    """Orthonormal basis of R^d (rows) with the given unit vector first."""
    d = len(first_row)
    basis = [first_row]
    for e in np.eye(d):
        v = e.copy()
        for b in basis:
            v -= (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            basis.append(v / nrm)
        if len(basis) == d:
            break
    return np.array(basis)


def complete_frame(g: np.ndarray, seed_vectors) -> np.ndarray:
    """g-orthonormal basis whose leading vectors span the seeds, then filled out."""
    n = len(g)
    candidates = list(seed_vectors) + [np.eye(n)[i] for i in range(n)]
    basis = gram_schmidt(g, candidates)
    if len(basis) != n:
        raise SingularMetricError("frame completion failed; metric near-singular")
    return basis


# ---------------------------------------------------------------------------
# rho_k: the pointwise minimum of Ric_k


def _frame_tensor(rm: np.ndarray, linv: np.ndarray) -> np.ndarray:
    """Rm per row in the g-orthonormal frame of linv's rows."""
    rf = np.einsum("bai,bijkl->bajkl", linv, rm)
    rf = np.einsum("bcj,bajkl->backl", linv, rf)
    rf = np.einsum("bdk,backl->bacdl", linv, rf)
    return np.einsum("bel,bacdl->bacde", linv, rf)


RHO_ROUNDING = 32.0 * np.finfo(float).eps   # eigh error per unit of |A|
RHO_BLOCK = 64   # points per curvature batch; bounds the (rows, n, n, n, n) temporaries


def _k_sums(vals: np.ndarray) -> np.ndarray:
    """k vals_0 + vals_1 + ... + vals_k for k = 1 ... n - 1, per row of vals (B, n)."""
    k = np.arange(1, vals.shape[1])
    return (k - 1) * vals[:, :1] + np.cumsum(vals, axis=1)[:, 1:]


def _conformal_rho(M: ChartManifold, xs: np.ndarray):
    """(lo, hi), each (B, n - 1), of rho_1 ... rho_(n-1) on a conformally flat chart.

    Rm = P (.) g with the Schouten tensor P = -A / phi in the orthonormal
    frame of g = phi * I (A from ``_conformal_form``), so sec(X, Y) =
    P(X, X) + P(Y, Y) for orthonormal X, Y and Ric_k(u, span e_i) =
    k P(u, u) + sum_i P(e_i, e_i). Over orthonormal u, e_1 ... e_k that is
    at least (k - 1) lambda_1 + (lambda_1 + ... + lambda_(k+1)) with P's
    eigenvalues lambda ascending (Ky Fan, and P(u, u) >= lambda_1), with
    equality at the eigenvectors. lo is that sum less eigh's allowance and
    hi the same sum of P's Rayleigh quotients at its eigenvectors.
    """
    phi, _, A = _conformal_form(M, xs)
    P = (A + A.mT) / (-2.0 * phi[:, None, None])   # A's u u^T rounds asymmetrically
    w, V = np.linalg.eigh(P)
    allowance = (2.0 * RHO_ROUNDING * np.arange(1, M.dim)
                 * np.linalg.norm(P, axis=(1, 2))[:, None])
    return _k_sums(w) - allowance, _k_sums(np.vecdot(V, P @ V, axis=1))


def _schouten_rho(M: ChartManifold, xs: np.ndarray):
    """(lo, hi), each (B, n - 1), of rho_1 ... rho_(n-1) on any chart, from Rm.

    Rm in an orthonormal frame is first projected onto the symmetries of a
    curvature tensor (antisymmetric in each pair, symmetric under the pair
    swap), so that Ric, the Schouten tensor P = (Ric - s g / (2 (n - 1))) /
    (n - 2) and the Weyl part W = Rm - P (.) g all come from the tensor hi
    is read on. Ric_k(u, span e_i) = k P(u, u) + sum_i P(e_i, e_i) +
    sum_i W(u ^ e_i, u ^ e_i), and the forms u ^ e_i are orthonormal on
    Lambda^2, so rho_k is at least the Schouten sum of ``_conformal_rho``
    less k |W|_op, and equals that sum where W = 0. At k = n - 1 the W
    terms sum to W's Ricci contraction, 0, and rho_(n-1) is Ric's least
    eigenvalue. Ric and P share their eigenvectors v; hi is
    Ric_k(v_1, span(v_2 ... v_(k+1))), and at k = n - 1 the Ricci form at v_1.
    """
    g, rm = _curvature_batch(M, xs)
    t = _frame_tensor(rm, np.linalg.inv(np.linalg.cholesky(g)))
    t = t - t.transpose(0, 2, 1, 3, 4)
    t = t - t.transpose(0, 1, 2, 4, 3)
    t = 0.125 * (t + t.transpose(0, 3, 4, 1, 2))
    ric = np.einsum("bijil->bjl", t)
    w, V = np.linalg.eigh(ric)
    n = M.dim
    sec = np.diagonal(frame_curvature(t, V.mT, V[:, :, 0]), axis1=1, axis2=2)
    lo, hi = np.empty((2, len(xs), n - 1))
    hi[:, :-1] = np.cumsum(sec[:, 1:-1], axis=1)
    lo[:, -1] = w[:, 0] - RHO_ROUNDING * np.linalg.norm(ric, axis=(1, 2))
    hi[:, -1] = np.einsum("bi,bij,bj->b", V[:, :, 0], ric, V[:, :, 0])
    if n > 2:
        shift = np.trace(ric, axis1=1, axis2=2) / (2 * (n - 1))
        P = (ric - shift[:, None, None] * np.eye(n)) / (n - 2)
        lam = (w - shift[:, None]) / (n - 2)
        scale = np.linalg.norm(ric, axis=(1, 2)) / (n - 2)
        I, J = np.triu_indices(n, 1)
        a, b, eye = I[:, None], J[:, None], np.eye(n)
        W = t[:, a, b, I, J] - (P[:, a, I] * eye[b, J] + P[:, b, J] * eye[a, I]
                                - P[:, a, J] * eye[b, I] - P[:, b, I] * eye[a, J])
        weyl = np.abs(np.linalg.eigvalsh(W)).max(axis=1)
        k = np.arange(1, n - 1)
        lo[:, :-1] = (_k_sums(lam)[:, :-1] - k * weyl[:, None]
                      - k * RHO_ROUNDING * (2.0 * scale + np.linalg.norm(W, axis=(1, 2)))[:, None])
    return lo, hi


def _product_splits(k: int, na: int, nb: int) -> tuple[range, range]:
    """The j whose rho_j of each factor bound rho_k of an na + nb product (``_product_rho``)."""
    return range(max(0, k - nb), min(k, na - 1) + 1), range(max(0, k - na), min(k, nb - 1) + 1)


def _product_rho(M: ChartManifold, X: np.ndarray):
    """(lo, hi), each (P, n - 1), of rho_1 ... rho_(n-1) on a product M_a x M_b.

    A unit u = cos(a) u_a + sin(a) u_b (u_a, u_b unit in the factors) has
    R_u = R(., u)u block-diagonal on u-perp: cos^2(a) R_(u_a) on u_a-perp in
    M_a, sin^2(a) R_(u_b) on u_b-perp in M_b, and 0 on -sin(a) u_a + cos(a)
    u_b. The least Ric_k over k-planes, the sum of R_u's k smallest
    eigenvalues, is a minimum over splits of functions affine in cos^2(a),
    so concave in it, and least at cos^2(a) = 0 or 1. At u = u_a the
    spectrum is R_(u_a)'s and n_b zeros, so rho_k = min over factors i and
    max(0, k - n_other) <= j <= min(k, n_i - 1) of rho_j(M_i), rho_0 = 0,
    each attained with k - j directions of the other factor. lo and hi are
    the same minima of the factors' lo and hi; each factor is evaluated
    once, and a factor that is a product recurses.
    """
    Ma, Mb = M.extra["factors"]
    n, na, nb = M.dim, Ma.dim, Mb.dim
    (lo_a, hi_a), (lo_b, hi_b) = _rho_brackets(Ma, X[:, :na]), _rho_brackets(Mb, X[:, na:])
    lo, hi = np.empty((2, len(X), n - 1))
    for k in range(1, n):
        a, b = _product_splits(k, na, nb)
        lo[:, k - 1] = np.minimum(lo_a[:, a].min(axis=1), lo_b[:, b].min(axis=1))
        hi[:, k - 1] = np.minimum(hi_a[:, a].min(axis=1), hi_b[:, b].min(axis=1))
    return lo, hi


def rho_method(M: ChartManifold, k: int) -> str:
    """The route ``rho_k`` takes on M at k, read from the chart's structure:
    "product" (a ``product`` chart), "conformal" (``conformal_jet`` set),
    else "ricci" at k = n - 1 and "schouten" below it."""
    if M.extra.get("kind") == "product":
        return "product"
    if M.conformal_jet is not None:
        return "conformal"
    return "ricci" if k == M.dim - 1 else "schouten"


def _rho_brackets(M: ChartManifold, X: np.ndarray):
    """(lo, hi), each (P, n): column k brackets rho_k at each row of X, and
    column 0 is rho_0 = 0. Rows outside a declared curvature support are 0."""
    lo, hi = np.zeros((2, len(X), M.dim))
    if M.dim == 1:   # a curve has only rho_0
        return lo, hi
    rows = np.arange(len(X))
    if M.curvature_support is not None:
        # the metric is exactly flat outside the declared support
        rows = rows[M.curvature_support.contains(M.domain.wrap(X))]
    route = {"product": _product_rho, "conformal": _conformal_rho}.get(rho_method(M, 1),
                                                                        _schouten_rho)
    for start in range(0, len(rows), RHO_BLOCK):
        block = rows[start:start + RHO_BLOCK]
        lo[block, 1:], hi[block, 1:] = route(M, X[block])
    return lo, hi


class RhoBracket(NamedTuple):
    """Per-row bounds lo <= rho_k <= hi; ``hi`` is a value rho_k attains."""

    lo: np.ndarray
    hi: np.ndarray


def rho_k(M: ChartManifold, X: np.ndarray, k: int) -> RhoBracket:
    """Pointwise minimum of Ric_k over unit directions and k-planes, per row of X.

    Bracketed on the route ``rho_method`` reads from the chart: lo is a
    certified lower bound and hi a value rho_k attains, and hi - lo is at
    rounding level wherever the Weyl tensor vanishes (on every conformally
    flat chart) and on products of such charts. No value depends on the
    other rows. Rows outside a declared curvature support are 0.0.
    """
    n = M.dim
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    lo, hi = _rho_brackets(M, np.asarray(X, dtype=float))
    return RhoBracket(lo[:, k], hi[:, k])


def rho_k_at(M: ChartManifold, x: np.ndarray, k: int) -> float:
    """rho_k at one point: the attained end ``hi`` of ``rho_k``'s bracket."""
    return float(rho_k(M, [x], k).hi[0])


class DeficitNorm(NamedTuple):
    value: float
    error_estimate: float


def lp_deficit_norm(M: ChartManifold, H: float, p: float,
                    rho: Callable[[np.ndarray], np.ndarray], *,
                    resolution: int = 8) -> DeficitNorm:
    """L^p norm of (rho_k - H)_- over the chart domain, with error estimate.

    ``rho`` maps points (P, n) to rho_k (P,), e.g. ``Scenario.rho`` or
    ``lambda X: rho_k(M, X, k).hi``.
    Integrates against the Riemannian volume element; the error estimate
    is the difference against a strictly coarser tensor grid, so
    ``resolution`` must be at least 2. When the manifold
    declares a curvature support box and H <= 0 the integration is
    restricted to it (the deficit vanishes identically outside).
    """
    if p < 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    if resolution < 2:
        raise ValueError(f"need resolution >= 2, got {resolution}")
    region = M.domain
    if M.curvature_support is not None and H <= 0.0:
        try:
            region = region.intersect(M.curvature_support)
        except ValueError:
            return DeficitNorm(0.0, 0.0)  # the support misses the domain

    def norm(res: int) -> float:
        pts, w = region.quadrature_grid(res)
        vals = np.asarray(rho(pts), dtype=float)
        if vals.shape != (len(pts),):
            raise ValueError(f"rho must map {len(pts)} points to {len(pts)} values, "
                             f"got shape {vals.shape}")
        deficit = np.maximum(H - vals, 0.0)
        return float(np.sum(w * M.sqrt_det_at(pts) * deficit**p)) ** (1.0 / p)

    value = norm(resolution)
    coarse = norm(min(resolution - 1, max(3, (2 * resolution) // 3)))
    return DeficitNorm(value, abs(value - coarse))
