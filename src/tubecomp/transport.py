"""Normal geodesic rays with parallel frames and the Jacobi matrix pair.

The singular Riccati initial data (1/t) P_xi is never integrated: the
linear Jacobi system J'' = -R(t) J with block initial conditions
J(0) = diag(I_m, 0), J'(0) = diag(S_xi, I_{n-m-1}) carries the same
information and is regular at t = 0. The shape operator of the distance
level sets is recovered as S(t) = J'(t) J(t)^{-1} by ``shape_operator``,
the one place that forms it, and the polar volume density det J(t) by one
Laplace expansion (``_laplace_det``): ``jacobi_det`` applies it to values,
and the focal search to the J of each dense segment in Bernstein form, on
which det J is a polynomial of degree 7(n-1).
A ray is read through arrays of times only: ``RaySolution.fields(ts)``
gives the state parts, and ``RaySolution.shape_fields(ts)`` adds S behind
the guards that keep it away from t = 0 and the first focal time, which
``RayBatch.focal_times`` finds for all rays of a batch at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Sequence

import numpy as np
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.ivp import MESSAGES
from scipy.integrate._ivp.rk import DOP853 as _DOP853, MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.optimize import brentq

from .geometry import ChartManifold, _jacobi_batch
from .geometry import complete_euclidean, complete_frame, frame_matrix
from .quadrature import cumulative_trapezoid
from .submanifolds import BaseNode, EmbeddedSubmanifold, NonNormalVectorError
from .submanifolds import base_node, weingarten

__all__ = [
    "RayIntegrationError",
    "FocalSingularityError",
    "NormalRay",
    "RaySolution",
    "RayBatch",
    "integrate_ray",
    "integrate_rays",
    "jacobi_det",
    "shape_operator",
    "partial_trace",
    "split_traces",
    "structural_residuals",
    "growth_factors",
]


_EPS = np.finfo(float).eps
_ERROR_EXPONENT = -1.0 / (_DOP853.error_estimator_order + 1)
_EVENT_MESSAGE = MESSAGES[1]


class RayIntegrationError(RuntimeError):
    """Chart exit or adaptive step-size collapse along a ray.

    ``t`` is the failure time, ``index`` the ray's position in its batch.
    """

    def __init__(self, message: str, t: float, index: int = 0):
        super().__init__(message)
        self.t = t
        self.index = index


class FocalSingularityError(ValueError):
    """Shape operator requested at or beyond the first focal time."""


@dataclass(eq=False)
class NormalRay:
    """One normal geodesic: base parameter, unit normal, horizon, tolerance."""

    base_param: np.ndarray
    xi: np.ndarray
    t_max: float
    tolerance: float = 1e-9


@cache
def _layout(n: int) -> dict[str, tuple[slice, tuple]]:
    """{part: (column slice, shape)} of a ray state, in order; read-only.

    The state of a ray is position x (n), velocity v (n), parallel frame
    rows E (n-1, n), and the Jacobi pair J, J' (n-1, n-1 each), in this
    order; this function and ``_pack`` are the only code that knows it.
    """
    shapes = {"x": (n,), "v": (n,), "E": (n - 1, n), "J": (n - 1, n - 1), "Jp": (n - 1, n - 1)}
    ends = np.cumsum([0] + [math.prod(s) for s in shapes.values()]).tolist()
    return {p: (slice(a, b), s) for (p, s), a, b in zip(shapes.items(), ends, ends[1:])}


def _split(Y: np.ndarray, n: int):
    """(x, v, E, J, J') views of ray states Y of shape (..., state)."""
    return tuple(Y[..., c].reshape(Y.shape[:-1] + s) for c, s in _layout(n).values())


def _pack(x, v, E, J, Jp) -> np.ndarray:
    """Ray states (..., state) from their parts; the inverse of ``_split``."""
    lead = np.shape(x)[:-1]
    return np.concatenate([x, v] + [np.reshape(a, lead + (-1,)) for a in (E, J, Jp)],
                          axis=-1)


def _initial_state(node: BaseNode, xi) -> tuple[np.ndarray, np.ndarray]:
    """(state, S_xi) of the ray leaving a base node along the unit normal xi.

    The Jacobi data are J(0) = diag(I_m, 0), J'(0) = diag(S_xi, I); the
    frame is the node's tangent frame followed by xi's orthogonal
    complement in the normal space (for a point, in the whole space).
    """
    g = node.metric
    m, n = node.tangent.shape
    xi = np.asarray(xi, dtype=float)
    if abs(xi @ g @ xi - 1.0) > 1e-10:
        raise NonNormalVectorError(f"|xi|_g^2 = {xi @ g @ xi}, not unit")
    if np.max(np.abs(node.tangent @ g @ xi), initial=0.0) > 1e-8:
        raise NonNormalVectorError("xi is not normal to the submanifold")
    S_xi = weingarten(node.second_fundamental, g, xi)
    normal = node.normal if m > 0 else complete_frame(g, [xi])
    # orthonormal basis of the normal space with xi first, in frame coefficients
    coeff = normal @ g @ xi
    nperp = complete_euclidean(coeff / np.linalg.norm(coeff))[1:] @ normal
    frame0 = np.vstack([node.tangent, nperp])      # (n-1, n)
    J0 = np.zeros((n - 1, n - 1))
    J0[:m, :m] = np.eye(m)
    Jp0 = np.zeros((n - 1, n - 1))
    Jp0[:m, :m] = S_xi
    Jp0[m:, m:] = np.eye(n - m - 1)
    return _pack(node.position, xi, frame0, J0, Jp0), S_xi


def _row_searchsorted(a: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(a[i], v[i], side)`` for every row i of a (rows, k) and v (rows, q).

    One search serves all rows, since a loop would cost a Python call per
    row: entry (i, j) becomes the complex key i k + 1j a[i, j], and numpy
    orders complex numbers real part first, so v[i, j], keyed alike, lands
    among row i's entries alone, by the same float comparisons, at i k
    plus its place in the row.
    """
    offsets = np.arange(0, a.size, a.shape[1])[:, None]
    keys, probes = np.empty(a.shape, complex), np.empty(v.shape, complex)
    keys.real, keys.imag, probes.real, probes.imag = offsets, a, offsets, v
    return np.searchsorted(keys.ravel(), probes, side) - offsets


def _dense_states(knots, starts, coeffs, last, ts, rows=None, cols=None) -> list[np.ndarray]:
    """Columns (k, q, width) of store rows ``rows`` (default all) at their own times ts (k, q).

    ``starts`` (state, rays * segments) and ``coeffs`` (7, state, rays *
    segments) are a ``RayBatch``'s plane-major store, in which segment s of
    ray i is column i * segments + s. One array per column slice of ``cols``
    (default the whole state); no other column is evaluated. Repeats scipy's
    ``OdeSolution`` and ``Dop853DenseOutput`` operation for operation, so
    every value is bitwise what scipy returns: a time picks the segment
    whose knot interval holds it (the lower one at a knot), clamped to the
    ray's first and last segment, and that segment's interpolant is
    evaluated by the same Horner scheme in x = (t - t_old) / h. Each of the
    seven coefficient planes is gathered by its own ``np.take`` of the
    requested rows, which are contiguous in the store, so a read holds at
    most one gathered plane besides its Horner sum; one gather of all seven
    planes would hold seven.
    """
    rows = (np.arange(len(knots)) if rows is None else np.asarray(rows))[:, None]
    # knots[:, 0] = 0, so the count of later knots below t is
    # searchsorted(knots, t) - 1 already floored at segment 0
    seg = np.minimum(_row_searchsorted(knots[rows[:, 0], 1:], ts, "left"), last[rows])
    t_old = knots[rows, seg]
    x = ((ts - t_old) / (knots[rows, seg + 1] - t_old)).ravel()
    one_minus_x = 1.0 - x
    at = (rows * (knots.shape[1] - 1) + seg).ravel()
    out = []
    for c in cols or [slice(None)]:
        y = np.zeros((len(starts[c]), len(at)))
        for i in range(len(coeffs)):
            y += np.take(coeffs[-1 - i, c], at, axis=1)
            y *= x if i % 2 == 0 else one_minus_x
        y += np.take(starts[c], at, axis=1)
        # C order, (k, q, width), as the matrix products downstream read it
        out.append(np.ascontiguousarray(y.T).reshape(ts.shape + y.shape[:1]))
    return out


@dataclass(eq=False)
class RayBatch(Sequence):
    """Dense output of a batch of rays, kept as arrays; item i is ray i's view.

    Segment s of ray i covers [knots[i, s], knots[i, s + 1]], starts at the
    state starts[i, s] and has the (7, state) DOP853 interpolant
    coefficients coeffs[i, s]; last[i] is the ray's last segment, and knots
    past it are +inf. A ray with t_max = 0 has the one segment [0, inf)
    with zero coefficients, so it evaluates to its initial state. Only this
    module knows the layout. A read evaluates only the columns of the parts it
    asks for. det J in Bernstein form and ``focal_times()`` are cached read-only.

    The store is held plane-major: ``coeff_planes`` (7, state, rays *
    segments) and ``start_planes`` (state, rays * segments), segment s of
    ray i in column i * segments + s, so the values of one state column
    in one coefficient plane are one contiguous row and a read gathers
    them plane by plane (``_dense_states``). ``starts`` and ``coeffs`` are
    views of these arrays in the (rays, segments[, 7], state) shapes they
    are built from; arrays that are already such views are not copied.
    """

    manifold: ChartManifold
    sigma: EmbeddedSubmanifold
    rays: list[NormalRay]
    weingarten0: list[np.ndarray]
    knots: np.ndarray        # (rays, segments + 1)
    starts: np.ndarray       # (rays, segments, state)
    coeffs: np.ndarray       # (rays, segments, 7, state)
    last: np.ndarray         # (rays,)
    start_planes: np.ndarray = field(init=False, repr=False)   # (state, rays * segments)
    coeff_planes: np.ndarray = field(init=False, repr=False)   # (7, state, rays * segments)

    def __post_init__(self):
        rays, segments, power, state = np.shape(self.coeffs)
        self.coeff_planes = np.ascontiguousarray(
            np.transpose(self.coeffs, (2, 3, 0, 1)), dtype=float).reshape(power, state, -1)
        self.start_planes = np.ascontiguousarray(
            np.transpose(self.starts, (2, 0, 1)), dtype=float).reshape(state, -1)
        self.coeffs = self.coeff_planes.reshape(power, state, rays, segments).transpose(2, 3, 0, 1)
        self.starts = self.start_planes.reshape(state, rays, segments).transpose(1, 2, 0)

    def __len__(self) -> int:
        return len(self.rays)

    def __getitem__(self, i) -> RaySolution:
        return RaySolution(self, range(len(self.rays))[i])

    def fields(self, ts, rows=None, parts=None):
        """``parts`` (x v E J Jp by default) of rays ``rows`` at their own times ts (rows, q)."""
        n, ts = self.manifold.dim, np.asarray(ts, dtype=float)
        cols = parts and [_layout(n)[p][0] for p in parts]
        ys = _dense_states(self.knots, self.start_planes, self.coeff_planes, self.last, ts,
                           rows, cols)
        if parts is None:
            return _split(ys[0], n)
        return tuple(y.reshape(y.shape[:-1] + _layout(n)[p][1]) for y, p in zip(ys, parts))

    def density(self, ts, rows=None) -> np.ndarray:
        """det J of rays ``rows`` (default all) at their own times ts (rows, q)."""
        return jacobi_det(self.fields(ts, rows, ("J",))[0])

    def shape_fields(self, ts, rows=None):
        """(S, (x, v, E, J, J')) of rays ``rows`` (default all) at their own times ts (rows, q).

        S = J' J^{-1} comes from the same single read as the fields. Each
        row is guarded against its own ray: a ValueError for a time outside
        [0, t_max], and FocalSingularityError for t <= 0, t at or past the
        ray's first focal time (within 1e-9), or |det J| below 1e-12 times
        ``det_scale``. A guard names the first offending time in row order.
        """
        rows = np.arange(len(self)) if rows is None else np.asarray(rows)
        ts = np.asarray(ts, dtype=float)
        t_max = np.array([float(self.rays[i].t_max) for i in rows])[:, None]
        out = ~((ts >= 0.0) & (ts <= t_max + 1e-12))
        if out.any():
            i = np.argwhere(out)[0]
            raise ValueError(f"t={ts[tuple(i)]} outside integrated range "
                             f"[0, {t_max[i[0], 0]}]")
        if (ts <= 0.0).any():
            raise FocalSingularityError("shape operator singular at t = 0")
        focal = self.focal_times()[rows][:, None]
        late = ts >= focal - 1e-9
        if late.any():
            i = np.argwhere(late)[0]
            raise FocalSingularityError(
                f"t={ts[tuple(i)]} at/beyond focal time {focal[i[0], 0]:.9g}")
        fields = self.fields(np.minimum(ts, t_max), rows)
        J = fields[3]
        det = jacobi_det(J)
        small = np.abs(det) < 1e-12 * self.det_scale(ts, rows)
        if small.any():
            i = tuple(np.argwhere(small)[0])
            raise FocalSingularityError(
                f"det J = {det[i]:.3e} at t={ts[i]}: at/beyond focal time")
        return shape_operator(J, fields[4]), fields

    def det_scale(self, ts, rows=None) -> np.ndarray:
        """An upper bound of max(1, |det J|) on [0, t], rays ``rows`` at their own times ts.

        The largest |coefficient| of det J in Bernstein form on each earlier
        segment and on the segment holding t, cut at t by de Casteljau; on a
        first segment det J = x^d q, and x^d <= 1.
        """
        rows = np.arange(len(self)) if rows is None else np.asarray(rows)
        ts, knots, b = np.asarray(ts, dtype=float), self.knots[rows], self._det_bernstein[0]
        S, d = knots.shape[1] - 1, self.manifold.dim - self.sigma.dim - 1
        seg = np.minimum(_row_searchsorted(knots[:, 1:], ts, "left"), self.last[rows, None])
        t_old, t_new = (np.take_along_axis(knots, seg + i, axis=1) for i in (0, 1))
        x = np.clip((ts - t_old) / (t_new - t_old), 0.0, 1.0)
        cut = np.abs(_cut(b[:, rows[:, None] * S + seg], x)).max(axis=0)
        cut *= np.where(seg == 0, x**d, 1.0)
        top = np.pad(np.abs(b).max(axis=0).reshape(-1, S)[rows, :-1], ((0, 0), (1, 0)))
        earlier = np.take_along_axis(np.maximum.accumulate(top, axis=1), seg, axis=1)
        return np.maximum(1.0, np.maximum(earlier, cut))

    def _jacobi_terms(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(terms, divide) of store columns cols: J's start and coefficients (8, r*r,
        cols), and on first segments J's columns m.., zero at t = 0, to divide by x."""
        n, m, J = self.manifold.dim, self.sigma.dim, _layout(self.manifold.dim)["J"][0]
        terms = np.concatenate([self.start_planes[None, J, cols], self.coeff_planes[:, J, cols]])
        first = cols % (self.knots.shape[1] - 1) == 0
        return terms, (np.arange((n - 1) ** 2) % (n - 1) >= m)[:, None] & first

    @cached_property
    def _det_bernstein(self) -> tuple[np.ndarray, np.ndarray]:
        """``_bernstein_det`` of every store segment, column i * segments + s; on a first
        segment of q = det J / x^d (d = n - m - 1). Read-only."""
        out = _bernstein_det(*self._jacobi_terms(np.arange(self.coeff_planes.shape[-1])))
        for a in out:
            a.flags.writeable = False
        return out

    def focal_times(self) -> np.ndarray:
        """Every ray's first zero of det J in (0, t_max], inf where there is none; read-only.

        It reads det J in Bernstein form, never the store; on a first segment det
        J / t^d, 1 at t = 0, stands in for det J. With tol = 1e-9 max(1,
        |coefficient|) over the ray, a segment whose coefficients all pass tol by
        their rounding allowance holds no zero and no minimum at or below tol. The
        others are split (``_first_crossings``) for det J's first sign change x_r
        and first local minimum x_m at or below tol; a minimum at a knot counts
        only if det J falls into it. The focal time is x_m if det J(x_m) >= -tol
        (a touching zero, or the sign changes rounding puts around one), else x_r,
        else t_max if det J falls to at most tol there, else inf. ``_refine``
        settles x_r or x_m where the polynomial leaves it imprecise.
        """
        return self._focal_times

    @cached_property
    def _focal_times(self) -> np.ndarray:
        (b, allowance), R = self._det_bernstein, len(self)
        d, D = self.manifold.dim - self.sigma.dim - 1, len(b) - 1
        ray, seg = np.divmod(np.arange(b.shape[1]), self.knots.shape[1] - 1)
        live = np.flatnonzero(seg <= self.last[ray])
        ray, seg, P, allowance = ray[live], seg[live], b[:, live], allowance[live]
        t_old, first = self.knots[ray, seg], seg == 0
        h, tol = self.knots[ray, seg + 1] - t_old, np.full(R, 1e-9)
        np.maximum.at(tol, ray, 1e-9 * np.abs(P).max(axis=0))
        P[:, first] /= h[first] ** d
        allowance[first] /= h[first] ** d
        # the sign of (det J)' at each segment's end, where det J = (h x)^d P on a first
        falls = d * first * P[-1] + D * (P[-1] - P[-2]) < 0.0
        at_end = seg == self.last[ray]
        k = np.flatnonzero(~(P.min(axis=0) - allowance > tol[ray]))
        # -(det J)' raised to degree D: its + to - sign changes are det J's minima
        slope = np.pad(np.diff(P[:, k], axis=0), ((1, 1), (0, 0)))
        w = np.linspace(0.0, 1.0, len(P))[:, None]
        f = np.hstack([P[:, k], -w * slope[:-1] - (1.0 - w) * slope[1:]])
        g, thr, segs = np.hstack([P[:, k]] * 2), np.tile(tol[ray[k]], 2), np.tile(k, 2)
        col, x, gx = _first_crossings(f, g, thr)
        # and at a later segment's start, where det J is already <= 0, or where
        # -(det J)' is and det J fell into the knot
        knot = np.flatnonzero((f[0] <= 0.0) & (g[0] <= thr) & (seg[segs] > 0)
                              & ((np.arange(len(segs)) < len(k)) | falls[segs - 1]))
        col, x, gx = np.r_[col, knot], np.r_[x, 0.0 * knot], np.r_[gx, g[0, knot]]
        c, is_min = segs[col], col >= len(k)
        t, ray = t_old[c] + x * h[c], ray[c]
        x_r, x_m, at_m = np.full(R, math.inf), np.full(R, math.inf), np.full(R, np.nan)
        np.fmin.at(x_r, ray[~is_min], t[~is_min])
        np.fmin.at(x_m, ray[is_min], t[is_min])
        first_min = is_min & (t == x_m[ray])
        at_m[ray[first_min]] = gx[first_min]
        use_min = at_m >= -tol
        focal = np.where(use_min, x_m, x_r)
        # the chosen zero of det J (of (det J)' at a minimum) moves by at most allowance
        # / |(det J)'| (2 D allowance / |(det J)''|); past 2^-30, at a zero of
        # multiplicity 3 or more, it is refined
        chosen = np.flatnonzero((t == focal[ray]) & (is_min == use_min[ray]))
        chosen = chosen[np.unique(ray[chosen], return_index=True)[1]]
        c, x = c[chosen], x[chosen]
        dP = D * np.diff(P[:, c], axis=0)
        bend = np.abs(_cut(np.diff(dP, axis=0), x)[-1]) * (D - 1) / (2 * D)
        sharp = np.where(is_min[chosen], bend, np.abs(_cut(dP, x)[-1]))
        loose = np.flatnonzero(~(allowance[c] <= 2.0**-30 * sharp))
        if len(loose):
            c, x = c[loose], x[loose]
            focal[ray[chosen[loose]]] = t_old[c] + h[c] * self._refine(live[c], x)
        t_max = np.array([float(r.t_max) for r in self.rays])
        ends = np.isinf(focal) & (np.abs(P[-1, at_end]) <= tol) & falls[at_end]
        focal = np.where(t_max > 0.0, np.where(ends, t_max, focal), math.inf)
        focal.flags.writeable = False
        return focal

    def _refine(self, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x in [0, 1] on store columns cols moved to det J's first zero within 2^-9 of
        it, det J from the entries' values: on 17 points, the first where det J <= 0,
        or else its minimum, and 2 of their 16 steps around it, 13 times.

        The Bernstein product keeps only absolute accuracy, so it places a zero of
        multiplicity 3 or more to about 1e-8; each entry has a simple zero, so
        their values, multiplied (``jacobi_det``), keep relative accuracy.
        """
        terms, divide = self._jacobi_terms(cols)
        r, entries = self.manifold.dim - 1, _dense_entries(terms, divide)
        entries /= np.array([math.comb(7, j) for j in range(8)])[:, None, None]
        lo, hi = np.maximum(x - 2.0**-9, 0.0), np.minimum(x + 2.0**-9, 1.0)
        for _ in range(13):
            xs = lo + (hi - lo) * np.linspace(0.0, 1.0, 17)[:, None]
            v = _cut(np.broadcast_to(entries[:, :, None], (8, r * r) + xs.shape), xs)[-1]
            det = jacobi_det(np.moveaxis(v, 0, -1).reshape(xs.shape + (r, r)))
            i = np.where((det <= 0.0).any(axis=0), (det <= 0.0).argmax(axis=0), det.argmin(axis=0))
            x = xs[i, np.arange(len(x))]
            lo, hi = np.maximum(lo, x - (hi - lo) / 16), np.minimum(hi, x + (hi - lo) / 16)
        return x


@dataclass(frozen=True, eq=False)
class RaySolution:
    """Ray ``index`` of a RayBatch, a stateless view read at times in [0, t_max].

    ``fields(ts)`` gives (x, v, E, J, J'): position, velocity, parallel
    frame rows (rows 0..m-1 start tangent, the rest normal), and the Jacobi
    pair; ``density(ts)`` gives det J; ``shape_fields(ts)`` gives the shape
    operator S = J' J^{-1} together with the fields it was formed from.
    """

    batch: RayBatch
    index: int

    @property
    def n(self) -> int:
        return self.batch.manifold.dim

    @property
    def m(self) -> int:
        return self.batch.sigma.dim

    @property
    def t_max(self) -> float:
        return self.batch.rays[self.index].t_max

    @property
    def weingarten0(self) -> np.ndarray:
        return self.batch.weingarten0[self.index]

    def fields(self, ts, parts=None):
        """``parts`` (default (x, v, E, J, J')) at a time t or along a 1-D array of times ts."""
        ts = np.asarray(ts, dtype=float)
        values = self.batch.fields(ts.reshape(1, -1), [self.index], parts)
        return tuple(p[0].reshape(ts.shape + p.shape[2:]) for p in values)

    def density(self, ts):
        """Polar volume density det J at the time or times ts."""
        ts = np.asarray(ts, dtype=float)
        return self.batch.density(ts.reshape(1, -1), [self.index])[0].reshape(ts.shape)

    def shape_fields(self, ts):
        """(S, (x, v, E, J, J')) at a time t or along a 1-D array of times ts.

        The ray's row of ``RayBatch.shape_fields``, with its guards: a
        ValueError for a time outside [0, t_max], and FocalSingularityError
        for t <= 0, t at or past the first focal time (within 1e-9), or
        |det J| below 1e-12 times ``det_scale(t)``.
        """
        ts = np.asarray(ts, dtype=float)
        S, fields = self.batch.shape_fields(ts.reshape(1, -1), [self.index])
        return (S[0].reshape(ts.shape + S.shape[2:]),
                tuple(p[0].reshape(ts.shape + p.shape[2:]) for p in fields))

    def det_scale(self, ts):
        """An upper bound of max(1, |det J|) on [0, t] for each time t of ts."""
        ts = np.asarray(ts, dtype=float)
        return self.batch.det_scale(ts.reshape(1, -1), [self.index])[0].reshape(ts.shape)

    def focal_time(self) -> float:
        """The ray's first focal time from ``RayBatch.focal_times``, inf if none."""
        return float(self.batch.focal_times()[self.index])


def _ray_rhs(M: ChartManifold, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Derivative of every row of Y: geodesic, parallel frame, Jacobi pair.

    One ``_jacobi_batch`` call covers all rows: the geodesic term
    -Gamma(v, v) and the frame term -E (Gamma v)^T come from its Gamma v,
    and J'' = -R(t) J from its Jacobi operator w on the frame
    (``frame_matrix``); Rm is never formed. Each row's result does not
    depend on the other rows. The five parts are written straight into
    their columns of ``out`` (a new array by default), such as a stage slot
    of the integrator, so no packed copy is made. Each part is formed in an
    array of its own and then copied in, so its bits do not depend on
    ``out``'s layout.
    """
    x, v, E, J, Jp = _split(Y, M.dim)
    gamma_v, gamma_vv, w = _jacobi_batch(M, x, v)
    out = np.empty_like(Y) if out is None else out
    dx, dv, dE, dJ, dJp = _split(out, M.dim)
    dx[...] = v
    np.negative(gamma_vv, out=dv)
    dE[...] = -E @ gamma_v.mT
    dJ[...] = Jp
    dJp[...] = -frame_matrix(w, E) @ J
    return out


def _chart_exit_fn(M: ChartManifold):
    """Event function of the state rows: negative once a ray leaves the chart."""
    n = M.dim
    lo, hi = M.domain.lo, M.domain.hi
    margin = 0.05 * np.max(M.domain.widths())
    periodic = np.array(M.domain.periodic)

    def chart_exit(y):
        # periodic coordinates wrap; open ones must stay inside the chart
        pos = _split(y, n)[0]
        over = np.where(periodic, -1.0,
                        np.maximum(lo - margin - pos, pos - hi - margin))
        return -np.max(over, axis=-1)
    return chart_exit


def _nonzero(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nonzero coefficients, their stage indices) of one tableau row."""
    stages = np.flatnonzero(coeffs)
    return coeffs[stages], stages


# every stage sum's nonzero coefficients, computed once: the A rows (row 12
# is never formed, stage 12 being f(y_new)), B, the four dense-output rows D,
# and the error rows E5 and E3
_A_ROWS = [_nonzero(row[:s]) for s, row in enumerate(dop853_coefficients.A)]
_B = _nonzero(_DOP853.B)
_D_ROWS = [_nonzero(row) for row in dop853_coefficients.D]
_E5, _E3 = _nonzero(_DOP853.E5), _nonzero(_DOP853.E3)


def _combine(row: tuple[np.ndarray, np.ndarray], K: np.ndarray) -> np.ndarray:
    """sum_s c_s K[s] over a tableau row's nonzero (c_s, s), in one einsum.

    The einsum adds the products into a zeroed output stage by stage, left
    to right, so each element is (((0 + c_0 K[0]) + c_1 K[1]) + ...), the
    same operations whatever the batch size. A BLAS product (``tensordot``,
    ``@``) would choose its own summation order, which may depend on the
    batch.
    """
    coeffs, stages = row
    return np.einsum("s,s...->...", coeffs, K[stages])


def _rms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=1)) / math.sqrt(x.shape[1])


def _initial_steps(M, y0, f0, t_end, rtol, atol) -> np.ndarray:
    """scipy's ``select_initial_step`` for every row, starting at t = 0."""
    scale = atol[:, None] + np.abs(y0) * rtol[:, None]
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_end)
        f1 = _ray_rhs(M, y0 + h0[:, None] * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / (_DOP853.error_estimator_order + 1)))
    return np.minimum(np.minimum(100.0 * h0, h1), t_end)


def _dop853_step(M, y, h, K) -> np.ndarray:
    """One DOP853 step of every row; K[0] holds f(y), K[1:13] get the stages."""
    hcol = h[:, None]
    for s in range(1, _DOP853.n_stages):
        _ray_rhs(M, y + _combine(_A_ROWS[s], K) * hcol, out=K[s])
    y_new = y + hcol * _combine(_B, K)
    _ray_rhs(M, y_new, out=K[_DOP853.n_stages])
    return y_new


def _error_norms(K, h, scale) -> np.ndarray:
    """DOP853's blended 5th/3rd-order RMS error norm of every row."""
    err5 = _combine(_E5, K) / scale
    err3 = _combine(_E3, K) / scale
    e5 = np.sum(err5 * err5, axis=1)
    e3 = np.sum(err3 * err3, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * scale.shape[1])
    return np.where((e5 == 0.0) & (e3 == 0.0), 0.0, norm)


def _dense_coefficients(M, K, y_old, y_new, h) -> np.ndarray:
    """DOP853 dense-output coefficients F (7, rows, state) of accepted steps."""
    hcol = h[:, None]
    for s in range(_DOP853.n_stages + 1, dop853_coefficients.N_STAGES_EXTENDED):
        _ray_rhs(M, y_old + _combine(_A_ROWS[s], K) * hcol, out=K[s])
    f_old, f_new = K[0], K[_DOP853.n_stages]
    delta = y_new - y_old
    F = np.empty((dop853_coefficients.INTERPOLATOR_POWER,) + y_old.shape)
    F[0] = delta
    F[1] = hcol * f_old - delta
    F[2] = 2 * delta - hcol * (f_new + f_old)
    for row, d in enumerate(_D_ROWS, start=3):
        F[row] = hcol * _combine(d, K)
    return F


def integrate_rays(M: ChartManifold, sigma: EmbeddedSubmanifold,
                   rays: Sequence[NormalRay],
                   nodes: Sequence[BaseNode] | None = None) -> RayBatch:
    """Integrate geodesic + parallel frame + Jacobi system along many rays.

    All rays advance together as one (rays, state) array through scipy's
    DOP853 tables, so each Runge-Kutta stage makes one ``_jacobi_batch``
    call.
    Every step rule of ``solve_ivp(method="DOP853")`` applies per ray: the
    initial step, the RMS error norm over the ray's own state (rtol is the
    ray's tolerance, atol 1e-2 rtol), the step factors, the minimum-step
    collapse and the chart-exit event, rooted on the ray's dense segment.
    A ray's solution therefore does not depend on the batch it is in.
    Every ray starts from its base node: ``nodes[i]``, the
    ``base_node(sigma, M, rays[i].base_param)`` a caller already holds, or
    else one node built per distinct base parameter. Every accepted step's
    dense coefficients go into one RayBatch store (an empty list for no
    rays). Raises NonNormalVectorError for a ray whose xi is not a unit
    normal, and RayIntegrationError for the lowest-index ray that fails.
    """
    rays = list(rays)
    if not rays:
        return []
    if nodes is None:
        built = {}      # one base node per distinct base parameter
        for ray in rays:
            s = np.asarray(ray.base_param, dtype=float)
            if s.tobytes() not in built:
                built[s.tobytes()] = base_node(sigma, M, s)
        nodes = [built[np.asarray(ray.base_param, dtype=float).tobytes()] for ray in rays]
    elif len(nodes) != len(rays):
        raise ValueError(f"{len(nodes)} base nodes for {len(rays)} rays")
    initial = [_initial_state(node, ray.xi) for node, ray in zip(nodes, rays)]
    y = np.array([state for state, _ in initial])
    y_init = y.copy()
    R = len(rays)
    t_end = np.array([float(ray.t_max) for ray in rays])
    if np.any(t_end < 0.0):
        raise ValueError("ray horizons t_max must be nonnegative")
    rtol = np.array([float(ray.tolerance) for ray in rays])
    atol = rtol * 1e-2
    chart_exit = _chart_exit_fn(M)

    f = _ray_rhs(M, y)
    h_abs = _initial_steps(M, y, f, t_end, rtol, atol)
    g = chart_exit(y)
    t = np.zeros(R)
    rejected = np.zeros(R, dtype=bool)
    active = t_end > 0.0
    counts = np.zeros(R, dtype=int)     # accepted steps (segments) per ray
    steps = []                          # (rays, their segment index, t_new, y_old, F)
    failures: dict[int, tuple[float, str]] = {}

    def fail(i: int, t_fail: float, message: str):
        failures[i] = (float(t_fail), message)
        active[i:] = False        # later rays cannot change which error is raised

    K_all = np.empty((dop853_coefficients.N_STAGES_EXTENDED,) + y.shape)
    while active.any():
        idx = np.flatnonzero(active)
        t0 = t[idx]
        min_step = 10.0 * np.abs(np.nextafter(t0, np.inf) - t0)
        h = h_abs[idx]
        h = np.where(~rejected[idx] & (h < min_step), min_step, h)
        collapsed = h < min_step
        for i, t_fail in zip(idx[collapsed], t0[collapsed]):
            fail(int(i), t_fail, _DOP853.TOO_SMALL_STEP)
        keep = active[idx]
        idx, t0, h = idx[keep], t0[keep], h[keep]
        if not idx.size:
            continue
        t_new = np.minimum(t0 + h, t_end[idx])
        h = t_new - t0
        y0 = y[idx]
        K = K_all[:, :len(idx)]
        K[0] = f[idx]
        y_new = _dop853_step(M, y0, h, K)
        scale = atol[idx, None] + np.maximum(np.abs(y0), np.abs(y_new)) * rtol[idx, None]
        err = _error_norms(K[:_DOP853.n_stages + 1], h, scale)
        ok = err < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = SAFETY * err ** _ERROR_EXPONENT
        grow = np.where(err == 0.0, MAX_FACTOR,
                        np.where(factor < MAX_FACTOR, factor, MAX_FACTOR))
        grow = np.where(rejected[idx], np.minimum(grow, 1.0), grow)
        shrink = np.where(factor > MIN_FACTOR, factor, MIN_FACTOR)
        h_abs[idx] = np.abs(h) * np.where(ok, grow, shrink)
        rejected[idx] = ~ok
        if not ok.any():
            continue

        acc = idx[ok]
        y_old, y_acc, t_old, t_acc = y0[ok], y_new[ok], t0[ok], t_new[ok]
        K_acc = K[:, ok]
        F = _dense_coefficients(M, K_acc, y_old, y_acc, h[ok])
        steps.append((acc, counts[acc], t_acc, y_old, F))
        counts[acc] += 1
        g_new = chart_exit(y_acc)
        crossed = (((g[acc] <= 0) & (g_new >= 0)) | ((g[acc] >= 0) & (g_new <= 0)))
        for j in np.flatnonzero(crossed):
            # ray j's step as a one-ray, one-segment plane-major store
            step = (np.array([[t_old[j], t_acc[j]]]), y_old[j, :, None], F[:, j, :, None],
                    np.zeros(1, dtype=int))
            root = brentq(lambda s: chart_exit(_dense_states(*step, np.array([[s]]))[0][0, 0]),
                          float(t_old[j]), float(t_acc[j]), xtol=4 * _EPS, rtol=4 * _EPS)
            fail(int(acc[j]), root, _EVENT_MESSAGE)
        t[acc], y[acc], f[acc], g[acc] = t_acc, y_acc, K_acc[_DOP853.n_stages], g_new
        active[acc[t_acc >= t_end[acc]]] = False

    if failures:
        i = min(failures)
        t_fail, message = failures[i]
        raise RayIntegrationError(
            f"ray s={np.array2string(np.asarray(rays[i].base_param), precision=6)}"
            f" xi={np.array2string(np.asarray(rays[i].xi), precision=6)}"
            f" left the chart or step size collapsed at t={t_fail:.6g}"
            f" ({message})", t=t_fail, index=i)
    S = max(int(counts.max()), 1)
    knots = np.full((R, S + 1), np.inf)
    knots[:, 0] = 0.0
    # the plane-major store, filled in place and handed over as views
    starts = np.zeros(y.shape[1:] + (R, S))
    starts[:, :, 0] = y_init.T
    coeffs = np.zeros((dop853_coefficients.INTERPOLATOR_POWER,) + y.shape[1:] + (R, S))
    for acc, seg, t_new, y_old, F in steps:
        knots[acc, seg + 1] = t_new
        starts[:, acc, seg] = y_old.T
        coeffs[:, :, acc, seg] = F.transpose(0, 2, 1)
    return RayBatch(manifold=M, sigma=sigma, rays=rays,
                    weingarten0=[S_xi for _, S_xi in initial], knots=knots,
                    starts=starts.transpose(1, 2, 0), coeffs=coeffs.transpose(2, 3, 0, 1),
                    last=np.maximum(counts - 1, 0))


def integrate_ray(M: ChartManifold, sigma: EmbeddedSubmanifold,
                  ray: NormalRay) -> RaySolution:
    """Integrate geodesic + parallel frame + Jacobi system along one ray."""
    return integrate_rays(M, sigma, [ray])[0]


# ---------------------------------------------------------------------------
# the density, the shape operator and its traces


def _laplace_det(entry, r: int, mul):
    """det of the r x r matrix of entries entry(i, l) by Laplace expansion along the
    first row, each minor formed once; mul multiplies an entry by a minor, and the
    terms add left to right."""
    @cache
    def minor(k: int, cols: tuple):      # of rows k.. and columns cols
        if len(cols) == 1:
            return entry(k, cols[0])
        total = None
        for j, c in enumerate(cols):
            term = mul(entry(k, c), minor(k + 1, cols[:j] + cols[j + 1:]))
            total = term if total is None else total - term if j % 2 else total + term
        return total
    return minor(0, tuple(range(r)))


def jacobi_det(J: np.ndarray) -> np.ndarray:
    """det J of (..., r, r) Jacobi matrices over any leading batch axes.

    ``_laplace_det`` for r <= 4, the same products for every matrix whatever the
    batch: LAPACK's LU and sign * exp(sum log |u_ii|) cost more per matrix and
    err by about |ln |det J|| ulp, even at 1 x 1. ``np.linalg.det`` for r >= 5,
    and where the products overflow (inf - inf).
    """
    J = np.asarray(J, dtype=float)
    if J.shape[-1] <= 4:
        det = np.positive(_laplace_det(lambda i, l: J[..., i, l], J.shape[-1], np.multiply))
        if np.isfinite(det).all():
            return det
    lu = np.linalg.det(J)
    return lu if J.shape[-1] >= 5 else np.where(np.isfinite(det), det, lu)


# scipy's DOP853 dense output is y_old + sum_k F_k x^a (1 - x)^b, (a, b) = ((k + 2) // 2,
# (k + 1) // 2). Row [e, k + 1] is that term over x^e, and row [e, 0] y_old's (zero at
# e = 1), in the scaled degree-7 Bernstein form c_j of sum_j c_j x^j (1 - x)^(7 - j).
_DENSE_BERNSTEIN = np.array([[[math.comb(7 - a - b, j - a) if 0 <= a <= j <= 7 - b else 0
                               for j in range(8)]
                              for a, b in [(-e, 0)] + [((k + 2) // 2 - e, (k + 1) // 2)
                                                        for k in range(7)]]
                             for e in (0, 1)], dtype=float)


def _dense_entries(terms: np.ndarray, divide: np.ndarray) -> np.ndarray:
    """J's entries (8, r*r, N) of N dense segments in scaled Bernstein form in x.

    terms (8, r*r, N) are J's store columns, start then coefficients; an entry
    where divide (r*r, N) holds, zero at x = 0, is divided by x.
    """
    entries = sum(_DENSE_BERNSTEIN[0, k][:, None, None] * y for k, y in enumerate(terms))
    entries[:, divide] = sum(_DENSE_BERNSTEIN[1, k][:, None] * y[divide]
                             for k, y in enumerate(terms))
    return entries


def _scaled_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials in scaled Bernstein form (deg + 1, ...): a convolution."""
    out = np.zeros((len(p) + len(q) - 1,) + q.shape[1:])
    for i, c in enumerate(p):
        out[i:i + len(q)] += c * q
    return out


def _bernstein_det(terms: np.ndarray, divide: np.ndarray):
    """(b, allowance): det J (7r + 1, N) of N dense segments in Bernstein form in x.

    ``_dense_entries`` puts the entries in scaled form and ``_laplace_det``
    multiplies them, with no interpolation. Scaled, a product's coefficients are
    sums of its factors' coefficient products, so |b_j| <= A = prod_i sum_l
    (|start_il| + sum_k |F_k,il|), and after at most 8r + (r - 1)(r + 7) + 1
    roundings b_j errs by less than allowance = (r^2 + 24r) eps A, also once both
    are divided by h^d.
    """
    r, entries = math.isqrt(terms.shape[1]), _dense_entries(terms, divide)
    b = _laplace_det(lambda i, l: entries[:, i * r + l], r, _scaled_product)
    size = np.prod(np.abs(terms).sum(axis=0).reshape(r, r, -1).sum(axis=1), axis=0)
    unscale = np.array([math.comb(7 * r, j) for j in range(7 * r + 1)], dtype=float)
    return b / unscale[:, None], (r * r + 24 * r) * _EPS * size


def _cut(c: np.ndarray, x) -> np.ndarray:
    """Bernstein coefficients on [0, x] of the polynomial with coefficients c (D + 1, ...)
    on [0, 1], by de Casteljau; the last is its value at x."""
    out = [c[0]]
    for _ in range(len(c) - 1):
        c = c[:-1] + x * (c[1:] - c[:-1])
        out.append(c[0])
    return np.stack(out)


@cache
def _halves(D: int) -> np.ndarray:
    """(D + 1, D + 1, 2): [i, j, side] takes coefficient j on [0, 1] to coefficient i
    on its left (side 0) or right (side 1) half."""
    left = _cut(np.eye(D + 1), 0.5)
    return np.stack([left, left[::-1, ::-1]], axis=-1)


def _first_crossings(f: np.ndarray, g: np.ndarray,
                     thr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(col, x, g(x)) of the + to - sign changes in (0, 1] of f's columns where g <= thr.

    f and g (D + 1, K) are Bernstein forms on [0, 1]. A polynomial stays within
    its coefficients, so pieces are halved by de Casteljau and dropped once f's
    keep one sign or g's all pass thr; a column keeps its leftmost ``budget``.
    After ``levels`` halvings x is read off the chord of each piece whose ends
    change sign, which errs by w^2 / 8 |f'' / f'| at w = 2^-levels.
    """
    levels, budget = 30, 8
    pieces, col, lo = np.stack([f, g], axis=1), np.arange(f.shape[1]), np.zeros(f.shape[1])
    for level in range(levels + 1):
        fp, gp = pieces[:, 0], pieces[:, 1]
        keep = np.flatnonzero((fp.min(axis=0) <= 0.0) & (fp.max(axis=0) > 0.0)
                              & (gp.min(axis=0) <= thr[col]))
        keep = keep[np.arange(len(keep)) - np.searchsorted(col[keep], col[keep]) < budget]
        pieces, col, lo = pieces[..., keep], col[keep], lo[keep]
        if level == levels or not len(col):
            break
        pieces = np.einsum("ijs,jck->icks", _halves(len(f) - 1), pieces).reshape(
            pieces.shape[:2] + (-1,))
        col, lo = np.repeat(col, 2), np.stack([lo, lo + 0.5**(level + 1)], axis=-1).ravel()
    (f0, g0), (f1, g1) = pieces[0], pieces[-1]
    down = (f0 > 0.0) & (f1 <= 0.0)
    frac = f0[down] / (f0[down] - f1[down])
    return col[down], lo[down] + frac * 0.5**levels, g0[down] + frac * (g1[down] - g0[down])


def shape_operator(J: np.ndarray, Jp: np.ndarray) -> np.ndarray:
    """S = J' J^{-1} in the parallel frame, over any leading batch axes."""
    return Jp @ np.linalg.inv(J)


def partial_trace(S: np.ndarray, W) -> np.ndarray:
    """Trace of S (..., r, r) over the span of orthonormal frame-coefficient rows W.

    W (k, r) gives (...). A stack of frames W (..., F, k, r) gives (..., F),
    every pair in one einsum, with W's leading axes broadcast against S's:
    W (F, k, r) reads every frame on every S, and W (R, 1, F, k, r) reads
    row R's own frames on S (..., R, T, r, r). W is read C-ordered, since
    einsum's summation order follows its operands' strides.
    """
    W = np.ascontiguousarray(W, dtype=float)
    frames = W.reshape((-1,) + np.atleast_2d(W).shape[-2:])
    if np.max(np.abs(frames @ np.swapaxes(frames, 1, 2) - np.eye(frames.shape[1])),
              initial=0.0) > 1e-8:
        raise ValueError("W rows must be orthonormal frame coefficients")
    stack = W if W.ndim >= 3 else frames
    traces = np.einsum("...fai,...ij,...faj->...f", stack, S, stack)
    return traces if W.ndim >= 3 else traces[..., 0]


def split_traces(J: np.ndarray, Jp: np.ndarray, m: int):
    """(phi, psi): traces of S = J' J^-1 over the tangent- and normal-born blocks.

    J and J' may carry leading batch axes; the traces keep them.
    """
    S = shape_operator(J, Jp)
    return (np.trace(S[..., :m, :m], axis1=-2, axis2=-1),
            np.trace(S[..., m:, m:], axis1=-2, axis2=-1))


def structural_residuals(solution: RaySolution) -> dict | None:
    """Max magnitudes of the evolution-law residuals along one ray.

    Keys: wronskian (J'^T J - J^T J' drift), log_density (d/dt log det J
    vs tr S), riccati (S' + S^2 + R in Frobenius norm), density_power
    (det J / t^(n-m-1) - 1 at t = 1e-3) and taylor_shape (t S - the block
    limit, plus tangential block vs the Weingarten map, at t = 1e-3).

    The laws are sampled at 9 times from 0.25 (or a quarter of the usable
    horizon, when that is below 0.3) to the usable horizon, min(t_max -
    2h, 0.9 focal time), each with its derivative stencil t +- h/2, t +- h,
    t +- 2h (h = 1e-4). All 64 times are one ``shape_fields`` read and the 9
    curvature matrices one ``_jacobi_batch`` call. Returns None, the ray
    too short, when the first sample would come before t = 0.025: there the
    stencil's own error on the 1/t block of S, h^4 / (4 t^6) per entry,
    passes 1e-7.

    ``error`` holds each residual's error estimate in its own units. A
    central difference errs by c(h) - f' = a h^2 + b h^4 + ...: log_density
    reads c(h) and gets 4/3 |c(h) - c(h/2)|; riccati reads R(h/2) = (4
    c(h/2) - c(h)) / 3, which errs by -b h^4 / 4, and gets |R(h/2) - R(h)|
    / 15 (Frobenius). The other three are direct evaluations and get 0.
    """
    n, m = solution.n, solution.m
    d = n - m - 1
    h, t0 = 1e-4, 1e-3
    hi = min(0.9 * solution.focal_time(), solution.t_max - 2.0 * h)
    lo = 0.25 if hi >= 0.3 else hi / 4.0
    if lo < 0.025:
        return None
    ts = np.linspace(lo, hi, 9)
    # rows 7i..7i+6: ts[i] + (0, h/2, -h/2, h, -h, 2h, -2h); the last row is t0
    offsets = np.array([0.0, h / 2.0, -h / 2.0, h, -h, 2.0 * h, -2.0 * h])
    S_all, (x, v, E, J_all, Jp_all) = solution.shape_fields(
        np.append((ts[:, None] + offsets).ravel(), t0))
    dets = jacobi_det(J_all)
    S, dets_t = S_all[:-1].reshape((9, 7) + S_all.shape[1:]), dets[:-1].reshape(9, 7)
    at_t = slice(0, -1, 7)
    S0, J, Jp = S[:, 0], J_all[at_t], Jp_all[at_t]
    central = [(S[:, i] - S[:, i + 1]) / (2.0 * step)
               for i, step in ((1, h / 2.0), (3, h), (5, 2.0 * h))]
    Sdot = (4.0 * central[0] - central[1]) / 3.0
    rmat = frame_matrix(_jacobi_batch(solution.batch.manifold, x[at_t], v[at_t])[2], E[at_t])
    dlog = (dets_t[:, 3] - dets_t[:, 4]) / (2.0 * h * dets_t[:, 0])
    dlog_half = (dets_t[:, 1] - dets_t[:, 2]) / (h * dets_t[:, 0])
    out = {
        "wronskian": float(np.max(np.abs(np.swapaxes(Jp, -1, -2) @ J
                                         - np.swapaxes(J, -1, -2) @ Jp))),
        "log_density": float(np.max(np.abs(dlog - np.trace(S0, axis1=-2, axis2=-1)))),
        # one matrix at a time: a 2-D Frobenius norm sums by a dot product,
        # a batched one by a reduction, so the two round differently
        "riccati": max(float(np.linalg.norm(r, ord="fro"))
                       for r in Sdot + S0 @ S0 + rmat),
    }
    # A / t^d = 1 + t tr(S_xi) + O(t^2); compare against the linear Taylor
    # (the linear term vanishes on totally geodesic submanifolds)
    linear = 1.0 + t0 * float(np.trace(solution.weingarten0)) if m > 0 else 1.0
    ratio = float(dets[-1]) / (t0**d if d > 0 else 1.0)
    out["density_power"] = abs(ratio - linear)
    S_small = S_all[-1]
    block_limit = np.zeros((n - 1, n - 1))
    block_limit[m:, m:] = np.eye(d)
    taylor = float(np.max(np.abs(t0 * S_small - block_limit)))
    if m > 0:
        taylor = max(taylor, float(np.max(np.abs(
            S_small[:m, :m] - solution.weingarten0))))
    out["taylor_shape"] = taylor
    out["error"] = dict.fromkeys(out, 0.0)
    out["error"]["log_density"] = float(np.max(np.abs(dlog - dlog_half))) * 4.0 / 3.0
    out["error"]["riccati"] = max(float(np.linalg.norm(e, ord="fro")) for e in
                                  Sdot - (4.0 * central[1] - central[2]) / 3.0) / 15.0
    return out


def growth_factors(ts: np.ndarray, J: np.ndarray, Jp: np.ndarray, m: int):
    """(phi, psi, J factor, Y factor) of a ray's Jacobi pair along the times ts.

    phi and psi are the traces of S = J' J^-1 over the tangent- and
    normal-born blocks (``split_traces``); the scalar factors
    J = exp(int phi/m) and Y = t exp(int (psi - d/s)/d ds), d = n-m-1, with
    J^m Y^d = det J, are integrated from ts[0] by the cumulative trapezoid
    rule. The regularized form of Y handles the 1/t part of psi exactly.
    J and J' carry the times on their last leading axis, and every result
    keeps them on its last axis.
    """
    phi, psi = split_traces(J, Jp, m)
    d = J.shape[-1] - m
    j_scalar = np.exp(cumulative_trapezoid(phi / m, ts)) if m >= 1 else np.ones_like(phi)
    if d >= 1:
        y_scalar = ts * np.exp(cumulative_trapezoid((psi - d / ts) / d, ts))
    else:
        y_scalar = np.ones_like(psi)
    return phi, psi, j_scalar, y_scalar
