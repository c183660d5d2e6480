"""A search bracket of rho_k from Rm alone: the oracle for ``geometry.rho_k``.

Ky Fan sums of the curvature operator on Lambda^2 bound rho_k from below;
exact inner minima over candidate directions, Thorpe's bisection (n = 4,
k = 1) and a greedy pattern search bound it from above. None of it reads
the chart's structure, so it brackets rho_k of any algebraic curvature
tensor, Weyl part or not.
"""

import numpy as np

from tubecomp.geometry import RHO_ROUNDING, _curvature_batch, _frame_tensor


def _k_plane_minima(rf: np.ndarray, dirs: np.ndarray, k: int):
    """(least, argmin) over unit directions dirs (B, S, n) of the minimum of
    Ric_k over k-planes, per row of frame tensors rf (B, n, n, n, n).

    The form B_s = Rm(., s, ., s) has s in its kernel; its spectrum is the
    s-perp spectrum plus one spurious zero, which is dropped, and the
    minimum over k-planes is the sum of the k smallest of the rest (exact).
    """
    w = np.linalg.eigvalsh(np.einsum("bajcl,bsj,bsl->bsac", rf, dirs, dirs))
    keep = np.ones(w.shape, dtype=bool)
    np.put_along_axis(keep, np.argmin(np.abs(w), axis=-1)[..., None], False, axis=-1)
    vals = w[keep].reshape(w.shape[:-1] + (-1,))[..., :k].sum(axis=-1)
    pick = np.arange(len(rf)), np.argmin(vals, axis=1)
    return vals[pick], dirs[pick]


def _plane_directions(forms: np.ndarray, n: int) -> np.ndarray:
    """Top two eigenvectors of sum_i W_i^T W_i for 2-forms (B, i, pairs): (B, 2, n).

    W_i is the i-th form as an n x n skew matrix on the pairs of
    ``np.triu_indices(n, 1)``. For orthonormal forms u ^ e_i the sum is
    k u u^T + sum_i e_i e_i^T, whose top eigenvector is u; for one form the
    top two span the plane of its largest singular value.
    """
    I, J = np.triu_indices(n, 1)
    W = np.zeros(forms.shape[:-1] + (n, n))
    W[..., I, J] = forms
    W[..., J, I] = -forms
    _, V = np.linalg.eigh(np.einsum("biac,biad->bcd", W, W))
    return np.swapaxes(V[:, :, -2:], 1, 2)


# On Lambda^2 R^4's pairs (01, 02, 03, 12, 13, 23) the Hodge star maps
# e01 <-> e23, e02 <-> -e13, e03 <-> e12: its matrix is the flipped diagonal
# of these (palindromic) signs, symmetric, and a product with it is exact.
_STAR = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))
THORPE_STEPS = 48   # bisection halvings of [-2|R|, 2|R|]
PATTERN_ROUNDS = 3  # pattern-search rounds on a row whose bracket stays open


def _thorpe_search(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, candidate directions) for the minimum sectional curvature per row
    of curvature operators R (B, 6, 6) on Lambda^2 R^4.

    Thorpe's trick: min sec = max_t lambda_min(R + t *), with equality
    because the joint numerical range of two real quadratic forms is convex
    (Brickman). lambda_min(R + t *) is concave and 1-Lipschitz in t, and its
    maximum lies in |t| <= 2 |R|, since lambda_min(R + t *) <= |R| - |t| and
    lambda_min(R) >= -|R|. Every row bisects that interval in lockstep on
    the supergradient v.*v of the bottom eigenvector v, so after
    THORPE_STEPS the maximizer is known to 4 |R| 2^-48 and lo to as much.
    ``lo`` is the largest lambda_min met, less eigh's rounding allowance: a
    lower bound at any t. The directions (B, 6, 4) span the planes of the
    bottom eigenvector at the best t and of the two decomposable elements of
    the span of the two bottom eigenvectors there, which a double bottom
    eigenvalue (a kink of the concave function) needs.
    """
    radius = 2.0 * np.linalg.norm(R, axis=(1, 2))   # Frobenius >= operator norm
    a, b = -radius, radius
    lo = np.full(len(R), -np.inf)
    vecs = np.zeros_like(R)
    for _ in range(THORPE_STEPS):
        t = 0.5 * (a + b)
        w, V = np.linalg.eigh(R + t[:, None, None] * _STAR)
        better = w[:, 0] > lo
        lo[better] = w[better, 0]
        vecs[better] = V[better]
        v = V[:, :, 0]
        rising = np.sum(v * (v @ _STAR), axis=1) > 0.0
        a = np.where(rising, t, a)
        b = np.where(rising, b, t)

    # c -> c.Qc on the unit circle, Q = (v1, v2).*(v1, v2), reads
    # m + r cos(2 theta - phi); its zeros are 2 theta = phi +- arccos(-m / r)
    # (where r < |m| there is none, and the forms are mere candidates)
    pair = vecs[:, :, :2]
    Q = np.einsum("zia,zib->zab", pair, _STAR @ pair)
    half_diff = 0.5 * (Q[:, 0, 0] - Q[:, 1, 1])
    m = 0.5 * (Q[:, 0, 0] + Q[:, 1, 1])
    r = np.hypot(half_diff, Q[:, 0, 1])
    phi = np.arctan2(Q[:, 0, 1], half_diff)
    turn = np.arccos(np.clip(-m / np.where(r > 0.0, r, 1.0), -1.0, 1.0))
    forms = [pair[:, :, 0]] + [
        np.einsum("bia,ba->bi", pair, np.stack([np.cos(theta), np.sin(theta)], axis=-1))
        for theta in (0.5 * (phi + turn), 0.5 * (phi - turn))]
    dirs = np.concatenate([_plane_directions(f[:, None], 4) for f in forms], axis=1)
    # eigh's eigenvalues are exact for a matrix within a few eps |A| of A,
    # |A| <= |R| + |t| <= 3 |R|_F; lo gives that back
    return lo - RHO_ROUNDING * 1.5 * radius, dirs


def _pattern_search(rf: np.ndarray, best: np.ndarray, best_s: np.ndarray,
                    k: int) -> np.ndarray:
    """Least ``_k_plane_minima`` found by a greedy coordinate pattern search
    from the directions best_s (B, n), whose values are best (B,); updates both.

    Each round moves a row to its best of the 2n neighbours best_s +- step
    e_i (normalized) while that drops the value by more than 1e-15, at most
    24 times; the step starts at 0.15 and shrinks by 5 per round.
    """
    eye = np.eye(rf.shape[1])
    step = 0.15
    for _ in range(PATTERN_ROUNDS):
        active = np.arange(len(rf))
        for _ in range(24):
            cands = np.concatenate([best_s[active, None] + step * eye,
                                    best_s[active, None] - step * eye], axis=1)
            cands /= np.linalg.norm(cands, axis=-1, keepdims=True)
            vals, dirs = _k_plane_minima(rf[active], cands, k)
            better = vals < best[active] - 1e-15
            active = active[better]
            best[active] = vals[better]
            best_s[active] = dirs[better]
            if len(active) == 0:
                break
        step *= 0.2
    return best


def _rho_bracket(rf: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of rho_k per row of frame tensors rf (B, n, n, n, n), k <= n - 2
    (or n = 3, k = 1).

    R is the curvature operator on Lambda^2 on the pairs of
    ``np.triu_indices(n, 1)``. For a unit u and orthonormal e_i in u-perp
    the forms u ^ e_i are orthonormal and Ric_k(u, span e_i) =
    sum_i R(u ^ e_i, u ^ e_i), so the sum of the k smallest eigenvalues of
    R (Ky Fan), less eigh's rounding allowance, is ``lo``. ``hi`` is the
    least exact inner minimum ``_k_plane_minima`` over candidate directions
    (``_plane_directions`` of the k bottom eigenvectors, and the frame
    axes), so rho_k attains it. A row whose bracket is wider than four
    allowances is open: in dimension 4 with k = 1 it runs Thorpe's
    bisection (``_thorpe_search``), whose lo is exact to rounding and which
    gives hi more candidates; a row still open runs ``_pattern_search`` on
    hi.
    """
    B, n = rf.shape[:2]
    I, J = np.triu_indices(n, 1)
    R = rf[:, I[:, None], J[:, None], I, J]
    R = 0.5 * (R + np.swapaxes(R, 1, 2))
    allowance = k * RHO_ROUNDING * np.linalg.norm(R, axis=(1, 2))
    w, V = np.linalg.eigh(R)
    lo = w[:, :k].sum(axis=1) - allowance
    dirs = np.concatenate([_plane_directions(np.swapaxes(V[:, :, :k], 1, 2), n),
                           np.broadcast_to(np.eye(n), (B, n, n))], axis=1)
    hi, best_s = _k_plane_minima(rf, dirs, k)
    rows = np.flatnonzero(hi - lo > 4.0 * allowance)
    if (n, k) == (4, 1) and len(rows):
        lo[rows], more = _thorpe_search(R[rows])
        hi[rows], best_s[rows] = _k_plane_minima(
            rf[rows], np.concatenate([dirs[rows], more], axis=1), k)
        rows = rows[hi[rows] - lo[rows] > 4.0 * allowance[rows]]
    if len(rows):
        hi[rows] = _pattern_search(rf[rows], hi[rows], best_s[rows], k)
    return lo, hi


def oracle_rho_k(M, X, k):
    """(lo, hi) of rho_k per row of X from Rm by the search: the least Ricci
    eigenvalue at k = n - 1, ``_rho_bracket`` below it."""
    g, rm = _curvature_batch(M, np.asarray(X, dtype=float))
    rf = _frame_tensor(rm, np.linalg.inv(np.linalg.cholesky(g)))
    if k < M.dim - 1:
        return _rho_bracket(rf, k)
    A = np.einsum("bijil->bjl", rf)
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    w, V = np.linalg.eigh(A)
    return (w[:, 0] - RHO_ROUNDING * np.linalg.norm(A, axis=(1, 2)),
            np.einsum("bi,bij,bj->b", V[:, :, 0], A, V[:, :, 0]))
