"""Central-difference stencils: the oracle for every chart's and embedding's exact jet.

The package reads derivatives only from the exact callbacks of its charts
and submanifolds; these stencils check those callbacks from the metric and
the embedding alone.
"""

import numpy as np

FD_STEP_FIRST = 1e-5    # central-difference step for first derivatives
FD_STEP_SECOND = 1e-4   # central-difference step for second derivatives


def fd_gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    """d_k f at the points x (..., d) by central differences: (..., d) + f's shape."""
    d, lead = x.shape[-1], x.ndim - 1
    vals = np.moveaxis(f(np.concatenate([x[..., None, :] + h * np.eye(d),
                                         x[..., None, :] - h * np.eye(d)], axis=-2)), lead, 0)
    return np.moveaxis((vals[:d] - vals[d:]) / (2.0 * h), 0, lead)


def fd_hessian(f, x: np.ndarray, h: float) -> np.ndarray:
    """d_k d_l f at the points x (..., d) by central differences: (..., d, d) + f's shape.

    (f(x + h e_k) - 2 f(x) + f(x - h e_k)) / h^2 on the diagonal and
    (f(x + h(e_k + e_l)) - f(x + h(e_k - e_l)) - f(x - h(e_k - e_l))
    + f(x - h(e_k + e_l))) / (4 h^2) off it; f reads every stencil point,
    x first, in one call on (..., points, d).
    """
    d, lead = x.shape[-1], x.ndim - 1
    eye = np.eye(d)
    k, l = np.triu_indices(d, 1)
    plus, minus = eye[k] + eye[l], eye[k] - eye[l]
    steps = np.concatenate([np.zeros((1, d)), eye, -eye, plus, minus, -minus, -plus])
    g0, gp, gm, gpp, gpm, gmp, gmm = np.split(np.moveaxis(f(x[..., None, :] + h * steps), lead, 0),
                                              np.cumsum([1, d, d] + [len(k)] * 3))
    g0 = g0[0]
    out = np.empty((d, d) + g0.shape)
    out[np.arange(d), np.arange(d)] = (gp - 2.0 * g0 + gm) / h**2
    out[k, l] = out[l, k] = (gpp - gpm - gmp + gmm) / (4.0 * h**2)
    return np.moveaxis(out, (0, 1), (lead, lead + 1))


def embedding_jacobian(sigma, s: np.ndarray) -> np.ndarray:
    """d embedding / d s as columns at one parameter s: shape (n, m)."""
    return fd_gradient(sigma.embed, np.asarray(s, dtype=float), FD_STEP_FIRST).T


def embedding_hessian(sigma, s: np.ndarray) -> np.ndarray:
    """Second parameter derivatives of the embedding at one parameter s: shape (m, m, n).

    Central differences with one Richardson level (steps 2e-3 and 1e-3),
    which keeps the noise floor near 1e-9.
    """
    def one_by_one(points):     # an embedding's batched call may round differently
        return np.array([sigma.embed(p) for p in points])

    h = 20.0 * FD_STEP_SECOND
    s = np.asarray(s, dtype=float)
    return (4.0 * fd_hessian(one_by_one, s, h / 2.0) - fd_hessian(one_by_one, s, h)) / 3.0

