"""Curvature, k-Ricci, and deficit-norm tests on the built-in manifolds."""

import dataclasses
import math

import numpy as np
import pytest

from tubecomp import manifolds
from tubecomp.geometry import (
    SingularMetricError,
    Box,
    ChartManifold,
    christoffel_at,
    complete_frame,
    curvature_tensor_at,
    frame_curvature,
    gram_schmidt,
    lp_deficit_norm,
    rho_k,
    rho_k_at,
    rho_method,
)
from tubecomp.geometry import _connection_batch, _curvature_batch, _jacobi_batch, frame_matrix
from fd import FD_STEP_FIRST, FD_STEP_SECOND, fd_gradient, fd_hessian
from rho_oracle import _k_plane_minima, _rho_bracket, _thorpe_search, oracle_rho_k
from tubecomp.geometry import RHO_ROUNDING, _frame_tensor
from tubecomp.quadrature import product_angle_sphere


# -- brute-force oracle: the directional operator R(., u)u, one point at a time


def directional_curvature_operator(M, x, u):
    """R(., u)u on u-perp in a g-orthonormal frame: symmetric (n-1, n-1)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    g = M.metric_at(x)
    norm = math.sqrt(u @ g @ u)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"direction must be g-unit, |u|_g = {norm}")
    frame = complete_frame(g, [u])[1:]
    return frame_curvature(curvature_tensor_at(M, x), frame, u)


def curvature_eigenvalues(M, x, u):
    """Ascending eigenvalues of the directional curvature operator at (x, u)."""
    return np.linalg.eigvalsh(directional_curvature_operator(M, x, u))


def ric_k(M, x, u, V):
    """Partial trace of R(., u)u over the k-dim subspace V of u-perp."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    g = M.metric_at(x)
    u = u / math.sqrt(u @ g @ u)
    basis = gram_schmidt(g, [u] + list(V))
    if len(basis) != 1 + len(V):
        raise ValueError("V is not orthonormalizable inside u-perp (dimension mismatch)")
    return float(np.trace(frame_curvature(curvature_tensor_at(M, x), basis[1:], u)))


def space_form_tensor(g, c):
    return c * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))


def check_tensor_symmetries(Rm, tol):
    scale = max(1.0, np.max(np.abs(Rm)))
    assert np.max(np.abs(Rm + Rm.transpose(1, 0, 2, 3))) <= tol * scale
    assert np.max(np.abs(Rm + Rm.transpose(0, 1, 3, 2))) <= tol * scale
    assert np.max(np.abs(Rm - Rm.transpose(2, 3, 0, 1))) <= tol * scale
    bianchi = Rm + Rm.transpose(0, 2, 3, 1) + Rm.transpose(0, 3, 1, 2)
    assert np.max(np.abs(bianchi)) <= tol * scale


def strip_analytic(M):
    """Copy of a manifold whose metric derivatives are the central differences of its metric."""
    return ChartManifold(dim=M.dim, metric=M.metric, domain=M.domain,
                         metric_grad=lambda X: fd_gradient(M.metric_at, X, FD_STEP_FIRST),
                         metric_hess=lambda X: fd_hessian(M.metric_at, X, FD_STEP_SECOND),
                         name=M.name + "_fd")


class TestChristoffel:
    def test_flat_torus_zero(self):
        M = manifolds.flat_torus(3)
        G = christoffel_at(M, np.array([0.3, 1.0, 2.0]))
        assert np.max(np.abs(G)) == 0.0

    def test_round_sphere_colatitude(self):
        M = manifolds.sphere_colatitude(2)
        G = christoffel_at(M, np.array([math.pi / 4.0, 1.3]))
        assert G[0, 1, 1] == pytest.approx(-0.5, abs=1e-8)
        assert G[1, 0, 1] == pytest.approx(1.0, abs=1e-7)  # cot(pi/4)
        assert np.max(np.abs(G - G.transpose(0, 2, 1))) <= 1e-12

    def test_hyperbolic_plane(self):
        M = manifolds.hyperbolic(2)
        G = christoffel_at(M, np.array([0.7, 2.0]))
        assert G[0, 0, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_singular_metric_error(self):
        def bad_metric(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0
            return out  # rank 1

        def zero_jet(order):
            return lambda x: np.zeros(np.shape(x)[:-1] + (2,) * (order + 2))

        M = ChartManifold(dim=2, metric=bad_metric, domain=Box([-1, -1], [1, 1], (False, False)),
                          metric_grad=zero_jet(1), metric_hess=zero_jet(2))
        with pytest.raises(SingularMetricError):
            christoffel_at(M, np.zeros(2))


def einsum_chain_curvature(M, xs):
    """(Gamma, Rm) by the raised-index chain: dg^-1, dGamma, R^i_jkl, then lowered."""
    g = M.metric_at(xs)
    ginv = np.linalg.inv(g)
    dg, d2g = M.metric_grad(xs), M.metric_hess(xs)
    A = np.einsum("blaj->balj", dg) + np.einsum("bjal->balj", dg) - dg
    gamma = 0.5 * np.einsum("bia,balj->bilj", ginv, A)
    dA = np.einsum("bklaj->bkalj", d2g) + np.einsum("bkjal->bkalj", d2g) - d2g
    dginv = -np.einsum("bic,bkcd,bda->bkia", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("bkia,balj->bkilj", dginv, A)
                    + np.einsum("bia,bkalj->bkilj", ginv, dA))
    rup = (np.einsum("bkilj->bijkl", dgamma) - np.einsum("blikj->bijkl", dgamma)
           + np.einsum("bika,balj->bijkl", gamma, gamma)
           - np.einsum("bila,bakj->bijkl", gamma, gamma))
    return gamma, np.einsum("bia,bajkl->bijkl", g, rup)


KERNEL_CASES = {
    "sphere": lambda rng: (manifolds.sphere(3, radius=1.3), rng.uniform(-1.0, 1.0, (15, 3))),
    "hyperbolic": lambda rng: (manifolds.hyperbolic(3), rng.uniform(0.4, 2.0, (15, 3))),
    "bump": lambda rng: (manifolds.bump_torus(4), math.pi + rng.uniform(-1.0, 1.0, (11, 4))),
    "product": lambda rng: (manifolds.product(manifolds.sphere(2), manifolds.hyperbolic(2)),
                            np.hstack([rng.uniform(-1, 1, (15, 2)), rng.uniform(0.5, 2, (15, 2))])),
    "warped": lambda rng: (manifolds.warped_product(2, np.cosh, np.sinh, np.cosh),
                           rng.uniform(-1.0, 1.0, (15, 3))),
    "colatitude": lambda rng: (manifolds.sphere_colatitude(3), rng.uniform(0.4, 2.6, (15, 3))),
    "fd_bump": lambda rng: (strip_analytic(manifolds.bump_torus(3, width=1.2)),
                            math.pi + rng.uniform(-1.0, 1.0, (11, 3))),
}


class TestFiniteDifferences:
    """``fd_gradient`` and ``fd_hessian``: the test oracle's central-difference stencils."""

    def test_exact_on_a_cubic_with_leading_axes(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3))
        A = A + A.T

        def f(x):   # (..., 3) -> (..., 2): a quadratic form and x_0^3
            return np.stack([np.einsum("...i,ij,...j->...", x, A, x), x[..., 0] ** 3], axis=-1)

        x = rng.standard_normal((5, 2, 3))
        grad, hess = fd_gradient(f, x, 1e-5), fd_hessian(f, x, 1e-4)
        assert grad.shape == (5, 2, 3, 2) and hess.shape == (5, 2, 3, 3, 2)
        assert np.allclose(grad[..., 0], 2.0 * x @ A, atol=1e-8)
        assert np.allclose(hess[..., 0], 2.0 * A, atol=1e-6)
        cubic = np.zeros((5, 2, 3, 3))
        cubic[..., 0, 0] = 6.0 * x[..., 0]
        assert np.allclose(hess[..., 1], cubic, atol=1e-6)


def _tilted_sphere():
    return manifolds.sphere(3, radius=1.3,
                            axes=manifolds.axes_with_pole([0.3, -0.2, 0.5, 0.8]))


# charts with analytic callbacks, each with a sampler of points inside its domain
ANALYTIC_CHARTS = {
    "euclidean3": (lambda: manifolds.euclidean(3), lambda rng, k: rng.uniform(-2, 2, (k, 3))),
    "flat_torus4": (lambda: manifolds.flat_torus(4), lambda rng, k: rng.uniform(0, 6, (k, 4))),
    "tilted_sphere3": (_tilted_sphere, lambda rng, k: rng.uniform(-1.5, 1.5, (k, 3))),
    "hyperbolic3": (lambda: manifolds.hyperbolic(3),
                    lambda rng, k: np.hstack([rng.uniform(-1, 1, (k, 2)),
                                              rng.uniform(0.5, 2, (k, 1))])),
    "bump_torus3": (lambda: manifolds.bump_torus(3),
                    lambda rng, k: math.pi + rng.uniform(-0.9, 0.9, (k, 3))),
    "bump_torus4": (lambda: manifolds.bump_torus(4),
                    lambda rng, k: math.pi + rng.uniform(-0.9, 0.9, (k, 4))),
    "sphere2_x_hyperbolic2": (lambda: manifolds.product(manifolds.sphere(2),
                                                        manifolds.hyperbolic(2)),
                              lambda rng, k: np.hstack([rng.uniform(-1, 1, (k, 2)),
                                                        rng.uniform(-1, 1, (k, 1)),
                                                        rng.uniform(0.5, 2, (k, 1))])),
    "cosh_warped3": (lambda: manifolds.warped_product(2, np.cosh, np.sinh, np.cosh),
                     lambda rng, k: np.hstack([rng.uniform(-1.5, 1.5, (k, 1)),
                                               rng.uniform(0, 6, (k, 2))])),
    "constant_warped3": (lambda: manifolds.warped_product(2, np.ones_like, np.zeros_like,
                                                          np.zeros_like),
                         lambda rng, k: np.hstack([rng.uniform(-1.5, 1.5, (k, 1)),
                                                   rng.uniform(0, 6, (k, 2))])),
    "colatitude2": (lambda: manifolds.sphere_colatitude(2, radius=1.3),
                    lambda rng, k: np.hstack([rng.uniform(0.3, 2.8, (k, 1)),
                                              rng.uniform(0, 6, (k, 1))])),
    "colatitude3": (lambda: manifolds.sphere_colatitude(3, radius=1.3),
                    lambda rng, k: np.hstack([rng.uniform(0.3, 2.8, (k, 2)),
                                              rng.uniform(0, 6, (k, 1))])),
}


class TestAnalyticCharts:
    """Each chart's analytic gradient and Hessian against central differences of its metric."""

    @pytest.mark.parametrize("name", sorted(ANALYTIC_CHARTS))
    def test_callbacks_match_central_differences(self, name):
        build, points = ANALYTIC_CHARTS[name]
        M = build()
        X = points(np.random.default_rng(11), 20)
        assert np.all(M.domain.contains(X))
        dg, d2g = M.metric_grad(X), M.metric_hess(X)
        assert np.max(np.abs(dg - fd_gradient(M.metric, X, FD_STEP_FIRST))) <= (
            1e-8 * max(1.0, np.max(np.abs(dg))))
        assert np.max(np.abs(d2g - fd_hessian(M.metric, X, FD_STEP_SECOND))) <= (
            1e-6 * max(1.0, np.max(np.abs(d2g))))


class TestLoweredKernel:
    """``_curvature_batch`` forms Rm from the lowered Christoffel symbols."""

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_matches_the_raised_index_chain(self, name):
        M, X = KERNEL_CASES[name](np.random.default_rng(3))
        g, gamma, rm = _curvature_batch(M, X, want_gamma=True)
        gamma_ref, rm_ref = einsum_chain_curvature(M, X)
        scale = max(1.0, np.max(np.abs(rm_ref)))
        assert np.max(np.abs(rm - rm_ref)) <= 1e-14 * scale
        assert np.max(np.abs(gamma - gamma_ref)) <= 1e-14 * max(1.0, np.max(np.abs(gamma_ref)))
        assert np.array_equal(g, M.metric_at(X))

    @pytest.mark.parametrize("batch", [1, 65])
    @pytest.mark.parametrize("name", sorted(manifolds.MANIFOLD_BUILDERS))
    def test_gathers_equal_the_transposed_views(self, name, batch):
        # the six permuted terms as strided transposed views, combined in
        # the kernel's order: Rm is the same bits, signed zeros included
        args = {"product": (manifolds.sphere(2), manifolds.hyperbolic(2)),
                "warped_product": (2, np.cosh, np.sinh, np.cosh)}
        M = manifolds.MANIFOLD_BUILDERS[name](*args.get(name, (4,)))
        lo, hi = M.domain.lo, M.domain.hi
        X = lo + np.random.default_rng(batch).uniform(0.35, 0.65, (batch, M.dim)) * (hi - lo)
        _, A, gamma = _connection_batch(M, X)
        d2g = M.metric_hess(X)
        n = M.dim
        Q = 0.5 * (np.swapaxes(A.reshape(batch, n, n * n), 1, 2)
                   @ gamma.reshape(batch, n, n * n)).reshape((batch,) + (n,) * 4)
        views = (0.5 * (d2g.transpose(0, 3, 2, 1, 4) - d2g.transpose(0, 2, 4, 1, 3)
                        - d2g.transpose(0, 3, 2, 4, 1) + d2g.transpose(0, 2, 4, 3, 1))
                 + Q.transpose(0, 2, 4, 3, 1) - Q.transpose(0, 2, 4, 1, 3))
        rm = _curvature_batch(M, X)[1]
        assert rm.flags.c_contiguous and np.any(rm != 0.0) == (name not in (
            "euclidean", "flat_torus"))
        assert rm.tobytes() == views.tobytes()

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_batch_one_equals_batch_n(self, name):
        M, X = KERNEL_CASES[name](np.random.default_rng(4))
        _, gamma, rm = _curvature_batch(M, X, want_gamma=True)
        for i, x in enumerate(X):
            _, gamma_1, rm_1 = _curvature_batch(M, x[None], want_gamma=True)
            assert np.array_equal(gamma_1[0], gamma[i]) and np.array_equal(rm_1[0], rm[i])


def jacobi_case(name, batch):
    """A chart of ``MANIFOLD_BUILDERS`` with ``batch`` points in the middle of
    its box and a g-unit direction at each."""
    args = {"product": (manifolds.sphere(2), manifolds.hyperbolic(2)),
            "warped_product": (2, np.cosh, np.sinh, np.cosh)}
    M = manifolds.MANIFOLD_BUILDERS[name](*args.get(name, (4,)))
    rng = np.random.default_rng(batch)
    lo, hi = M.domain.lo, M.domain.hi
    X = lo + rng.uniform(0.35, 0.65, (batch, M.dim)) * (hi - lo)
    V = rng.standard_normal((batch, M.dim))
    V /= np.sqrt(np.einsum("bi,bij,bj->b", V, M.metric_at(X), V))[:, None]
    return M, X, V


def conformal_rows(name, batch):
    """A conformally flat builder chart with ``batch`` rows and g-unit directions:
    the sphere on a tilted chart with rows 2 to 40 from the origin, the
    upper half-space from z = 0.03 to 15, and the bump half inside its
    support and half outside."""
    rng = np.random.default_rng([batch, len(name)])
    if name == "sphere":
        M = manifolds.sphere(4, radius=1.5, axes=manifolds.axes_with_pole([1.0, 2.0, -1.0, 0.5, 3.0]))
        d = rng.standard_normal((batch, 4))
        X = np.geomspace(2.0, 40.0, batch)[:, None] * d / np.linalg.norm(d, axis=1)[:, None]
    elif name == "hyperbolic":
        M = manifolds.hyperbolic(4)
        X = np.column_stack([rng.uniform(-3.0, 3.0, (batch, 3)), np.geomspace(0.03, 15.0, batch)])
    elif name == "bump_torus":
        M = manifolds.bump_torus(4)
        inside = np.arange(batch) % 2 == 0
        X = math.pi + rng.uniform(-0.9, 0.9, (batch, 4))
        X[~inside, 0] += 2.0                      # |x_0 - pi| > 1, outside the support
    else:
        M = manifolds.MANIFOLD_BUILDERS[name](4)
        lo, hi = M.domain.lo, M.domain.hi
        X = lo + rng.uniform(0.1, 0.9, (batch, 4)) * (hi - lo)
    V = rng.standard_normal((batch, 4))
    V /= np.sqrt(np.einsum("bi,bij,bj->b", V, M.metric_at(X), V))[:, None]
    return M, X, V


def general_formula(M):
    """The same chart without its conformal jet, so ``_jacobi_batch`` takes the 2-jet formula."""
    return dataclasses.replace(M, conformal_jet=None)


def conformal_chart_with(bad):
    """g = phi * I on R^2 with phi = 1, but phi = ``bad`` on the line x_0 = 0.5."""

    def jet(x):
        return (np.where(x[..., 0] == 0.5, bad, 1.0), np.zeros(x.shape),
                np.zeros(x.shape + (2,)))
    return ChartManifold(**manifolds._conformal(2, jet), domain=Box([-1, -1], [1, 1], (False, False)))


class TestJacobiKernel:
    """``_jacobi_batch`` gives Gamma v, Gamma(v, v) and Rm(., v, ., v) without Rm."""

    @pytest.mark.parametrize("batch", [1, 65])
    @pytest.mark.parametrize("name", sorted(manifolds.MANIFOLD_BUILDERS))
    def test_equals_the_contracted_tensors(self, name, batch):
        # max|Rm| is floored at 1, as in the lowered-kernel tests: far out on
        # a stereographic chart both kernels lose digits to the same cancellation
        M, X, V = jacobi_case(name, batch)
        gamma_v, gamma_vv, w = _jacobi_batch(M, X, V)
        rm = _curvature_batch(M, X)[1]
        want = np.einsum("bijkl,bj,bl->bik", rm, V, V)
        assert np.max(np.abs(w - want)) <= 1e-14 * max(1.0, np.max(np.abs(rm)))
        # a contraction rounds in proportion to the sum of its terms' sizes
        gamma = np.array([christoffel_at(M, x) for x in X])
        want_v = np.einsum("bijk,bk->bij", gamma, V)
        size = np.einsum("bijk,bj,bk->bi", np.abs(gamma), np.abs(V), np.abs(V))
        assert np.max(np.abs(gamma_v - want_v)) <= 1e-14 * max(
            1.0, np.max(np.abs(gamma)) * np.max(np.abs(V)))
        assert np.max(np.abs(gamma_vv - np.einsum("bij,bj->bi", want_v, V))) <= 1e-14 * max(
            1.0, np.max(size))
        assert np.any(w != 0.0) == (name not in ("euclidean", "flat_torus"))

    @pytest.mark.parametrize("name", sorted(manifolds.MANIFOLD_BUILDERS))
    def test_batch_one_equals_batch_n(self, name):
        M, X, V = jacobi_case(name, 65)
        together = _jacobi_batch(M, X, V)
        for i in range(len(X)):
            alone = _jacobi_batch(M, X[i:i + 1], V[i:i + 1])
            for a, b in zip(alone, together):
                assert a[0].tobytes() == b[i].tobytes()

    def test_frame_matrix_is_frame_curvature(self):
        M, X, V = jacobi_case("bump_torus", 65)
        E = np.random.default_rng(2).standard_normal((65, 3, 4))
        rm = _curvature_batch(M, X)[1]
        got = frame_matrix(_jacobi_batch(M, X, V)[2], E)
        assert np.array_equal(got, np.swapaxes(got, 1, 2))
        assert np.max(np.abs(got - frame_curvature(rm, E, V))) <= 1e-14 * max(
            1.0, np.max(np.abs(rm)) * np.max(np.abs(E)) ** 2)

    def test_singular_metric_error(self):
        M = ChartManifold(dim=2, metric=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2)),
                          domain=Box([-1, -1], [1, 1], (False, False)),
                          metric_grad=lambda x: np.zeros(np.shape(x)[:-1] + (2,) * 3),
                          metric_hess=lambda x: np.zeros(np.shape(x)[:-1] + (2,) * 4))
        with pytest.raises(SingularMetricError):
            _jacobi_batch(M, np.zeros((3, 2)), np.ones((3, 2)))

    @pytest.mark.parametrize("name", ["euclidean", "flat_torus", "sphere", "hyperbolic",
                                      "bump_torus"])
    def test_closed_form_equals_the_general_formula(self, name):
        M, X, V = conformal_rows(name, 64)
        assert M.conformal_jet is not None
        got = _jacobi_batch(M, X, V)
        want = _jacobi_batch(general_formula(M), X, V)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(b)))
        if name == "bump_torus":   # rows outside the support are flat on both paths
            outside = np.abs(X[:, 0] - math.pi) > 1.0
            assert np.all(outside[1::2]) and not np.any(outside[::2])
            assert all(np.all(a[outside] == 0.0) for a in want)
            assert np.all(got[2][~outside].any(axis=(1, 2)))
        for i in range(len(X)):
            alone = _jacobi_batch(M, X[i:i + 1], V[i:i + 1])
            for a, b in zip(alone, got):
                assert a[0].tobytes() == b[i].tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_closed_form_refuses_a_nonpositive_phi(self, bad):
        # one bad row of seven: the closed form refuses the batch and that row
        # alone, as the general path's finiteness and Cholesky checks do
        X, V = np.zeros((7, 2)), np.ones((7, 2))
        X[3, 0] = 0.5
        M = conformal_chart_with(bad)
        for chart in (M, general_formula(M)):
            with pytest.raises(SingularMetricError):
                _jacobi_batch(chart, X, V)
            for i in range(7):
                if i == 3:
                    with pytest.raises(SingularMetricError):
                        _jacobi_batch(chart, X[i:i + 1], V[i:i + 1])
                else:
                    _jacobi_batch(chart, X[i:i + 1], V[i:i + 1])


def bump_jet_by_pairs(b, db, d2b, amplitude):
    """(f, d_k f, d_k d_l f) of amplitude * prod b_i, one product per (k, l) pair."""
    n = b.shape[-1]
    excl = np.empty_like(b)
    for k in range(n):
        bk = b.copy()
        bk[..., k] = 1.0
        excl[..., k] = np.prod(bk, axis=-1)
    fkl = np.empty(b.shape[:-1] + (n, n))
    for k in range(n):
        for l in range(n):
            if k == l:
                fkl[..., k, k] = amplitude * d2b[..., k] * excl[..., k]
            else:
                bkl = b.copy()
                bkl[..., k] = 1.0
                bkl[..., l] = 1.0
                fkl[..., k, l] = amplitude * db[..., k] * db[..., l] * np.prod(bkl, axis=-1)
    return amplitude * np.prod(b, axis=-1), amplitude * db * excl, fkl


# every conformally flat chart (g = phi * I) in dimension 4, with a center
# that rows within 1 of stay inside its domain (and the bump's support)
CONFORMAL_CHARTS = {
    "euclidean": (lambda: manifolds.euclidean(4), 0.0),
    "flat_torus": (lambda: manifolds.flat_torus(4), math.pi),
    "sphere": (lambda: manifolds.sphere(4), 0.0),
    "hyperbolic": (lambda: manifolds.hyperbolic(4), np.array([0.0, 0.0, 0.0, 2.0])),
    "bump_torus": (lambda: manifolds.bump_torus(4), math.pi),
}


class TestBumpJet:
    """Conformal charts' 2-jet: the bump's one masked product, and one jet per curvature call."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_masked_product_equals_the_pair_loop(self, n):
        from tubecomp.manifolds import _bump_jet, _mollifier

        rng = np.random.default_rng(n)
        b, db, d2b = _mollifier(rng.uniform(-1.2, 1.2, size=(7, 5, n)))
        for got, want in zip(_bump_jet(b, db, d2b, 0.1), bump_jet_by_pairs(b, db, d2b, 0.1)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(CONFORMAL_CHARTS))
    def test_rows_of_the_same_shape_get_fresh_values(self, name):
        build, center = CONFORMAL_CHARTS[name]
        M = build()
        rng = np.random.default_rng(1)
        X1, X2 = (center + rng.uniform(-1.0, 1.0, (6, 4)) for _ in range(2))
        for attr in ("metric", "metric_grad", "metric_hess"):
            fresh = getattr(build(), attr)
            first = getattr(M, attr)(X1)
            assert np.array_equal(getattr(M, attr)(X2), fresh(X2))
            assert np.array_equal(getattr(M, attr)(X1), first)
            # the same bytes under other leading axes are other rows
            grid = getattr(M, attr)(X1.reshape(2, 3, 4))
            assert grid.shape == (2, 3) + first.shape[1:]
            assert np.array_equal(grid, first.reshape(grid.shape))
            assert np.array_equal(getattr(M, attr)(X1[0]), first[0])
        assert name in ("euclidean", "flat_torus") or not np.array_equal(
            M.metric_hess(X1), M.metric_hess(X2))

    @pytest.mark.parametrize("name", sorted(CONFORMAL_CHARTS))
    def test_one_jet_per_curvature_call(self, name, monkeypatch):
        calls = []
        original = manifolds._conformal

        def counted_conformal(n, jet):
            def counted(x):
                calls.append(x.shape)
                return jet(x)
            return original(n, counted)
        monkeypatch.setattr(manifolds, "_conformal", counted_conformal)
        build, center = CONFORMAL_CHARTS[name]
        M = build()
        rng = np.random.default_rng(2)
        for rows in (1, 11, 11, 64):
            _curvature_batch(M, center + rng.uniform(-1.0, 1.0, (rows, 4)))
        assert calls == [(1, 4), (11, 4), (11, 4), (64, 4)]


class TestCurvatureTensor:
    def test_flat_zero(self):
        M = manifolds.flat_torus(4)
        Rm = curvature_tensor_at(M, np.array([1.0, 2.0, 3.0, 0.5]))
        assert np.max(np.abs(Rm)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_sphere_space_form(self, n):
        M = manifolds.sphere(n)
        x = np.array([0.2, -0.4, 0.1][:n])
        Rm = curvature_tensor_at(M, x)
        target = space_form_tensor(M.metric_at(x), 1.0)
        assert np.max(np.abs(Rm - target)) <= 1e-10 * np.max(np.abs(target))
        check_tensor_symmetries(Rm, 1e-10)

    def test_round_sphere_fd_path(self):
        M = strip_analytic(manifolds.sphere(3, radius=2.0))
        x = np.array([0.3, 0.1, -0.2])
        Rm = curvature_tensor_at(M, x)
        target = space_form_tensor(M.metric_at(x), 0.25)
        assert np.max(np.abs(Rm - target)) <= 1e-7 * np.max(np.abs(target))
        check_tensor_symmetries(Rm, 1e-7)

    def test_hyperbolic_space_form(self):
        M = manifolds.hyperbolic(3)
        x = np.array([0.5, -0.3, 1.7])
        Rm = curvature_tensor_at(M, x)
        target = space_form_tensor(M.metric_at(x), -1.0)
        assert np.max(np.abs(Rm - target)) <= 1e-10 * np.max(np.abs(target))

    def test_product_block_structure(self):
        P = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
        x = np.array([0.1, 0.3, -0.2, 0.4])
        Rm = curvature_tensor_at(P, x)
        check_tensor_symmetries(Rm, 1e-9)
        # components mixing the two factors vanish
        mixed = Rm.copy()
        mixed[:2, :2, :2, :2] = 0.0
        mixed[2:, 2:, 2:, 2:] = 0.0
        assert np.max(np.abs(mixed)) <= 1e-9 * np.max(np.abs(Rm))

    def test_warped_product_gauss_curvature(self):
        # g = dt^2 + cosh(t)^2 dtheta^2 has K = -w''/w = -1
        M = manifolds.warped_product(1, np.cosh, np.sinh, np.cosh,
                                     base_interval=(-1.5, 1.5))
        x = np.array([0.4, 1.0])
        g = M.metric_at(x)
        u = np.array([1.0, 0.0])
        eigs = curvature_eigenvalues(M, x, u)
        assert eigs[0] == pytest.approx(-1.0, abs=1e-9)
        M_const = manifolds.warped_product(2, np.ones_like, np.zeros_like, np.zeros_like,
                                           base_interval=(-1.5, 1.5))
        Rm = curvature_tensor_at(M_const, np.array([0.2, 1.0, 2.0]))
        assert np.max(np.abs(Rm)) <= 1e-7  # constant warp is flat

    def test_bump_torus_symmetries(self):
        M = manifolds.bump_torus(3, amplitude=0.1)
        x = M.extra["center"] + 0.4
        Rm = curvature_tensor_at(M, x)
        assert np.max(np.abs(Rm)) > 1e-4  # bump actually curves
        check_tensor_symmetries(Rm, 1e-9)
        Rm_fd = curvature_tensor_at(strip_analytic(M), x)
        assert np.max(np.abs(Rm - Rm_fd)) <= 1e-6 * max(1.0, np.max(np.abs(Rm)))


class TestDirectionalOperator:
    def test_space_form_identity_action(self):
        M = manifolds.hyperbolic(3)
        x = np.array([0.2, 0.1, 1.5])
        g = M.metric_at(x)
        u = np.array([0.3, -1.0, 0.4])
        u = u / math.sqrt(u @ g @ u)
        op = directional_curvature_operator(M, x, u)
        assert np.allclose(op, -np.eye(2), atol=1e-9)
        assert np.max(np.abs(op - op.T)) <= 1e-9

    def test_product_in_factor_eigenvalues(self):
        P = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
        x = np.array([0.1, 0.3, -0.2, 0.4])
        g = P.metric_at(x)
        u = np.zeros(4)
        u[0] = 1.0 / math.sqrt(g[0, 0])
        eigs = curvature_eigenvalues(P, x, u)
        assert np.allclose(np.sort(eigs), [0.0, 0.0, 1.0], atol=1e-9)

    def test_product_mixed_direction_family(self):
        P = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
        x = np.array([0.1, 0.3, -0.2, 0.4])
        g = P.metric_at(x)
        for theta in np.linspace(0.0, math.pi / 2.0, 7):
            a = np.zeros(4)
            a[0] = math.cos(theta) / math.sqrt(g[0, 0])
            a[2] = math.sin(theta) / math.sqrt(g[2, 2])
            eigs = np.sort(curvature_eigenvalues(P, x, a))
            expect = np.sort([math.cos(theta) ** 2, math.sin(theta) ** 2, 0.0])
            assert np.allclose(eigs, expect, atol=1e-9)

    def test_non_unit_vector_rejected(self):
        M = manifolds.sphere(2)
        with pytest.raises(ValueError):
            directional_curvature_operator(M, np.zeros(2), np.array([1.0, 1.0]))


class TestRicK:
    def test_space_form_value(self):
        M = manifolds.hyperbolic(4)
        x = np.array([0.1, -0.2, 0.3, 2.0])
        g = M.metric_at(x)
        u = np.array([1.0, 0.2, -0.1, 0.4])
        u = u / math.sqrt(u @ g @ u)
        frame = complete_frame(g, [u])
        for k in (1, 2, 3):
            val = ric_k(M, x, u, frame[1:1 + k])
            assert val == pytest.approx(-float(k), abs=1e-9)

    def test_full_trace_is_ricci_contraction(self):
        M = manifolds.sphere(3, radius=1.3)
        x = np.array([0.2, 0.4, -0.1])
        g = M.metric_at(x)
        ginv = np.linalg.inv(g)
        Rm = curvature_tensor_at(M, x)
        u = np.array([0.5, -0.2, 0.8])
        u = u / math.sqrt(u @ g @ u)
        frame = complete_frame(g, [u])
        val = ric_k(M, x, u, frame[1:])
        # direct contraction: Ric(u,u) = g^{ik} Rm[i, j, k, l] u^j u^l
        ricci = np.einsum("ik,ijkl,j,l->", ginv, Rm, u, u)
        assert val == pytest.approx(float(ricci), rel=1e-9)

    def test_basis_independence(self):
        P = manifolds.product(manifolds.sphere(2), manifolds.hyperbolic(2))
        x = np.array([0.1, 0.2, 0.3, 1.5])
        g = P.metric_at(x)
        u = np.array([0.4, 0.1, -0.3, 1.0])
        u = u / math.sqrt(u @ g @ u)
        frame = complete_frame(g, [u])
        V = frame[1:3]
        rng = np.random.default_rng(3)
        vals = []
        for _ in range(12):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(ang), math.sin(ang)],
                            [-math.sin(ang), math.cos(ang)]])
            vals.append(ric_k(P, x, u, rot @ V))
        assert np.max(vals) - np.min(vals) <= 1e-10

    def test_product_in_factor_plane(self):
        P = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
        x = np.array([0.1, 0.3, -0.2, 0.4])
        g = P.metric_at(x)
        u = np.zeros(4)
        u[0] = 1.0 / math.sqrt(g[0, 0])
        v = np.zeros(4)
        v[1] = 1.0 / math.sqrt(g[1, 1])
        assert ric_k(P, x, u, [v]) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        M = manifolds.sphere(2)
        x = np.zeros(2)
        g = M.metric_at(x)
        u = np.array([1.0, 0.0]) / math.sqrt(g[0, 0])
        with pytest.raises(ValueError):
            ric_k(M, x, u, [u])  # V parallel to u collapses under projection


def frame_tensor(rm, g):
    """Rm in a g-orthonormal frame (the rows of L^-1, g = L L^T)."""
    linv = np.linalg.inv(np.linalg.cholesky(g))
    return np.einsum("ai,bj,ck,dl,ijkl->abcd", linv, linv, linv, linv, rm, optimize=True)


def operator_norm_bound(rm, g):
    """Frobenius norm of the curvature operator on Lambda^2 in a g-orthonormal frame."""
    return 0.5 * float(np.linalg.norm(frame_tensor(rm, g)))


def least_ric_k(rm, g, k, dirs):
    """Least Ric_k over the unit frame directions dirs (S, n): per direction s
    the sum of the k smallest eigenvalues of Rm(., s, ., s) on an explicit
    orthonormal basis of s-perp. Each value is attained, so the least is >= rho_k."""
    rf = frame_tensor(rm, g)
    n = len(g)
    q, _ = np.linalg.qr(np.concatenate(
        [dirs[:, :, None], np.broadcast_to(np.eye(n)[:, :n - 1], (len(dirs), n, n - 1))], axis=2))
    perp = q[:, :, 1:]
    B = np.einsum("ajcl,sj,sl->sac", rf, dirs, dirs, optimize=True)
    C = np.einsum("sai,sac,scj->sij", perp, B, perp, optimize=True)
    return float(np.min(np.linalg.eigvalsh(C)[:, :k].sum(axis=1)))


def sampled_rho_k(rm, g, k, rng, count=20000):
    """``least_ric_k`` over random directions: the dense random oracle."""
    s = rng.standard_normal((count, len(g)))
    return least_ric_k(rm, g, k, s / np.linalg.norm(s, axis=1, keepdims=True))


def grid_rho_k(rm, g, k):
    """``least_ric_k`` over a product-angle sphere grid (8,192 directions at n = 4)."""
    dirs, _ = product_angle_sphere(len(g) - 1, polar=16, azimuth=32)
    return least_ric_k(rm, g, k, dirs)


def random_curvature_tensors(rng, count):
    """Algebraic curvature tensors on R^4: sums of Kulkarni-Nomizu squares h o h."""
    out = np.zeros((count, 4, 4, 4, 4))
    for _ in range(6):
        h = rng.standard_normal((count, 4, 4))
        h = h + np.swapaxes(h, 1, 2)
        sign = rng.choice([-1.0, 1.0], size=(count, 1, 1, 1, 1))
        out += sign * (np.einsum("bik,bjl->bijkl", h, h) - np.einsum("bil,bjk->bijkl", h, h))
    return out * rng.uniform(0.01, 10.0, size=(count, 1, 1, 1, 1))


def random_metrics(rng, count):
    A = rng.standard_normal((count, 4, 4))
    return np.einsum("bij,bkj->bik", A, A) + np.eye(4)


def check_against_oracle(lo, hi, rms, gs, k, rng, closed=True):
    """lo <= dense random oracle <= hi + its sampling slack, hi attained below
    the oracle, and (``closed``) hi - lo at rounding level."""
    for lo_i, hi_i, rm, g in zip(lo, hi, rms, gs):
        scale = max(1.0, operator_norm_bound(rm, g))
        oracle = sampled_rho_k(rm, g, k, rng)
        assert lo_i <= hi_i <= oracle + 1e-12 * scale
        assert lo_i - 1e-12 * scale <= oracle <= hi_i + 2e-2 * scale   # both round
        if closed:
            assert hi_i - lo_i <= 1e-12 * scale


def batched_rho_k(M, X, k, batch):
    """rho_k over X in consecutive calls of ``batch`` rows each, as (lo, hi)."""
    parts = [rho_k(M, X[i:i + batch], k) for i in range(0, len(X), batch)]
    return (np.concatenate([p.lo for p in parts]), np.concatenate([p.hi for p in parts]))


class TestRhoKBatched:
    """The curvature-operator bracket (k <= n - 2) row by row and in batches."""

    def test_bump_torus_inside_and_outside_support(self):
        M = manifolds.bump_torus(4)
        rng = np.random.default_rng(7)
        X = M.extra["center"] + rng.uniform(-1.25, 1.25, size=(150, 4))
        inside = M.curvature_support.contains(M.domain.wrap(X))
        assert 30 <= inside.sum() <= 120
        for k in (1, 2):
            lo, hi = rho_k(M, X, k)
            assert np.all(lo[~inside] == 0.0) and np.all(hi[~inside] == 0.0)
            assert np.all(hi[inside] < 0.0)
            for batch in (1, 63, 64, 65, len(X)):
                got = batched_rho_k(M, X, k, batch)
                assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi), (k, batch)

    @pytest.mark.parametrize("M", [
        manifolds.product(manifolds.sphere(2), manifolds.sphere(2)),
        manifolds.product(manifolds.sphere(2), manifolds.sphere(3)),
    ], ids=["s2xs2", "s2xs3"])
    def test_manifolds_without_support(self, M):
        rng = np.random.default_rng(3)
        X = M.domain.lo + rng.uniform(0.1, 0.9, size=(8, M.dim)) * M.domain.widths()
        for k in range(1, M.dim - 1):
            lo, hi = rho_k(M, X, k)
            check_against_oracle(lo, hi, [curvature_tensor_at(M, x) for x in X],
                                 M.metric_at(X), k, rng)
            assert np.all(np.abs(hi) <= 1e-12)    # a factor direction with mixed planes
            got = batched_rho_k(M, X, k, 1)
            assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batch_one_equals_batch_n_in_dimension_5(self, k):
        M = manifolds.bump_torus(5)
        X = M.extra["center"] + np.random.default_rng(9).uniform(-1.1, 1.1, size=(70, 5))
        lo, hi = rho_k(M, X, k)
        got = batched_rho_k(M, X, k, 1)
        assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_schouten_closed_form(self, n):
        # conformally flat: Rm = A o g with A the Schouten tensor, whose
        # frame eigenvalues a_1 <= ... <= a_n give rho_k = k a_1 + a_2 + ... + a_{k+1}
        M = manifolds.bump_torus(n)
        X = M.extra["center"] + np.random.default_rng(n).uniform(-1.0, 1.0, size=(6, n))
        for k in range(1, n - 1):
            lo, hi = rho_k(M, X, k)
            for lo_i, hi_i, x in zip(lo, hi, X):
                rm, g = curvature_tensor_at(M, x), M.metric_at(x)
                ricci = np.einsum("ijil->jl", frame_tensor(rm, g))
                a = np.linalg.eigvalsh((ricci - np.trace(ricci) / (2 * (n - 1)) * np.eye(n))
                                       / (n - 2))
                exact = k * a[0] + np.sum(a[1:k + 1])
                scale = max(1.0, operator_norm_bound(rm, g))
                assert lo_i <= exact + 1e-12 * scale and exact <= hi_i + 1e-12 * scale
                assert hi_i - lo_i <= 1e-12 * scale

    @pytest.mark.parametrize("fiber_dim", [2, 3])
    def test_cosh_warped_product_is_hyperbolic(self, fiber_dim):
        # dt^2 + cosh(t)^2 (flat fiber) has curvature -1: rho_k = -k
        M = manifolds.warped_product(fiber_dim, np.cosh, np.sinh, np.cosh)
        X = M.domain.lo + np.random.default_rng(1).uniform(0.2, 0.8, (8, M.dim)) * M.domain.widths()
        for k in range(1, max(2, M.dim - 1)):
            lo, hi = rho_k(M, X, k)
            assert np.all(np.abs(lo + k) <= 1e-12 * k) and np.all(np.abs(hi + k) <= 1e-12 * k)

    def test_random_algebraic_tensors_k2(self):
        # the bracket may stay open here; the pattern search still finds an
        # hi at or below a 20,000-direction scan
        rng = np.random.default_rng(5)
        rms, gs = random_curvature_tensors(rng, 24), random_metrics(rng, 24)
        lo, hi = _rho_bracket(_frame_tensor(rms, np.linalg.inv(np.linalg.cholesky(gs))), 2)
        check_against_oracle(lo, hi, rms, gs, 2, rng, closed=False)

    def test_empty_input(self):
        for M in (manifolds.bump_torus(4), manifolds.sphere(3)):
            lo, hi = rho_k(M, np.zeros((0, M.dim)), 1)
            assert lo.shape == hi.shape == (0,)

    def test_scalar_view(self):
        M = manifolds.bump_torus(4)
        x = M.extra["center"] + 0.3
        assert rho_k_at(M, x, 2) == rho_k(M, [x], 2).hi[0]


class TestRhoK:
    def test_space_forms_exact(self):
        for M, c in [(manifolds.sphere(3), 1.0), (manifolds.hyperbolic(3), -1.0),
                     (manifolds.flat_torus(3), 0.0)]:
            x = M.domain.lo + 0.5 * M.domain.widths()
            for k in (1, 2):
                assert rho_k_at(M, x, k) == pytest.approx(k * c, abs=1e-9)

    def test_product_spheres_oracle(self):
        P = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
        x = np.array([0.1, 0.3, -0.2, 0.4])
        assert rho_k_at(P, x, 2) == pytest.approx(0.0, abs=1e-3)
        assert rho_k_at(P, x, 3) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("maker", [
        lambda: (manifolds.bump_torus(3, amplitude=0.08, width=1.2),
                 manifolds.bump_torus(3, amplitude=0.08, width=1.2).extra["center"] + 0.5),
        lambda: (manifolds.sphere(3), np.array([0.2, -0.1, 0.3])),
        lambda: (manifolds.hyperbolic(3), np.array([0.1, 0.4, 1.3])),
        lambda: (manifolds.product(manifolds.sphere(2), manifolds.sphere(2)),
                 np.array([0.1, 0.3, -0.2, 0.4])),
    ])
    def test_grid_refined_oracle_chain(self, maker):
        # lo <= hi <= a dense direction grid, which the bracket reaches
        M, x = maker()
        k = min(2, M.dim - 1)
        lo, hi = rho_k(M, [x], k)
        dense = grid_rho_k(curvature_tensor_at(M, x), M.metric_at(x), k)
        assert lo[0] <= hi[0] <= dense + 1e-12
        assert dense <= hi[0] + 1e-3

    def test_eigenvalue_sum_monotonicity_chain(self):
        # sum_{k'} >= sum_k + (k'-k) * lambda_k for each sampled direction,
        # and the normalized negative parts satisfy the paper-proof chain
        M = manifolds.bump_torus(3, amplitude=0.1)
        rng = np.random.default_rng(11)
        g_at = M.metric_at
        for _ in range(16):
            x = rng.uniform(M.domain.lo, M.domain.hi)
            g = g_at(x)
            u = rng.standard_normal(3)
            u = u / math.sqrt(u @ g @ u)
            eigs = np.sort(curvature_eigenvalues(M, x, u))
            s1, s2 = eigs[0], eigs[0] + eigs[1]
            assert s2 >= s1 + (2 - 1) * eigs[0] - 1e-12
            assert max(-s2, 0.0) / 2.0 <= max(-s1, 0.0) / 1.0 + 1e-12

    def test_normalized_deficit_chain_pointwise(self):
        # (rho_{n-k-1})_- / (n-k-1) <= (rho_k)_- / k on sampled bump points
        M = manifolds.bump_torus(4, amplitude=0.1)
        rng = np.random.default_rng(5)
        for _ in range(4):
            x = M.extra["center"] + rng.uniform(-0.8, 0.8, size=4)
            r1 = rho_k_at(M, x, 1)
            r2 = rho_k_at(M, x, 2)
            assert max(-r2, 0.0) / 2.0 <= max(-r1, 0.0) + 1e-9

    def test_verbatim_deficit_inequality_space_forms(self):
        # (rho_{n-k-1})_- <= (rho_k)_- holds on flat and positively curved builtins
        for M in (manifolds.flat_torus(4), manifolds.sphere(3)):
            x = M.domain.lo + 0.4 * M.domain.widths()
            n = M.dim
            for m in range(1, n - 1):
                k = min(m, n - m - 1)
                rk = rho_k_at(M, x, k)
                rnk = rho_k_at(M, x, n - k - 1)
                assert max(-rnk, 0.0) <= max(-rk, 0.0) + 1e-9

    def test_no_state_between_calls(self):
        # rho_k keeps no memo: a repeated call equals a call on a fresh manifold
        x = np.array([math.pi + 0.3, math.pi - 0.2, math.pi + 0.1, math.pi])
        M = manifolds.bump_torus(4)
        first = rho_k_at(M, x, 2)
        assert rho_k_at(M, x, 2) == first == rho_k_at(manifolds.bump_torus(4), x, 2)


def sampled_plane_minimum(rm, g, rng, count=20000):
    """Least sectional curvature Rm(u, w, u, w) over random g-orthonormal planes."""
    linv = np.linalg.inv(np.linalg.cholesky(g))
    q, _ = np.linalg.qr(rng.standard_normal((count, len(g), 2)))
    u, w = q[:, :, 0] @ linv, q[:, :, 1] @ linv
    return float(np.min(np.einsum("ijkl,si,sj,sk,sl->s", rm, u, w, u, w, optimize=True)))


class TestRhoBracket:
    """rho_1 in dimension 4: Thorpe's bracket lo <= min sec <= hi."""

    def check_bracket(self, lo, hi, rms, gs, rng):
        for lo_i, hi_i, rm, g in zip(lo, hi, rms, gs):
            scale = max(1.0, operator_norm_bound(rm, g))
            oracle = sampled_plane_minimum(rm, g, rng)
            assert lo_i <= hi_i
            assert hi_i - lo_i <= 1e-12 * scale
            assert lo_i <= oracle
            assert hi_i <= oracle + 1e-12 * scale   # hi is attained, the oracle only sampled

    @pytest.mark.parametrize("make, method", [
        (lambda rng: (manifolds.bump_torus(4),
                      np.pi + rng.uniform(-1.1, 1.1, size=(12, 4))), "conformal"),
        (lambda rng: (manifolds.bump_torus(4),
                      np.pi + np.sign(rng.standard_normal((6, 4))) * rng.uniform(1.3, 2.5, (6, 4))),
         "conformal"),
        (lambda rng: (manifolds.product(manifolds.sphere(2), manifolds.sphere(2)),
                      rng.uniform(-1.5, 1.5, size=(12, 4))), "product"),
        (lambda rng: (manifolds.flat_torus(4), rng.uniform(0.0, 6.0, size=(6, 4))), "conformal"),
    ], ids=["bump_inside", "bump_outside", "s2xs2_kink", "flat"])
    def test_manifold_points(self, make, method):
        rng = np.random.default_rng(17)
        M, X = make(rng)
        assert rho_method(M, 1) == method
        lo, hi = rho_k(M, X, 1)
        rms = [curvature_tensor_at(M, x) for x in X]
        self.check_bracket(lo, hi, rms, M.metric_at(X), rng)
        if M.curvature_support is not None:
            inside = M.curvature_support.contains(M.domain.wrap(X))
            assert np.all(lo[~inside] == 0.0) and np.all(hi[~inside] == 0.0)
            assert np.all(hi[inside] < 0.0) or not inside.any()

    def test_s2xs2_minimum_is_zero(self):
        # the minimum sits on a kink of t -> lambda_min(R + t*): mixed planes
        M = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
        X = np.random.default_rng(2).uniform(-1.5, 1.5, size=(32, 4))
        lo, hi = rho_k(M, X, 1)
        assert np.all(np.abs(lo) <= 1e-12) and np.all(np.abs(hi) <= 1e-12)

    def test_random_algebraic_tensors(self):
        rng = np.random.default_rng(5)
        rms = random_curvature_tensors(rng, 24)
        bianchi = (rms + np.einsum("bijkl->biklj", rms) + np.einsum("bijkl->biljk", rms))
        assert np.max(np.abs(bianchi)) <= 1e-12 * np.max(np.abs(rms))
        gs = random_metrics(rng, 24)
        lo, hi = _rho_bracket(_frame_tensor(rms, np.linalg.inv(np.linalg.cholesky(gs))), 1)
        self.check_bracket(lo, hi, rms, gs, rng)

    def test_kink_directions_attain_the_minimum(self):
        # an Einstein operator, diagonal on (anti-)self-dual forms, has
        # min sec = (a_1 + b_1) / 2 on a kink of t -> lambda_min(R + t *):
        # the bottom eigenvector's plane and both decomposable elements of
        # the bottom pair attain it
        I, J = np.triu_indices(4, 1)
        sd = np.sqrt(0.5) * np.array([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 1, 0, 0]])
        asd = np.sqrt(0.5) * np.array([[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]])
        R = sd.T @ np.diag([-1.0, 0.5, 2.0]) @ sd + asd.T @ np.diag([0.2, 0.5, 0.8]) @ asd
        rf = np.zeros((1, 4, 4, 4, 4))
        for a, b, sign in ((I, J, 1.0), (J, I, -1.0)):
            rf[0, a[:, None], b[:, None], I, J] = sign * R
            rf[0, a[:, None], b[:, None], J, I] = -sign * R
        lo, dirs = _thorpe_search(R[None])
        assert lo[0] == pytest.approx(-0.4, abs=1e-12)
        for pair in (dirs[:, 0:2], dirs[:, 2:4], dirs[:, 4:6]):
            assert _k_plane_minima(rf, pair, 1)[0][0] == pytest.approx(-0.4, abs=1e-12)

    def test_hi_at_most_the_grid(self):
        M = manifolds.bump_torus(4)
        X = M.extra["center"] + np.random.default_rng(4).uniform(-1.0, 1.0, size=(16, 4))
        lo, hi = rho_k(M, X, 1)
        for x, h in zip(X, hi):
            grid = grid_rho_k(curvature_tensor_at(M, x), M.metric_at(x), 1)
            scale = max(1.0, operator_norm_bound(curvature_tensor_at(M, x), M.metric_at(x)))
            assert h <= grid + 1e-12 * scale

    def test_batch_invariance(self):
        M = manifolds.bump_torus(4)
        X = M.extra["center"] + np.random.default_rng(9).uniform(-1.25, 1.25, size=(150, 4))
        lo, hi = rho_k(M, X, 1)
        for batch in (1, 63, 64, 65):
            parts = [rho_k(M, X[i:i + batch], 1) for i in range(0, len(X), batch)]
            assert np.array_equal(np.concatenate([p.lo for p in parts]), lo), batch
            assert np.array_equal(np.concatenate([p.hi for p in parts]), hi), batch
        assert rho_k_at(M, X[0], 1) == hi[0]

    def test_deficit_norm_rejects_a_bracket(self):
        M = manifolds.bump_torus(4)
        with pytest.raises(ValueError, match="values"):
            lp_deficit_norm(M, -0.1, 4.0, lambda X: rho_k(M, X, 1), resolution=2)


def sampled_ricci_minimum(rm, g, rng, count=20000):
    """Least Ric(u, u) over random g-unit directions u."""
    linv = np.linalg.inv(np.linalg.cholesky(g))
    q = rng.standard_normal((count, len(g)))
    u = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ linv
    ricci = np.einsum("ik,ijkl->jl", np.linalg.inv(g), rm)
    return float(np.min(np.einsum("sj,jl,sl->s", u, ricci, u)))


class TestExactBrackets:
    """rho_k for k = n - 1 (least Ricci eigenvalue) and n = 3, k = 1 (least sectional curvature)."""

    @pytest.mark.parametrize("make, k, method", [
        (lambda rng: (manifolds.bump_torus(3, width=1.2),
                      math.pi + rng.uniform(-1.0, 1.0, (10, 3))), 1, "conformal"),
        (lambda rng: (manifolds.bump_torus(3, width=1.2),
                      math.pi + rng.uniform(-1.0, 1.0, (10, 3))), 2, "conformal"),
        (lambda rng: (manifolds.sphere(3, radius=1.3), rng.uniform(-1, 1, (6, 3))),
         1, "conformal"),
        (lambda rng: (manifolds.hyperbolic(3), rng.uniform(0.5, 2.0, (6, 3))), 2, "conformal"),
        (lambda rng: (manifolds.bump_torus(4), math.pi + rng.uniform(-1.0, 1.0, (10, 4))),
         3, "conformal"),
        (lambda rng: (manifolds.product(manifolds.sphere(2), manifolds.hyperbolic(2)),
                      np.hstack([rng.uniform(-1, 1, (6, 2)), rng.uniform(0.5, 2, (6, 2))])),
         3, "product"),
        (lambda rng: (manifolds.bump_torus(2), math.pi + rng.uniform(-1.0, 1.0, (6, 2))),
         1, "conformal"),
        (lambda rng: (manifolds.sphere_colatitude(3, radius=1.3),
                      rng.uniform([0.3, 0.3, 0.0], [2.8, 2.8, 6.0], (6, 3))), 1, "schouten"),
        (lambda rng: (manifolds.sphere_colatitude(3, radius=1.3),
                      rng.uniform([0.3, 0.3, 0.0], [2.8, 2.8, 6.0], (6, 3))), 2, "ricci"),
    ], ids=["bump3_k1", "bump3_k2", "sphere3_k1", "hyperbolic3_k2", "bump4_k3",
            "s2xh2_k3", "bump2_k1", "colatitude3_k1", "colatitude3_k2"])
    def test_bracket_against_random_directions(self, make, k, method):
        rng = np.random.default_rng(23)
        M, X = make(rng)
        assert rho_method(M, k) == method
        lo, hi = rho_k(M, X, k)
        oracle = sampled_ricci_minimum if k == M.dim - 1 else sampled_plane_minimum
        for lo_i, hi_i, x in zip(lo, hi, X):
            rm, g = curvature_tensor_at(M, x), M.metric_at(x)
            scale = max(1.0, operator_norm_bound(rm, g))
            sample = oracle(rm, g, rng)
            assert lo_i <= hi_i <= lo_i + 1e-12 * scale
            assert lo_i <= sample <= hi_i + 2e-2 * scale   # the oracle only samples
            assert hi_i <= sample + 1e-12 * scale

    def test_space_form_values(self):
        for M, c in [(manifolds.sphere(3, radius=2.0), 0.25), (manifolds.hyperbolic(3), -1.0)]:
            X = M.domain.lo + np.random.default_rng(5).uniform(0.3, 0.7, (8, 3)) * M.domain.widths()
            for k in (1, 2):
                lo, hi = rho_k(M, X, k)
                assert np.all(np.abs(lo - k * c) <= 1e-12) and np.all(np.abs(hi - k * c) <= 1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_batch_invariance(self, k):
        M = manifolds.bump_torus(3, width=1.2)
        X = math.pi + np.random.default_rng(9).uniform(-1.5, 1.5, size=(150, 3))
        lo, hi = rho_k(M, X, k)
        for batch in (1, 63, 64, 65):
            parts = [rho_k(M, X[i:i + batch], k) for i in range(0, len(X), batch)]
            assert np.array_equal(np.concatenate([p.lo for p in parts]), lo), batch
            assert np.array_equal(np.concatenate([p.hi for p in parts]), hi), batch


def rounding_scale(M, x):
    """Frame size of the terms whose cancellation forms Rm at x, at least 1:
    the curvature operator's norm and |Gamma|^2 |g^-1|. Both ``rho_k`` and the
    oracle read curvature formed from them, so both round at eps times it."""
    g = M.metric_at(x)
    return max(1.0, operator_norm_bound(curvature_tensor_at(M, x), g),
               float(np.sum(christoffel_at(M, x) ** 2)) * np.linalg.norm(np.linalg.inv(g), 2))


def allowances(M, X, k):
    """One rounding allowance per row: k RHO_ROUNDING ``rounding_scale``."""
    return k * RHO_ROUNDING * np.array([rounding_scale(M, x) for x in X])


def diagonal_chart(a):
    """g = diag(exp(2 a sin x)) on T^n, a (n, n): not conformally flat for a generic a."""
    n = len(a)
    idx = np.arange(n)

    def diagonal(d):
        out = np.zeros(d.shape + d.shape[-1:])
        out[..., idx, idx] = d
        return out

    def g_ii(x):
        return np.exp(2.0 * np.sin(x) @ a.T)

    def grad(x):
        return diagonal(2.0 * np.cos(x)[..., :, None] * a.T * g_ii(x)[..., None, :])

    def hess(x):
        d1 = 2.0 * np.cos(x)[..., :, None] * a.T
        d2 = -2.0 * (np.sin(x)[..., :, None] * a.T)[..., :, None, :] * np.eye(n)[:, :, None]
        return diagonal((d1[..., :, None, :] * d1[..., None, :, :] + d2)
                        * g_ii(x)[..., None, None, :])

    return ChartManifold(dim=n, metric=lambda x: diagonal(g_ii(x)),
                         domain=Box(np.zeros(n), 2.0 * math.pi * np.ones(n), (True,) * n),
                         metric_grad=grad, metric_hess=hess, name="diagonal")


def bump_product_points(M, rng, count=40):
    """Points of a product with bump factors, each bump's coordinates within
    0.6 of its centre and the others inside their factor's chart."""
    cols = []
    for F in M.extra["factors"]:
        if F.extra.get("kind") == "bump_torus":
            cols.append(F.extra["center"] + rng.uniform(-0.6, 0.6, (count, F.dim)))
        else:
            cols.append(F.domain.lo + rng.uniform(0.4, 0.6, (count, F.dim)) * F.domain.widths())
    return np.hstack(cols)


ROUTE_ARGS = {"product": (manifolds.sphere(2), manifolds.hyperbolic(3)),
              "warped_product": (3, np.cosh, np.sinh, np.cosh)}


class TestRhoRoutes:
    """rho_k's three routes against the search oracle of ``tests/rho_oracle.py``."""

    @pytest.mark.parametrize("M, box", [
        (manifolds.sphere_colatitude(4), None),
        (manifolds.sphere(4, 1.5), (-32.0, 32.0)),
    ], ids=["colatitude4", "sphere4"])
    def test_lo_never_above_hi(self, M, box):
        rng = np.random.default_rng(1)
        lo_box, hi_box = (M.domain.lo, M.domain.hi) if box is None else box
        X = rng.uniform(lo_box, hi_box, size=(1000, M.dim))
        for k in range(1, M.dim):
            lo, hi = rho_k(M, X, k)
            assert np.all(lo <= hi), (k, int(np.sum(lo > hi)), float(np.max(lo - hi)))

    @pytest.mark.parametrize("name", sorted(manifolds.MANIFOLD_BUILDERS))
    def test_brackets_meet_the_oracle(self, name):
        # each widened by four allowances, the two brackets intersect
        M = manifolds.MANIFOLD_BUILDERS[name](*ROUTE_ARGS.get(name, (4,)))
        X = M.domain.lo + np.random.default_rng(2).uniform(size=(12, M.dim)) * M.domain.widths()
        for k in range(1, M.dim):
            lo, hi = rho_k(M, X, k)
            olo, ohi = oracle_rho_k(M, X, k)
            slack = 8.0 * allowances(M, X, k)
            assert np.all(lo <= ohi + slack) and np.all(olo <= hi + slack), (name, k)

    def test_weyl_chart_contains_the_oracle(self):
        # W != 0: the Schouten bracket is open, but certified on both ends
        rng = np.random.default_rng(0)
        M = diagonal_chart(0.3 * rng.standard_normal((4, 4)))
        X = rng.uniform(0.0, 2.0 * math.pi, (24, 4))
        assert np.allclose(M.metric_grad(X), fd_gradient(M.metric, X, FD_STEP_FIRST), atol=1e-8)
        assert np.allclose(M.metric_hess(X), fd_hessian(M.metric, X, FD_STEP_SECOND), atol=1e-5)
        for k in (1, 2, 3):
            assert rho_method(M, k) == ("ricci" if k == 3 else "schouten")
            lo, hi = rho_k(M, X, k)
            olo, ohi = oracle_rho_k(M, X, k)
            tol = 4.0 * allowances(M, X, k)
            assert np.all(lo <= olo + tol) and np.all(ohi <= hi + tol), k
            if k < 3:
                assert np.max(hi - lo) > 0.1, k

    @pytest.mark.parametrize("method, M, k", [
        ("conformal", manifolds.bump_torus(4), 2),
        ("product", manifolds.product(manifolds.bump_torus(3, amplitude=0.3, width=1.2),
                                      manifolds.hyperbolic(2)), 2),
        ("ricci", manifolds.sphere_colatitude(3), 2),
        ("schouten", manifolds.sphere_colatitude(4), 1),
    ], ids=["conformal", "product", "ricci", "schouten"])
    def test_batch_one_equals_batch_n(self, method, M, k):
        assert rho_method(M, k) == method
        rng = np.random.default_rng(9)
        X = M.domain.lo + rng.uniform(0.3, 0.7, (130, M.dim)) * M.domain.widths()
        lo, hi = rho_k(M, X, k)
        for batch in (1, 63, 64, 65):
            got = batched_rho_k(M, X, k, batch)
            assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi), batch

    @pytest.mark.parametrize("M", [
        manifolds.product(manifolds.bump_torus(3, amplitude=0.3, width=1.2),
                          manifolds.hyperbolic(2)),
        manifolds.product(manifolds.bump_torus(3, amplitude=0.3, width=1.2),
                          manifolds.bump_torus(3, amplitude=0.3, width=1.2)),
        manifolds.product(manifolds.bump_torus(4, amplitude=0.3, width=1.2), manifolds.sphere(2)),
    ], ids=["bump3xh2", "bump3xbump3", "bump4xs2"])
    def test_products_of_curved_factors_close(self, M):
        # the search left these open by up to 1.22; the factor reduction
        # closes them, inside the oracle's bracket
        X = bump_product_points(M, np.random.default_rng(0))
        for k in range(1, M.dim):
            lo, hi = rho_k(M, X, k)
            tol = 4.0 * allowances(M, X, k)
            assert np.all(hi - lo <= tol), k
            olo, ohi = oracle_rho_k(M, X, k)
            assert np.all(olo <= lo + tol) and np.all(hi <= ohi + tol), k

    def test_each_factor_is_read_once(self):
        # every rho_j of a factor comes from one evaluation of its jet
        factors = manifolds.bump_torus(3, amplitude=0.3, width=1.2), manifolds.hyperbolic(3)
        calls = []
        for F in factors:
            F.conformal_jet = (lambda jet, name: lambda x: calls.append(name) or jet(x))(
                F.conformal_jet, F.name)
        M = manifolds.product(*factors)
        X = bump_product_points(M, np.random.default_rng(1), count=20)
        rho_k(M, X, 3)
        assert sorted(calls) == sorted(F.name for F in factors)

    def test_s2xs2_from_brackets_alone(self):
        M = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
        assert M.rho_exact is None
        X = np.random.default_rng(2).uniform(-1.5, 1.5, size=(32, 4))
        for k, exact in {1: 0.0, 2: 0.0, 3: 1.0}.items():
            lo, hi = rho_k(M, X, k)
            assert np.all(np.abs(lo - exact) <= 1e-13) and np.all(np.abs(hi - exact) <= 1e-13)
            assert np.all(lo <= hi)

    @pytest.mark.parametrize("flat_first", [True, False])
    def test_one_dimensional_factor(self, flat_first):
        # S^1 x H^3: rho_0 = 0 of the circle, so rho_1 = -1 and rho_2 = rho_3 = -2
        circle, H = manifolds.flat_torus(1), manifolds.hyperbolic(3)
        M = manifolds.product(circle, H) if flat_first else manifolds.product(H, circle)
        rng = np.random.default_rng(4)
        t = rng.uniform(0.0, 2.0 * math.pi, (10, 1))
        h = np.hstack([rng.uniform(-1.0, 1.0, (10, 2)), rng.uniform(0.5, 2.0, (10, 1))])
        X = np.hstack([t, h] if flat_first else [h, t])
        for k, exact in {1: -1.0, 2: -2.0, 3: -2.0}.items():
            lo, hi = rho_k(M, X, k)
            assert np.all(np.abs(lo - exact) <= 1e-12) and np.all(np.abs(hi - exact) <= 1e-12)


def rho_hi(M, k):
    """rho_k's hi on M as the (P, n) -> (P,) callable lp_deficit_norm takes."""
    return lambda X: rho_k(M, X, k).hi


class TestLpDeficitNorm:
    def test_flat_torus_zero(self):
        M = manifolds.flat_torus(3)
        res = lp_deficit_norm(M, -1.0, 2.0, rho_hi(M, 1), resolution=4)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_round_sphere_constant_integrand(self):
        M = manifolds.sphere_colatitude(2, radius=2.0)  # sec = 1/4, area 16 pi
        res1 = lp_deficit_norm(M, 1.0, 1.0, rho_hi(M, 1), resolution=24)
        assert res1.value == pytest.approx(12.0 * math.pi, rel=1e-5)
        res2 = lp_deficit_norm(M, 1.0, 2.0, rho_hi(M, 1), resolution=24)
        assert res2.value == pytest.approx(3.0 * math.sqrt(math.pi), rel=1e-5)
        assert res1.error_estimate >= 0.0

    def test_support_restriction_matches_full_domain(self):
        M = manifolds.bump_torus(2, amplitude=0.1)
        res_support = lp_deficit_norm(M, -0.05, 2.0, rho_hi(M, 1),
                                      resolution=24)
        M_nosupport = manifolds.bump_torus(2, amplitude=0.1)
        M_nosupport.curvature_support = None
        res_full = lp_deficit_norm(M_nosupport, -0.05, 2.0,
                                   rho_hi(M_nosupport, 1), resolution=64)
        assert res_support.value == pytest.approx(
            res_full.value, rel=0.02, abs=1e-6)

    def test_deficit_vanishes_outside_support(self):
        # metric is exactly flat outside the declared box, so for H <= 0 the
        # restriction loses nothing
        M = manifolds.bump_torus(3, amplitude=0.1)
        c, w = M.extra["center"], M.extra["width"]
        rng = np.random.default_rng(1)
        for _ in range(6):
            x = c + np.sign(rng.standard_normal(3)) * (w + rng.uniform(0.05, 0.5, 3))
            x = M.domain.wrap(x)
            rho = rho_k_at(M, x, 1)
            assert abs(rho) <= 1e-12

    def test_bump_across_chart_seam_declares_no_support(self):
        # the bump centred at 0.3 wraps past 0; its curvature must not read 0
        M = manifolds.bump_torus(4, center=[0.3] * 4, width=1.2)
        assert M.curvature_support is None
        centred = manifolds.bump_torus(4, center=[math.pi] * 4, width=1.2)
        x = np.array([[6.083, 0.3, 0.4, 0.2]])
        expect = rho_k(centred, np.mod(x - 0.3 + math.pi, 2.0 * math.pi), 1).hi
        assert expect[0] < 0.0
        assert rho_k(M, x, 1).hi == pytest.approx(expect, rel=1e-9)

    def test_error_estimate_positive_at_resolution_3(self):
        # the coarse comparison grid is strictly coarser than the fine one
        M = manifolds.bump_torus(4)
        res = lp_deficit_norm(M, -0.1, 4.0, rho_hi(M, 1), resolution=3)
        assert res.value > 0.0
        assert res.error_estimate > 0.0

    def test_resolution_below_two_rejected(self):
        M = manifolds.flat_torus(3)
        with pytest.raises(ValueError, match="resolution"):
            lp_deficit_norm(M, 0.0, 2.0, rho_hi(M, 1), resolution=1)


class TestFrames:
    def test_gram_schmidt_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            g = A @ A.T + n * np.eye(n)
            basis = gram_schmidt(g, rng.standard_normal((n, n)))
            gram = basis @ g @ basis.T
            assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-10

    def test_complete_frame_leading_direction(self):
        M = manifolds.hyperbolic(3)
        x = np.array([0.0, 0.0, 1.0])
        g = M.metric_at(x)
        u = np.array([1.0, 1.0, 1.0])
        u = u / math.sqrt(u @ g @ u)
        frame = complete_frame(g, [u])
        assert np.allclose(frame[0], u)
        gram = frame @ g @ frame.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
