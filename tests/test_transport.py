"""Ray integration: Jacobi matrices, shape operators, focal times, residual laws."""

import dataclasses
import decimal
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tubecomp import manifolds, transport
from tubecomp.manifolds import ambient_tangent_to_chart, axes_with_pole
from tubecomp.submanifolds import (
    base_node,
    great_circle,
    point,
    round_sphere,
    sphere_point,
    sub_torus,
    build_submanifold,
    unit_normal_grid,
)
from tubecomp.transport import (
    FocalSingularityError,
    NormalRay,
    RayIntegrationError,
    _pack,
    growth_factors,
    integrate_ray,
    integrate_rays,
    partial_trace,
    split_traces,
    structural_residuals,
)
from tubecomp.models import model_shape_trace

S3_POLAR_AXES = axes_with_pole([0.0, 0.0, math.cos(0.196), math.sin(0.196)])
S3_TILTED_AXES = axes_with_pole([math.cos(0.4) * math.cos(0.55),
                                 math.cos(0.4) * math.sin(0.55),
                                 0.0, math.sin(0.4)])


def flat_circle_ray(t_max=2.0):
    M = manifolds.flat_torus(4)
    sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
    ray = NormalRay(np.array([0.5]), np.eye(4)[2], t_max=t_max)
    return M, sigma, ray


def s3_circle_ray(t_max=1.5, psi=0.0):
    M = manifolds.sphere(3, axes=S3_POLAR_AXES)
    sigma = great_circle(M)
    s = np.array([0.7])
    q = np.array([math.cos(0.7), math.sin(0.7), 0.0, 0.0])
    w = np.array([0.0, 0.0, math.cos(psi), math.sin(psi)])
    xi = ambient_tangent_to_chart(M, q, w)
    return M, sigma, NormalRay(s, xi, t_max=t_max)


def hyperbolic_point_ray(t_max=2.2):
    M = manifolds.hyperbolic(3)
    sigma = point(M, [0.0, 0.0, 1.0])
    g = M.metric_at(np.array([0.0, 0.0, 1.0]))
    xi = np.array([0.3, -0.2, 0.5])
    xi = xi / math.sqrt(xi @ g @ xi)
    return M, sigma, NormalRay(np.zeros(0), xi, t_max=t_max)


class TestIntegrateRay:
    def test_flat_torus_linear_jacobi(self):
        M, sigma, ray = flat_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        J, Jp = sol.fields(1.3)[3:]
        assert np.allclose(J, np.diag([1.0, 1.3, 1.3]), atol=1e-10)
        assert np.allclose(Jp, np.diag([0.0, 1.0, 1.0]), atol=1e-10)
        assert sol.density(1.3) == pytest.approx(1.3**2, rel=1e-9)

    def test_s3_great_circle_blocks(self):
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        t = 0.9
        assert np.allclose(sol.fields(t)[3], np.diag([math.cos(t), math.sin(t)]), atol=1e-8)
        assert sol.density(t) == pytest.approx(math.cos(t) * math.sin(t), abs=1e-8)

    def test_hyperbolic_point_sinh(self):
        M, sigma, ray = hyperbolic_point_ray()
        sol = integrate_ray(M, sigma, ray)
        assert np.allclose(sol.fields(1.0)[3], math.sinh(1.0) * np.eye(2), atol=1e-8)

    def test_unit_speed_and_frame_orthonormality(self):
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        for x, v, E in zip(*sol.fields(np.array([0.2, 0.7, 1.2]))[:3]):
            g = M.metric_at(x)
            assert v @ g @ v == pytest.approx(1.0, abs=1e-8)
            rows = np.vstack([E, v])
            gram = rows @ g @ rows.T
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-8

    def test_chart_exit_reports_failing_t(self):
        # euclidean chart is a finite box; a long ray must exit it
        M = manifolds.euclidean(3, halfwidth=2.0)
        sigma = point(M, [0.0, 0.0, 0.0])
        ray = NormalRay(np.zeros(0), np.array([1.0, 0.0, 0.0]), t_max=10.0)
        with pytest.raises(RayIntegrationError) as err:
            integrate_ray(M, sigma, ray)
        assert 1.9 <= err.value.t <= 2.3

    @pytest.mark.parametrize("xi, t_exit", [
        (np.array([1.0, 0.0, 0.0]), 2.2),
        (np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), 2.2 * math.sqrt(2.0))])
    def test_chart_exit_root_is_the_chart_margin(self, xi, t_exit):
        # the chart [-2, 2]^3 with its margin of 5 % of the width 4 ends at
        # x_0 = 2.2; the root is found on the exit step's dense segment
        M = manifolds.euclidean(3, halfwidth=2.0)
        sigma = point(M, [0.0, 0.0, 0.0])
        with pytest.raises(RayIntegrationError) as err:
            integrate_ray(M, sigma, NormalRay(np.zeros(0), xi, t_max=10.0))
        assert err.value.t == pytest.approx(t_exit, abs=1e-12)


def _grid_rays(M, sigma, t_max):
    grid = unit_normal_grid(sigma, M, base_resolution=3, fiber_resolution=3)
    return [NormalRay(grid.base_params[b], grid.normals[b, f], t_max=t_max)
            for b in range(len(grid.base_params))
            for f in range(len(grid.fiber_coeffs))]


def s3_grid_rays():
    M = manifolds.sphere(3, axes=S3_POLAR_AXES)
    sigma = great_circle(M)
    return M, sigma, _grid_rays(M, sigma, 2.0)


def bump_grid_rays():
    M = manifolds.bump_torus(4, amplitude=0.1, width=1.2)
    sigma = sub_torus(M, [0], np.array([0.0, math.pi - 2.3, math.pi, math.pi]))
    return M, sigma, _grid_rays(M, sigma, 2.0)


def _solve_ivp_reference(M, sigma, ray):
    """Dense solution of one ray by scipy's solve_ivp, the integrator's reference."""
    from scipy.integrate import solve_ivp

    from tubecomp.geometry import connection_and_curvature
    from tubecomp.transport import _initial_state

    n = M.dim
    y0, _ = _initial_state(base_node(sigma, M, ray.base_param), ray.xi)
    start, sz = 2 * n + (n - 1) * n, (n - 1) * (n - 1)

    def rhs(t, y):
        v = y[n:2 * n]
        E = y[2 * n:start].reshape(n - 1, n)
        J = y[start:start + sz].reshape(n - 1, n - 1)
        _, gamma, rm = connection_and_curvature(M, y[:n])
        rmat = np.einsum("ijkl,ai,j,bk,l->ab", rm, E, v, E, v)
        rmat = 0.5 * (rmat + rmat.T)
        return np.concatenate([v, -np.einsum("ijk,j,k->i", gamma, v, v),
                               -np.einsum("ijk,j,ak->ai", gamma, v, E).ravel(),
                               y[start + sz:], (-rmat @ J).ravel()])

    return solve_ivp(rhs, (0.0, ray.t_max), y0, method="DOP853",
                     rtol=ray.tolerance, atol=ray.tolerance * 1e-2,
                     dense_output=True).sol


def _states(sol, ts):
    """A ray's flat states at the times ts, read through its fields."""
    return _pack(*sol.fields(ts))


class TestBatchedRays:
    @pytest.mark.parametrize("maker", [s3_grid_rays, bump_grid_rays])
    def test_batch_equals_one_at_a_time(self, maker):
        # a ray's dense solution is bitwise the same alone and in any batch
        M, sigma, rays = maker()
        ts = np.linspace(0.0, 2.0, 41)
        together = integrate_rays(M, sigma, rays)
        odd = integrate_rays(M, sigma, rays[1::2])
        for i, ray in enumerate(rays):
            alone = _states(integrate_ray(M, sigma, ray), ts)
            assert np.array_equal(alone, _states(together[i], ts))
            if i % 2:
                assert np.array_equal(alone, _states(odd[i // 2], ts))

    def test_given_nodes_equal_built_nodes(self):
        # a caller's nodes give the same bits as the nodes integrate_rays builds
        M, sigma, rays = s3_grid_rays()
        rays = rays[:5]
        ts = np.linspace(0.0, 2.0, 41)
        nodes = [base_node(sigma, M, ray.base_param) for ray in rays]
        given, built = integrate_rays(M, sigma, rays, nodes), integrate_rays(M, sigma, rays)
        for a, b in zip(given, built):
            assert np.array_equal(_states(a, ts), _states(b, ts))
        with pytest.raises(ValueError, match="4 base nodes for 5 rays"):
            integrate_rays(M, sigma, rays, nodes[:4])

    @pytest.mark.parametrize("maker", [s3_grid_rays, bump_grid_rays])
    def test_matches_solve_ivp(self, maker):
        # same tables and step rules; only rounding differs, far below the
        # requested tolerance
        M, sigma, rays = maker()
        rays = rays[:6]
        ts = np.linspace(0.0, 2.0, 41)
        for ray, sol in zip(rays, integrate_rays(M, sigma, rays)):
            reference = _solve_ivp_reference(M, sigma, ray)(ts)
            assert np.allclose(_states(sol, ts).T, reference, rtol=0.0,
                               atol=ray.tolerance)

    def test_chart_exit_names_lowest_failing_ray(self):
        M = manifolds.euclidean(3, halfwidth=2.0)
        sigma = point(M, [0.0, 0.0, 0.0])
        e = np.eye(3)
        diagonal = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        inside = NormalRay(np.zeros(0), e[1], t_max=1.5)
        axis = NormalRay(np.zeros(0), e[0], t_max=10.0)       # exits near t = 2.2
        slanted = NormalRay(np.zeros(0), diagonal, t_max=10.0)  # exits near t = 3.1
        down = NormalRay(np.zeros(0), -e[2], t_max=10.0)
        with pytest.raises(RayIntegrationError) as err:
            integrate_rays(M, sigma, [inside, axis, slanted, down])
        assert err.value.index == 1
        assert 1.9 <= err.value.t <= 2.3
        assert "left the chart" in str(err.value)
        assert "s=[] xi=[1. 0. 0.]" in str(err.value)
        # the batch position decides, not the failure time
        with pytest.raises(RayIntegrationError) as err:
            integrate_rays(M, sigma, [inside, slanted, axis])
        assert err.value.index == 1
        assert 2.9 <= err.value.t <= 3.3

    def test_empty_batch(self):
        M, sigma, _ = flat_circle_ray()
        assert integrate_rays(M, sigma, []) == []


def _stage_tables():
    """Every stage sum's scipy table row, next to the integrator's nonzero row.

    Stage 12 is f(y_new), so A's row 12 is not a stage sum of the integrator.
    """
    from scipy.integrate._ivp import dop853_coefficients
    from scipy.integrate._ivp.rk import DOP853

    stages = [s for s in range(1, 16) if s != DOP853.n_stages]
    tables = ([dop853_coefficients.A[s, :s] for s in stages] + [DOP853.B]
              + list(dop853_coefficients.D) + [DOP853.E5, DOP853.E3])
    rows = ([transport._A_ROWS[s] for s in stages] + [transport._B] + transport._D_ROWS
            + [transport._E5, transport._E3])
    return tables, rows


class TestStageSums:
    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_every_stage_sum_adds_left_to_right(self, batch):
        # bitwise ((0 + c_0 K_0) + c_1 K_1) + ... over the nonzero c_s, at any
        # batch size, on the integrator's strided slice of its stage slots
        rng = np.random.default_rng(batch)
        K_all = (rng.standard_normal((16, batch + 3, 20))
                 * 10.0 ** rng.integers(-8, 9, (16, batch + 3, 20)))
        K_all[:, :, :2] = rng.choice([0.0, -0.0], (16, batch + 3, 2))
        K = K_all[:, :batch]
        tables, rows = _stage_tables()
        assert len(rows) == 21
        for table, row in zip(tables, rows):
            expected = np.zeros(K.shape[1:])
            for c, k in zip(table, K):
                if c != 0.0:
                    expected = expected + c * k
            got = transport._combine(row, K)
            assert got.tobytes() == expected.tobytes()
            assert got[:1].tobytes() == transport._combine(row, K[:, :1]).tobytes()

    def test_integrator_forms_every_stage_sum_through_one_function(self, monkeypatch):
        used = []
        combine = transport._combine
        monkeypatch.setattr(transport, "_combine",
                            lambda row, K: used.append(id(row)) or combine(row, K))
        integrate_rays(*equator_rays(3))
        assert set(used) == {id(row) for row in _stage_tables()[1]}


def _scipy_reference(batch, i):
    """Ray i of a store rebuilt as scipy's OdeSolution of Dop853DenseOutput segments."""
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    count = batch.last[i] + 1
    knots = batch.knots[i, :count + 1]
    return OdeSolution(knots, [
        Dop853DenseOutput(float(knots[s]), float(knots[s + 1]), batch.starts[i, s],
                          batch.coeffs[i, s])
        for s in range(count)])


class TestRayStore:
    @pytest.mark.parametrize("maker", [s3_grid_rays, bump_grid_rays])
    def test_fields_equal_scipy_dense_output(self, maker):
        # interior times, every knot, and times just outside [0, t_max]
        M, sigma, rays = maker()
        batch = integrate_rays(M, sigma, rays[:6])
        rng = np.random.default_rng(4)
        times = []
        for i, sol in enumerate(batch):
            reference = _scipy_reference(batch, i)
            assert len(reference.interpolants) > 3
            ts = np.concatenate([rng.uniform(0.0, sol.t_max, 32), reference.ts,
                                 [-1e-3, -1e-12, sol.t_max + 1e-12, sol.t_max + 1e-3]])
            assert np.array_equal(_states(sol, ts), reference(ts).T)
            for t in ts[::7]:
                assert np.array_equal(_states(sol, t), reference(t))
            times.append(ts[:40])
        # all rays in one call, each at its own times
        times = np.array(times)
        states = _pack(*batch.fields(times))
        for i in range(len(batch)):
            assert np.array_equal(states[i], _scipy_reference(batch, i)(times[i]).T)

    def test_store_is_plane_major_with_views_in_the_built_shapes(self):
        M, sigma, rays = s3_grid_rays()
        batch = integrate_rays(M, sigma, rays[:5])
        R, S = len(batch), batch.knots.shape[1] - 1
        state = batch.starts.shape[-1]
        assert batch.coeff_planes.shape == (7, state, R * S)
        assert batch.start_planes.shape == (state, R * S)
        assert batch.coeff_planes.flags.c_contiguous and batch.start_planes.flags.c_contiguous
        assert batch.coeffs.shape == (R, S, 7, state) and batch.starts.shape == (R, S, state)
        assert np.shares_memory(batch.coeffs, batch.coeff_planes)
        assert np.shares_memory(batch.starts, batch.start_planes)
        i, s = 3, int(batch.last[3])
        assert np.array_equal(batch.coeffs[i, s], batch.coeff_planes[:, :, i * S + s])
        assert np.array_equal(batch.starts[i, s], batch.start_planes[:, i * S + s])
        # a store rebuilt from the views shares their memory, not a copy
        again = dataclasses.replace(batch)
        assert np.shares_memory(again.coeff_planes, batch.coeff_planes)

    def test_reads_hold_bounded_temporaries(self):
        # one gathered plane at a time: the peak traced allocation of a read
        # stays within 5 times the bytes it returns
        M, sigma, rays = bump_grid_rays()
        batch = integrate_rays(M, sigma, rays)
        one_ray = np.linspace(0.0, 2.0, 1025)[None]
        every_ray = np.linspace(0.0, 2.0, 129)[None].repeat(len(batch), axis=0)
        for read in (lambda: batch.fields(one_ray, [5], ("J",)),
                     lambda: batch.fields(every_ray)):
            tracemalloc.start()
            try:
                values = read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            returned = sum(v.nbytes for v in values)
            assert peak <= 5 * returned

    def test_segment_search_equals_the_comparison_count(self):
        # rows at t_max = 0 (padded to [0, inf, ...]), 0.7 and 2.5, read in
        # order, reversed and repeated, at every knot, between knots, before
        # 0 and past t_max
        M, sigma, rays = sphere_point_rays(3)
        batch = integrate_rays(M, sigma, rays)
        later = batch.knots[:, 1:]
        assert batch.last[0] == 0 and np.isinf(later[0]).all()
        ends = np.array([ray.t_max for ray in rays])[:, None]
        finite = np.where(np.isfinite(later), later, ends)
        ts = np.concatenate([finite, 0.5 * (finite[:, :-1] + finite[:, 1:]),
                             [[-1e-3, -0.0, 0.0]] * 3, ends + [0.0, 1e-12, 0.4, np.inf]],
                            axis=1)
        for rows in ([0, 1, 2], [2, 1, 0], [1, 1, 2, 0, 2]):
            a, v = later[rows], ts[rows]
            for side, below in (("left", np.less), ("right", np.less_equal)):
                want = below(a[:, None, :], v[..., None]).sum(axis=-1)
                assert np.array_equal(transport._row_searchsorted(a, v, side), want)

    def test_zero_horizon_ray_is_its_initial_state(self):
        from tubecomp.transport import _initial_state

        M, sigma, ray = s3_circle_ray(t_max=0.0)
        sol = integrate_ray(M, sigma, ray)
        initial, _ = _initial_state(base_node(sigma, M, ray.base_param), ray.xi)
        assert np.array_equal(_states(sol, 0.0), initial)
        assert np.array_equal(_states(sol, np.array([0.0, 0.5])),
                              np.array([initial, initial]))


class TestShapeOperator:
    def test_hyperbolic_coth(self):
        M, sigma, ray = hyperbolic_point_ray()
        sol = integrate_ray(M, sigma, ray)
        S, _ = sol.shape_fields(1.0)
        assert np.allclose(S, (1.0 / math.tanh(1.0)) * np.eye(2), atol=1e-8)
        assert np.max(np.abs(S - S.T)) <= 1e-7

    def test_flat_blocks(self):
        M, sigma, ray = flat_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        assert np.allclose(sol.shape_fields(0.8)[0], np.diag([0.0, 1.25, 1.25]),
                           atol=1e-9)

    def test_s3_blocks_and_split(self):
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        t = math.pi / 4.0
        S, (_, _, _, J, Jp) = sol.shape_fields(t)
        assert np.allclose(S, np.diag([-math.tan(t), 1.0 / math.tan(t)]), atol=1e-8)
        phi, psi = split_traces(J, Jp, sol.m)
        assert phi == pytest.approx(-1.0, abs=1e-8)
        assert psi == pytest.approx(1.0, abs=1e-8)

    def test_det_scale_independent_of_call_order(self):
        # one Bernstein form of det J serves det_scale and focal_time, whichever runs first
        M, sigma, ray = hyperbolic_point_ray(t_max=2.0)
        before = integrate_ray(M, sigma, ray)
        scale = before.det_scale(1.0025)
        after = integrate_ray(M, sigma, ray)
        assert after.focal_time() == math.inf
        assert after.det_scale(1.0025) == scale
        assert scale == pytest.approx(math.sinh(1.0025) ** 2, rel=5e-3)

    def test_focal_singularity_error(self):
        M, sigma, ray = s3_circle_ray(t_max=2.0)
        sol = integrate_ray(M, sigma, ray)
        with pytest.raises(FocalSingularityError):
            sol.shape_fields(math.pi / 2.0)

    def test_space_form_totally_geodesic_split(self):
        # phi = -m H sn/cs, psi = (n-m-1) cs/sn in a space form around
        # a totally geodesic submanifold
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        ts = np.array([0.3, 0.8, 1.2])
        for t, phi, psi in zip(ts, *split_traces(*sol.fields(ts)[3:], sol.m)):
            assert phi == pytest.approx(-math.tan(t), abs=1e-8)
            assert psi == pytest.approx(1.0 / math.tan(t), abs=1e-8)


def _shape_reference(sol, t):
    """S = J' inv(J) from a read at the one time t."""
    J, Jp = sol.fields(t)[3:]
    return Jp @ np.linalg.inv(J)


class TestShapeFields:
    @pytest.mark.parametrize("maker", [s3_grid_rays, bump_grid_rays])
    def test_batched_read_equals_per_time_reference(self, maker):
        M, sigma, rays = maker()
        sol = integrate_ray(M, sigma, rays[4])
        ts = np.linspace(0.05, min(sol.t_max, 0.9 * sol.focal_time()), 46)
        S, fields = sol.shape_fields(ts)
        for got, want in zip(fields, sol.fields(ts)):
            assert np.array_equal(got, want)
        for i, t in enumerate(ts):
            assert np.array_equal(S[i], _shape_reference(sol, t))
        assert np.array_equal(sol.shape_fields(ts[7])[0], _shape_reference(sol, ts[7]))

    def test_rows_read_together_equal_rows_alone(self):
        # every row guarded against its own ray; one bad row fails the read
        M, sigma, rays = s3_grid_rays()
        batch = integrate_rays(M, sigma, rays[:6])
        rows = np.array([4, 1, 5])
        his = np.minimum([batch.rays[i].t_max for i in rows], 0.9 * batch.focal_times()[rows])
        ts = np.linspace(0.05, his, 7, axis=-1)
        S, fields = batch.shape_fields(ts, rows)
        for j, i in enumerate(rows):
            S_i, fields_i = batch[i].shape_fields(ts[j])
            assert np.array_equal(S[j], S_i)
            assert all(np.array_equal(a[j], b) for a, b in zip(fields, fields_i))
        late = ts.copy()
        late[1, 3] = batch.focal_times()[rows[1]]
        with pytest.raises(FocalSingularityError, match=f"t={late[1, 3]}"):
            batch.shape_fields(late, rows)
        with pytest.raises(ValueError, match="outside integrated range"):
            batch.shape_fields(ts + np.array([[0.0], [0.0], [10.0]]), rows)

    def test_out_of_range_is_a_value_error(self):
        M, sigma, ray = s3_circle_ray(t_max=1.5)
        sol = integrate_ray(M, sigma, ray)
        for ts in (-0.1, 1.5 + 1e-9, np.array([0.5, 1.6]), math.nan):
            with pytest.raises(ValueError, match="outside integrated range"):
                sol.shape_fields(ts)

    def test_zero_and_focal_times_are_singular(self):
        M, sigma, ray = s3_circle_ray(t_max=2.0)
        sol = integrate_ray(M, sigma, ray)
        focal = sol.focal_time()
        assert focal == pytest.approx(math.pi / 2.0, abs=1e-9)
        for ts in (0.0, focal, np.array([0.5, focal]), 1.8):
            with pytest.raises(FocalSingularityError):
                sol.shape_fields(ts)

    def test_det_scale_bounds_the_density(self):
        # at least max(1, |det J|) sampled on [0, t], at and between the knots,
        # and on the hyperbolic point ray, where det J = sinh^2 t grows, equal to it
        for M, sigma, rays in (s3_grid_rays(), bump_grid_rays(), equator_rays(12)):
            batch = integrate_rays(M, sigma, rays)
            ends = np.array([ray.t_max for ray in rays])[:, None]
            ts = np.sort(np.concatenate([np.linspace(0.0, 1.0, 1025) * ends,
                                         np.minimum(batch.knots, ends)], axis=1), axis=1)
            running = np.maximum.accumulate(np.abs(batch.density(ts)), axis=1)
            assert np.all(batch.det_scale(ts) >= np.maximum(1.0, running) * (1.0 - 1e-14))
        M, sigma, ray = hyperbolic_point_ray(t_max=2.0)
        sol = integrate_ray(M, sigma, ray)
        ts = np.concatenate([np.linspace(0.0, 2.0, 97), sol.batch.knots[0, :sol.batch.last[0] + 2]])
        want = np.maximum(1.0, sol.density(ts))
        assert np.allclose(sol.det_scale(ts), want, rtol=1e-14, atol=0.0)
        assert np.allclose(want, np.maximum(1.0, np.sinh(ts) ** 2), rtol=1e-8, atol=0.0)
        assert np.array_equal(sol.det_scale([-1.0, 0.0]), [1.0, 1.0])


class TestPartialTrace:
    def test_full_trace_is_mean_curvature(self):
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        S, (_, _, _, J, Jp) = sol.shape_fields(0.6)
        full = partial_trace(S, np.eye(2))
        phi, psi = split_traces(J, Jp, sol.m)
        assert full == pytest.approx(phi + psi, abs=1e-10)

    def test_first_block_is_phi(self):
        M, sigma, ray = flat_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        S, (_, _, _, J, Jp) = sol.shape_fields(0.9)
        assert partial_trace(S, np.eye(3)[:1]) == pytest.approx(
            split_traces(J, Jp, sol.m)[0], abs=1e-12)

    def test_isotropic_any_subspace(self):
        M, sigma, ray = hyperbolic_point_ray()
        sol = integrate_ray(M, sigma, ray)
        S, _ = sol.shape_fields(1.3)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        val = partial_trace(S, v[None, :])
        assert val == pytest.approx(1.0 / math.tanh(1.3), abs=1e-8)

    def test_basis_independence(self):
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        S, _ = sol.shape_fields(0.5)
        a = partial_trace(S, np.eye(2))
        ang = 0.37
        rot = np.array([[math.cos(ang), math.sin(ang)],
                        [-math.sin(ang), math.cos(ang)]])
        b = partial_trace(S, rot)
        assert a == pytest.approx(b, abs=1e-10)

    def test_rejects_non_orthonormal(self):
        M, sigma, ray = flat_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        with pytest.raises(ValueError):
            partial_trace(sol.shape_fields(0.5)[0], np.array([[1.0, 1.0, 0.0]]))

    def test_frame_stack_reads_every_pair(self):
        rng = np.random.default_rng(6)
        S = rng.standard_normal((8, 3, 3))
        frames = np.array([np.linalg.qr(rng.standard_normal((3, 2)))[0].T for _ in range(5)])
        together = partial_trace(S, frames)
        assert together.shape == (8, 5)
        for f, W in enumerate(frames):
            assert np.allclose(together[:, f], partial_trace(S, W), rtol=1e-15, atol=1e-15)
        # each row of S (rows, times, r, r) with its own frames (rows, 1, F, k, r)
        per_row = np.array([np.linalg.qr(rng.standard_normal((3, 2)))[0].T
                            for _ in range(4 * 5)]).reshape(4, 5, 2, 3)
        S_rows = S.reshape(4, 2, 3, 3)
        rows = partial_trace(S_rows, per_row[:, None])
        assert rows.shape == (4, 2, 5)
        for i in range(4):
            assert np.array_equal(rows[i], partial_trace(S_rows[i], per_row[i]))
        frames[3, 1] *= 1.5
        with pytest.raises(ValueError):
            partial_trace(S, frames)


class TestFocalDistance:
    def test_equator_pi_over_two(self):
        M = manifolds.sphere(3, axes=S3_TILTED_AXES)
        sigma = build_submanifold("equator", M)
        s = np.array([0.9, 2.1])
        normal = base_node(sigma, M, s).normal
        ray = NormalRay(s, normal[0], t_max=2.2)
        t = integrate_ray(M, sigma, ray).focal_time()
        assert t == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_point_conjugate_at_pi(self):
        M = manifolds.sphere(3, axes=axes_with_pole(
            [math.cos(2.0), 0.3 * math.sin(2.0), 0.8 * math.sin(2.0),
             math.sqrt(1.0 - 0.09 - 0.64) * math.sin(2.0)]))
        sigma = sphere_point(M, np.array([1.0, 0.0, 0.0, 0.0]))
        g = M.metric_at(sigma.embed(np.zeros(0)))
        xi = ambient_tangent_to_chart(M, np.array([1.0, 0.0, 0.0, 0.0]),
                                      np.array([0.0, 0.4, -0.5, math.sqrt(1 - 0.41)]))
        xi = xi / math.sqrt(xi @ g @ xi)
        ray = NormalRay(np.zeros(0), xi, t_max=3.5)
        t = integrate_ray(M, sigma, ray).focal_time()
        assert t == pytest.approx(math.pi, abs=1e-8)

    def test_flat_none_in_range(self):
        M, sigma, ray = flat_circle_ray(t_max=10.0)
        assert integrate_ray(M, sigma, ray).focal_time() == math.inf

    def test_small_sphere_inward_focus(self):
        M = manifolds.sphere(3, axes=S3_TILTED_AXES)
        sigma = round_sphere(M, 0.8)
        s = np.array([1.1, 0.7])
        normal = base_node(sigma, M, s).normal
        focals = []
        for sgn in (1.0, -1.0):
            ray = NormalRay(s, sgn * normal[0], t_max=2.6)
            focals.append(integrate_ray(M, sigma, ray).focal_time())
        assert min(focals) == pytest.approx(0.8, abs=1e-7)
        assert max(focals) == pytest.approx(math.pi - 0.8, abs=1e-7)


def equator_rays(count, t_max=1.8):
    """The first count rays of the S^3 equator's 36 x 2 normal grid; det J = cos^2 t."""
    M = manifolds.sphere(3, axes=S3_TILTED_AXES)
    sigma = build_submanifold("equator", M)
    grid = unit_normal_grid(sigma, M, base_resolution=6, fiber_resolution=1)
    rays = [NormalRay(grid.base_params[b], grid.normals[b, f], t_max=t_max)
            for b in range(len(grid.base_params)) for f in range(2)]
    return M, sigma, rays[:count]


def reference_focal_time(sol):
    """One ray's focal time by the grid search the Bernstein search replaced: det
    J on 1025 uniform times, bisected to width 1e-10 with one read per step."""
    ts = np.linspace(0.0, sol.t_max, 1025)
    dets = sol.density(ts)
    size = np.abs(dets)
    scale = max(1.0, float(np.max(size)))
    sign = (((dets[:-1] > 0.0) & (dets[1:] < 0.0))
            | ((dets[:-1] < 0.0) & (dets[1:] > 0.0)))
    touch = np.zeros_like(sign)
    touch[:-1] = ((size[1:-1] <= 1e-4 * scale) & (size[1:-1] < size[:-2])
                  & (size[1:-1] <= size[2:]))
    for i in np.flatnonzero(sign | touch) + 1:
        if sign[i - 1]:
            a, b, fa = ts[i - 1], ts[i], dets[i - 1]
            while b - a > 1e-10:
                mid = 0.5 * (a + b)
                fm = sol.density(mid)
                if (fa > 0) == (fm > 0):
                    a, fa = mid, fm
                else:
                    b = mid
            return 0.5 * (a + b)
        a, b = ts[i - 1], ts[i + 1]
        h = min(1e-4, 0.05 * (b - a))
        sign0 = sol.density(0.5 * (a + b)) >= 0.0

        def slope(t):
            lo, hi = max(t - h, 0.0), min(t + h, sol.t_max)
            d = (sol.density(hi) - sol.density(lo)) / (hi - lo)
            return d if sign0 else -d

        fa = slope(a)
        if not (fa < 0.0 < slope(b)):
            continue
        while b - a > 1e-10:
            mid = 0.5 * (a + b)
            fm = slope(mid)
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        if abs(sol.density(0.5 * (a + b))) <= 1e-9 * scale:
            return 0.5 * (a + b)
    return float(ts[-1]) if abs(dets[-1]) <= 1e-9 * scale else math.inf


def assert_batch_focal_is_per_ray(M, sigma, rays):
    """The batch's focal times and det_scale equal every ray's own, integrated
    alone, bitwise, and its focal times the grid search's within 1e-10."""
    batch = integrate_rays(M, sigma, rays)
    got = batch.focal_times()
    alone = [integrate_ray(M, sigma, ray) for ray in rays]
    assert np.array_equal(got, [sol.focal_time() for sol in alone])
    ts = np.linspace(-0.1, 1.0, 45) * np.array([ray.t_max for ray in rays])[:, None]
    assert batch.det_scale(ts).tobytes() == np.array(
        [sol.det_scale(t) for sol, t in zip(alone, ts)]).tobytes()
    np.testing.assert_allclose(got, [reference_focal_time(sol) for sol in batch],
                               rtol=0.0, atol=1e-10)
    return got


def det_curve(knots, starts, F):
    """A RayBatch of one ray on [0, knots[-1]] around a closed geodesic of the flat
    T^2, whose det J, its one entry, has on segment s the start starts[s] and the
    dense coefficients F[s] (7,)."""
    M = manifolds.flat_torus(2)
    zero = (np.zeros(2), np.zeros(2), np.zeros((1, 2)))

    def state(value):
        return _pack(*zero, np.array([[value]]), np.zeros((1, 1)))
    return transport.RayBatch(
        manifold=M, sigma=sub_torus(M, [0], np.zeros(2)),
        rays=[NormalRay(np.zeros(1), np.eye(2)[1], t_max=knots[-1])],
        weingarten0=[np.zeros((1, 1))], knots=np.array([knots], dtype=float),
        starts=np.array([[state(v) for v in starts]]),
        coeffs=np.array([[[state(c) for c in row] for row in F]]), last=np.array([len(starts) - 1]))


def great_circle_rays():
    """Rays around a great circle of the round S^5 at horizons 1.2 to 2: J is 4 x 4 and
    det J = cos t sin^3 t changes sign at pi/2."""
    M = manifolds.sphere(5)
    sigma = great_circle(M)
    rays = []
    for k, s in enumerate(np.linspace(0.3, 5.5, 4)):
        normal = base_node(sigma, M, [s]).normal      # g-orthonormal rows
        for j, c in enumerate(np.eye(4)[:3] + 0.5 * np.eye(4)[1:]):
            rays.append(NormalRay(np.array([s]), c @ normal / math.sqrt(1.25),
                                  t_max=1.2 + 0.1 * (k + 2 * j)))
    return M, sigma, rays


class TestFocalSearch:
    def test_sign_changes_and_no_zero_mixed(self):
        # det J = cos t sin t changes sign at pi/2; horizons on both sides of it
        rays = [s3_circle_ray(t_max, psi)[2]
                for t_max, psi in ((2.0, 0.0), (1.2, 0.4), (3.0, 1.1),
                                   (1.5, 2.0), (1.65, -0.7))]
        M, sigma, _ = s3_circle_ray()
        got = assert_batch_focal_is_per_ray(M, sigma, rays)
        assert np.array_equal(np.isinf(got), [False, True, False, True, False])
        assert np.allclose(got[~np.isinf(got)], math.pi / 2.0, atol=1e-9)

    def test_touching_zeros_mixed(self):
        M, sigma, rays = equator_rays(6)
        rays = [NormalRay(ray.base_param, ray.xi, t_max=t_max)
                for ray, t_max in zip(rays, (1.8, 1.0, 2.2, 1.8, 1.4, 2.9))]
        got = assert_batch_focal_is_per_ray(M, sigma, rays)
        assert np.array_equal(np.isinf(got), [False, True, False, False, True, False])
        assert np.allclose(got[~np.isinf(got)], math.pi / 2.0, atol=1e-9)

    def test_first_of_two_zeros_wins(self):
        # the inward ray of the 0.8 sphere focuses at 0.8 and again at 0.8 + pi
        M = manifolds.sphere(3, axes=S3_TILTED_AXES)
        sigma = round_sphere(M, 0.8)
        s = np.array([1.1, 0.7])
        normal = base_node(sigma, M, s).normal
        rays = [NormalRay(s, sgn * normal[0], t_max=4.2) for sgn in (1.0, -1.0)]
        got = assert_batch_focal_is_per_ray(M, sigma, rays)
        assert min(got) == pytest.approx(0.8, abs=1e-7)
        assert max(got) == pytest.approx(math.pi - 0.8, abs=1e-7)

    @pytest.mark.parametrize("gap, focal", [(0.0, 0.5), (1e-7, math.inf)])
    def test_touching_minimum_is_focal_only_at_a_zero(self, gap, focal):
        # a one-segment store whose det J is (t - 1/2)^2 + gap on [0, 1]: 0.25 + gap - x (1 - x)
        batch = det_curve([0.0, 1.0], [0.25 + gap], [[0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert batch.focal_times()[0] == pytest.approx(focal, abs=1e-9)
        assert batch.focal_times()[0] == pytest.approx(reference_focal_time(batch[0]), abs=1e-10)

    def test_two_roots_inside_one_grid_step(self):
        # det J = (t - c)^2 - 2.5e-9 = c^2 - 2.5e-9 + (1 - 2c) x - x (1 - x): roots c -+ 5e-5,
        # both inside the grid step [300, 301] / 1024, and a dip deeper than 1e-9
        c = 300.5 / 1024.0
        batch = det_curve([0.0, 1.0], [c * c - 2.5e-9],
                          [[1.0 - 2.0 * c, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        # the exact first root of the stored quadratic, in decimal arithmetic
        J = transport._layout(2)["J"][0].start
        a, b = (decimal.Decimal(float(v))
                for v in (batch.starts[0, 0, J], batch.coeffs[0, 0, 0, J]))
        root = float((1 - b - ((1 - b) ** 2 - 4 * a).sqrt()) / 2)
        assert abs(batch.focal_times()[0] - root) <= 1e-12
        assert reference_focal_time(batch[0]) == math.inf

    @pytest.mark.parametrize("start, slope", [(-1e-13, -1.0), (1e-13, 1.0)])
    def test_change_at_a_knot(self, start, slope):
        # det J = 1 - x on [0, 1/2] ends at 1e-13; the next segment starts at -1e-13 and
        # falls (a sign change at the knot) or at 1e-13 and rises (a touching minimum there)
        batch = det_curve([0.0, 0.5, 1.0], [1.0, start],
                          [[1e-13 - 1.0] + [0.0] * 6, [slope] + [0.0] * 6])
        assert batch.focal_times()[0] == 0.5

    @pytest.mark.parametrize("space, n, t_max", (
        [("flat_torus", 4, t) for t in (0.0, 1e-4, 1e-3, 0.5)]
        + [(space, n, 0.5) for space in ("flat_torus", "sphere") for n in (6, 7)]
        + [("flat_torus", 7, 0.02), ("sphere", 7, 0.02)]))
    def test_short_point_ray_never_focuses(self, space, n, t_max):
        # det J ~ t^(n-1) on a point ray of the flat T^n, or of S^n before pi, is small
        # near 0 but never zero; at n = 7 it is below 1e-9 at the first knot, near 0.019,
        # and at t = 0.02 on the second segment, where it rises
        M = getattr(manifolds, space)(n)
        x0 = np.linspace(0.5, 2.0, n)
        u = 0.6 * np.eye(n)[0] + 0.8 * np.eye(n)[2]
        u /= math.sqrt(u @ M.metric_at(x0) @ u)
        sol = integrate_ray(M, point(M, x0), NormalRay(np.zeros(0), u, t_max=t_max))
        assert sol.focal_time() == math.inf
        if n == 7:
            assert sol.batch.knots[0, 1] < min(t_max, 1e-9 ** (1.0 / 6.0))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_zero_of_high_multiplicity(self, n, monkeypatch):
        # det J = sin^(n-1) t from a point of S^n: the Bernstein product alone places
        # its zero at pi to about 1e-8 (4e-7 at n = 6); the entries' values, to the
        # grid search's 1e-10, still with no store read
        M, sigma, rays = sphere_point_rays(n)
        rays = [NormalRay(ray.base_param, ray.xi, t_max=3.5) for ray in rays]
        calls = []
        dense = transport._dense_states
        monkeypatch.setattr(transport, "_dense_states",
                            lambda *args, **kwargs: calls.append(1) or dense(*args, **kwargs))
        got = integrate_rays(M, sigma, rays).focal_times()
        assert not calls
        monkeypatch.undo()
        assert np.allclose(got, math.pi, atol=1e-9)
        assert_batch_focal_is_per_ray(M, sigma, rays)

    @pytest.mark.parametrize("maker", [s3_grid_rays, bump_grid_rays, lambda: equator_rays(12),
                                       great_circle_rays])
    def test_grid_batches(self, maker):
        assert_batch_focal_is_per_ray(*maker())

    def test_search_makes_no_store_read(self, monkeypatch):
        # det J's Bernstein form comes from the store's planes, and the search from it
        calls = []
        dense = transport._dense_states
        monkeypatch.setattr(transport, "_dense_states",
                            lambda *args, **kwargs: calls.append(1) or dense(*args, **kwargs))
        for count in (8, 72):
            batch = integrate_rays(*equator_rays(count))
            assert np.allclose(batch.focal_times(), math.pi / 2.0, atol=1e-9)
            batch.det_scale(np.full((count, 3), 1.0))
        assert not calls

    @pytest.mark.parametrize("maker", [s3_grid_rays, bump_grid_rays, lambda: equator_rays(12),
                                       great_circle_rays])
    def test_certified_segments_keep_one_sign(self, maker):
        # a segment whose det J coefficients all clear 0 by their allowance (on a
        # first segment those of det J / x^d) holds no zero: sampled on 257 points
        batch = integrate_rays(*maker())
        b, allowance = batch._det_bernstein
        S = batch.knots.shape[1] - 1
        x = np.linspace(0.0, 1.0, 257)
        certified = 0
        for i in range(len(batch)):
            for s in range(batch.last[i] + 1):
                sign = np.sign(b[:, i * S + s])
                if not (np.all(np.abs(b[:, i * S + s]) > allowance[i * S + s])
                        and np.all(sign == sign[0])):
                    continue
                t0, t1 = batch.knots[i, s:s + 2]
                dens = batch.density((t0 + x * (t1 - t0))[None], [i])[0]
                assert np.all(np.sign(dens[1:] if s == 0 else dens) == sign[0])
                certified += 1
        assert certified >= len(batch)

    def test_cached_arrays_are_read_only(self):
        batch = integrate_rays(*equator_rays(2))
        for a in (batch.focal_times(), *batch._det_bernstein):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert batch.focal_times() is batch.focal_times()


def sphere_point_rays(n):
    """Rays from a point of the round S^n at horizons 0, 0.7 and 2.5: the
    shorter rays have fewer segments, so their rows of the store are padded."""
    M = manifolds.sphere(n)
    sigma = point(M, np.full(n, 0.1))
    g = M.metric_at(np.full(n, 0.1))
    dirs = np.random.default_rng(n).standard_normal((3, n))
    return M, sigma, [NormalRay(np.zeros(0), u / math.sqrt(u @ g @ u), t_max=t_max)
                      for u, t_max in zip(dirs, (0.0, 0.7, 2.5))]


def full_state_density(batch, ts, rows=None):
    """det J from a read of the whole state: what a J-only read must equal bitwise."""
    return transport.jacobi_det(batch.fields(ts, rows)[3])


class TestPartialReads:
    """A read of some state parts is bitwise the same parts of a whole-state read."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_density_is_det_of_the_full_read(self, n):
        M, sigma, rays = sphere_point_rays(n)
        batch = integrate_rays(M, sigma, rays)
        assert batch.last[0] == 0 and batch.last[1] < batch.last[2]
        # uniform times, each ray's first knots and times outside [0, t_max]
        ts = np.concatenate([np.linspace(0.0, 2.5, 37)[None].repeat(3, axis=0),
                             np.minimum(batch.knots[:, :3], 2.5),
                             [[-1e-3, 0.7, 2.5]] * 3], axis=1)
        got = batch.density(ts)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == full_state_density(batch, ts).tobytes()
        assert batch.density(ts[[2, 1]], [2, 1]).tobytes() == got[[2, 1]].tobytes()
        for i, sol in enumerate(batch):
            assert sol.density(ts[i]).tobytes() == got[i].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_any_parts_equal_the_full_read(self, n):
        M, sigma, rays = sphere_point_rays(n)
        batch = integrate_rays(M, sigma, rays)
        ts = np.linspace(0.0, 2.5, 29)[None].repeat(3, axis=0)
        full = dict(zip("x v E J Jp".split(), batch.fields(ts)))
        for parts in (("x", "J"), ("x", "J", "Jp"), ("Jp", "v"), ("E",)):
            for p, got in zip(parts, batch.fields(ts, None, parts)):
                assert got.tobytes() == full[p].tobytes()
                assert got.shape == full[p].shape

    @pytest.mark.parametrize("maker", [s3_grid_rays, bump_grid_rays,
                                       lambda: equator_rays(12)])
    def test_bernstein_det_equals_the_full_read(self, maker):
        # det J in Bernstein form (det J / x^d on a first segment), evaluated by de
        # Casteljau on 17 times of each segment, equals det J of a whole-state read
        # within its rounding allowance
        M, sigma, rays = maker()
        batch = integrate_rays(M, sigma, rays)
        d = M.dim - sigma.dim - 1
        b, allowance = batch._det_bernstein
        S = batch.knots.shape[1] - 1
        x = np.linspace(0.0, 1.0, 17)
        for i in range(len(batch)):
            for s in range(batch.last[i] + 1):
                c = b[:, i * S + s, None] * np.ones_like(x)
                for _ in range(len(c) - 1):
                    c = c[:-1] + x * (c[1:] - c[:-1])
                t0, t1 = batch.knots[i, s:s + 2]
                want = full_state_density(batch, (t0 + x * (t1 - t0))[None], [i])[0]
                got = c[0] * x**d if s == 0 else c[0]
                assert np.all(np.abs(got - want) <= 2.0 * allowance[i * S + s])

    def test_deficit_and_lemma_reads_equal_the_full_read(self, monkeypatch):
        from tubecomp.tubes import QuadratureSpec, TubeSampler
        from tubecomp.verification import Scenario, check_lemma_51_52

        M, sigma, _ = bump_grid_rays()
        quad = QuadratureSpec(base_resolution=2, fiber_resolution=2, t_nodes_per_panel=8)

        def outputs():
            sampler = TubeSampler(M, sigma, 1.5, quad)
            norm = sampler.lp_deficit(1.5, 0.3, 4.0, lambda X: np.sin(X).sum(axis=1))
            sc = Scenario(name="bump4", manifold=M, sigma=sigma, k=1, H=-0.1, p=4.0,
                          radii=(1.5,), quad=quad, check_rays=4)
            return repr(norm), repr([rep.as_dict() for rep in check_lemma_51_52(sc)])

        partial = outputs()
        whole = transport.RayBatch.fields

        def full_read(self, ts, rows=None, parts=None):
            values = dict(zip("x v E J Jp".split(), whole(self, ts, rows)))
            return tuple(values[p] for p in parts or values)
        monkeypatch.setattr(transport.RayBatch, "fields", full_read)
        assert outputs() == partial
        assert "precondition" not in partial[1]

    @pytest.mark.parametrize("maker", [bump_grid_rays, lambda: equator_rays(12)])
    def test_jacobi_reads_evaluate_only_the_jacobi_columns(self, maker, monkeypatch):
        M, sigma, rays = maker()
        batch = integrate_rays(M, sigma, rays)
        n = M.dim
        widths = []
        dense = transport._dense_states
        state = batch.starts.shape[-1]

        def counted(*args):
            ys = dense(*args)
            widths.append(sum(y.shape[-1] for y in ys))
            return ys
        monkeypatch.setattr(transport, "_dense_states", counted)
        batch.density(np.zeros((len(batch), 3)))
        assert widths == [(n - 1) ** 2]
        widths.clear()
        batch.fields(np.zeros((len(batch), 3)))
        batch.fields(np.zeros((len(batch), 3)), None, ("x", "J", "Jp"))
        assert widths == [state, n + 2 * (n - 1) ** 2]


def exact_det(rows) -> Fraction:
    """det of a small matrix given as rows of Fractions, by Laplace expansion."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * rows[0][j] * exact_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def det_tolerance(J, lapack):
    """8 ulp of Hadamard's bound prod |row| on |det J|, plus np.linalg.det's own
    rounding: it forms sign * exp(sum log |u_ii|), whose relative error grows
    like |log |det J|| ulp."""
    hadamard = np.prod(np.linalg.norm(J, axis=-1), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(lapack != 0.0, np.abs(lapack * np.log(np.abs(lapack))), 0.0)
    return np.finfo(float).eps * (8.0 * hadamard + drift)


def synthetic_jacobians(r, kind):
    """(64, r, r) random J, scaled to entries near 1e-100 or 1e100, or near-singular."""
    rng = np.random.default_rng(r)
    J = rng.standard_normal((64, r, r))
    if kind == "near_singular":
        J[:, -1] = np.einsum("ki,kij->kj", rng.standard_normal((64, r - 1)), J[:, :-1])
        J[:, -1] += 1e-12 * rng.standard_normal((64, r))
    return J * {"tiny": 1e-100, "huge": 1e100}.get(kind, 1.0)


def ray_jacobians(r, kind):
    """J (rays, 33, r, r) along rays from a point of S^(r+1), or from a sub-torus
    of the bump torus T^(r+1) with a normal fiber of dimension 1 or 2, at 33
    times in [0, 2]."""
    if kind == "point":
        M, sigma, rays = sphere_point_rays(r + 1)
    else:
        M = manifolds.bump_torus(r + 1, amplitude=0.1, width=1.2)
        sigma = sub_torus(M, range(max(1, r - 2)), np.full(r + 1, math.pi - 0.5))
        rays = _grid_rays(M, sigma, 2.0)[::3]
    batch = integrate_rays(M, sigma, rays)
    ts = np.linspace(0.0, 2.0, 33)[None].repeat(len(batch), axis=0)
    return batch.fields(ts, None, ("J",))[0]


def jacobian_cases(kinds):
    return [(r, kind) for kind in kinds for r in range(1, 6)
            if not (kind in ("near_singular", "sub_torus") and r == 1)]


class TestJacobiDet:
    """jacobi_det: a Laplace expansion for r <= 4, np.linalg.det beyond."""

    @pytest.mark.parametrize("r, kind", jacobian_cases(
        ["random", "tiny", "huge", "near_singular", "point", "sub_torus"]))
    def test_agrees_with_lapack(self, r, kind):
        J = (ray_jacobians(r, kind) if kind in ("point", "sub_torus")
             else synthetic_jacobians(r, kind))
        # r >= 4 at entries 1e-100 or 1e100: |det J| leaves the float range
        with np.errstate(over="ignore", invalid="ignore"):
            got, lapack = transport.jacobi_det(J), np.linalg.det(J)
            hadamard = np.prod(np.linalg.norm(J, axis=-1), axis=-1)
        assert got.shape == J.shape[:-2]
        if r >= 5 or (kind == "huge" and r == 4):
            # r = 4 at entries 1e100: |det J| ~ 1e400 overflows, and LAPACK's value stands
            assert got.tobytes() == lapack.tobytes()
            return
        if kind == "tiny" and r == 4:
            assert np.all((got == 0.0) & (lapack == 0.0) & (hadamard == 0.0))
            return
        assert np.all(np.abs(got - lapack) <= det_tolerance(J, lapack))
        # and the closed form against the exact determinant of its entries
        eps = Fraction(np.finfo(float).eps)
        for k in np.ndindex(J.shape[:-2]):
            if k[-1] % 4 == 0:
                want = exact_det([[Fraction(x) for x in row] for row in J[k].tolist()])
                assert abs(Fraction(got[k]) - want) <= 8 * eps * Fraction(hadamard[k])

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_exact_zero_at_the_start(self, r):
        # J(0) = diag(I_m, 0) with a zero block, from every m < r, and as the rays read it
        for m in range(r):
            J0 = np.diag(np.r_[np.ones(m), np.zeros(r - m)])
            assert transport.jacobi_det(J0) == 0.0
        assert transport.jacobi_det(np.eye(r)) == 1.0
        for kind in ("point", "sub_torus") if r > 1 else ("point",):
            assert np.all(transport.jacobi_det(ray_jacobians(r, kind)[:, 0]) == 0.0)

    @pytest.mark.parametrize("r, kind", jacobian_cases(["random", "near_singular",
                                                        "point", "sub_torus"]))
    def test_batch_one_equals_batch_n(self, r, kind):
        J = (ray_jacobians(r, kind) if kind in ("point", "sub_torus")
             else synthetic_jacobians(r, kind).reshape(8, 8, r, r))
        got = transport.jacobi_det(J)
        for i in range(len(J)):
            assert transport.jacobi_det(J[i:i + 1]).tobytes() == got[i:i + 1].tobytes()
            assert transport.jacobi_det(J[i, 3]) == got[i, 3]


def jy_at(sol, t):
    """(J, Y) factors at time t, from a 16385-point grid starting at 1e-8."""
    ts = np.linspace(1e-8, t, 16385)
    _, _, jj, yy = growth_factors(ts, *sol.fields(ts)[3:], sol.m)
    return jj[-1], yy[-1]


class TestJYFactors:
    def test_flat(self):
        M, sigma, ray = flat_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        jj, yy = jy_at(sol, 1.1)
        assert jj == pytest.approx(1.0, abs=1e-9)
        assert yy == pytest.approx(1.1, rel=1e-9)

    def test_s3_great_circle(self):
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        t = 0.9
        jj, yy = jy_at(sol, t)
        assert jj == pytest.approx(math.cos(t), abs=1e-8)
        assert yy == pytest.approx(math.sin(t), abs=1e-8)

    def test_product_identity(self):
        # J^m Y^(n-m-1) = det J to 1e-7 relative on a curved, non-symmetric ray
        M = manifolds.bump_torus(4, amplitude=0.1, width=1.2)
        sigma = sub_torus(M, [0], np.array([0.0, 0.7, 2.2, 2.6]))
        g = M.metric_at(sigma.embed(np.array([0.4])))
        xi = np.array([0.0, 1.0, 0.4, 0.2])
        xi = xi / math.sqrt(xi @ g @ xi)
        sol = integrate_ray(M, sigma, NormalRay(np.array([0.4]), xi, t_max=1.6))
        for t in (0.5, 1.0, 1.5):
            jj, yy = jy_at(sol, t)
            assert jj**1 * yy**2 == pytest.approx(sol.density(t), rel=1e-7)

    def test_factors_keep_leading_axes(self):
        # a batch of rays gives each ray's own factors along the last axis
        M, sigma, rays = s3_grid_rays()
        batch = integrate_rays(M, sigma, rays[:3])
        ts = np.linspace(1e-6, 1.0, 129)
        J, Jp = batch.fields(np.broadcast_to(ts, (3, len(ts))))[3:]
        together = growth_factors(ts, J, Jp, 1)
        for i, sol in enumerate(batch):
            alone = growth_factors(ts, *sol.fields(ts)[3:], 1)
            for a, b in zip(together, alone):
                assert a.shape == (3, len(ts)) and np.allclose(a[i], b, rtol=1e-12, atol=0)


class TestStructuralResiduals:
    @pytest.mark.parametrize("maker", [flat_circle_ray, s3_circle_ray,
                                       hyperbolic_point_ray])
    def test_space_form_rays(self, maker):
        M, sigma, ray = maker()
        sol = integrate_ray(M, sigma, ray)
        res = structural_residuals(sol)
        assert res["wronskian"] <= 1e-8
        assert res["log_density"] <= 1e-6
        assert res["riccati"] <= 1e-5
        assert res["density_power"] <= 1e-3
        assert res["taylor_shape"] <= 1e-2

    def test_log_density_error_is_the_stencil_error(self):
        # det J = sinh^2 t: the h-central difference of log det J errs by
        # exactly 2 coth t (sinh(2h) / (2h) - 1), largest at the first sample 0.25
        M, sigma, ray = hyperbolic_point_ray()
        res = structural_residuals(integrate_ray(M, sigma, ray))
        h = 1e-4
        exact = 2.0 / math.tanh(0.25) * ((2.0 * h) ** 2 / 6.0 + (2.0 * h) ** 4 / 120.0)
        assert res["error"]["log_density"] == pytest.approx(exact, rel=1e-3)
        # the residual is that stencil error plus the ray's own, which is smaller
        assert abs(res["log_density"] - exact) <= res["error"]["log_density"]
        # the Richardson derivative's error is far below the Riccati limit
        assert 0.0 < res["error"]["riccati"] <= 1e-10
        assert {key: res["error"][key] for key in
                ("wronskian", "density_power", "taylor_shape")} == dict.fromkeys(
                    ("wronskian", "density_power", "taylor_shape"), 0.0)

    def test_samples_start_at_0_025(self):
        # before it the stencil's own error on the 1/t block of S, which is
        # the whole Riccati residual of a flat ray, could pass the 1e-5 limit
        M, sigma, _ = flat_circle_ray()
        short = integrate_ray(M, sigma, flat_circle_ray(t_max=0.0995)[2])
        assert structural_residuals(short) is None
        res = structural_residuals(integrate_ray(M, sigma, flat_circle_ray(t_max=0.11)[2]))
        assert 0.0 < res["riccati"] <= 1e-6

    def test_bump_ray(self):
        M = manifolds.bump_torus(4, amplitude=0.1, width=1.2)
        sigma = sub_torus(M, [0], np.array([0.0, 0.7, 2.2, 2.6]))
        g = M.metric_at(sigma.embed(np.array([0.4])))
        xi = np.array([0.0, 1.0, 0.0, 0.0])
        xi = xi / math.sqrt(xi @ g @ xi)
        sol = integrate_ray(M, sigma, NormalRay(np.array([0.4]), xi, t_max=1.8))
        res = structural_residuals(sol)
        assert res["wronskian"] <= 1e-8
        assert res["log_density"] <= 1e-6
        assert res["riccati"] <= 1e-5
        assert res["density_power"] <= 1e-3
        assert res["taylor_shape"] <= 1e-2


class TestScalarRiccatiInequality:
    def test_partial_trace_riccati_pointwise(self):
        # w = tr_W(S)/k obeys w' + w^2 <= -Ric_k(velocity, W_t)/k + 1e-5
        # for parallel W along a genuinely curved, non-symmetric ray
        from tubecomp.geometry import connection_and_curvature

        M = manifolds.bump_torus(4, amplitude=0.1, width=1.2)
        sigma = sub_torus(M, [0], np.array([0.0, 0.7, 2.2, 2.6]))
        g = M.metric_at(sigma.embed(np.array([0.4])))
        xi = np.array([0.0, 1.0, 0.3, -0.2])
        xi = xi / math.sqrt(xi @ g @ xi)
        sol = integrate_ray(M, sigma, NormalRay(np.array([0.4]), xi, t_max=1.8))
        rng = np.random.default_rng(9)
        h = 1e-4
        for _ in range(4):
            k = int(rng.integers(1, 4))
            W = np.linalg.qr(rng.standard_normal((3, k)))[0][:, :k].T
            for t in (0.4, 0.9, 1.4):
                S, (x, v, E, _, _) = sol.shape_fields(np.array([t, t + h, t - h]))
                w_at, w_plus, w_minus = partial_trace(S, W) / k
                wdot = (w_plus - w_minus) / (2.0 * h)
                _, _, rm = connection_and_curvature(M, x[0])
                rmat = np.einsum("ijkl,ai,j,bk,l->ab", rm, E[0], v[0], E[0], v[0])
                ric = float(np.einsum("ai,ij,aj->", W, rmat, W))
                assert wdot + w_at ** 2 <= -ric / k + 1e-5


class TestHessianComparisonAlongRays:
    def test_s3_tangential_branch_equality(self):
        # totally geodesic circle in the round sphere realizes equality
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        ts = np.array([0.3, 0.7, 1.1])
        for t, tr in zip(ts, partial_trace(sol.shape_fields(ts)[0], np.eye(2)[:1])):
            model = model_shape_trace(1.0, 1, 0.0, t)
            assert tr <= model + 1e-6
            assert tr == pytest.approx(model, abs=1e-6)

    def test_s3_generic_branch_equality(self):
        M, sigma, ray = s3_circle_ray()
        sol = integrate_ray(M, sigma, ray)
        ts = np.array([0.3, 0.7, 1.1])
        for t, tr in zip(ts, partial_trace(sol.shape_fields(ts)[0], np.eye(2)[1:])):
            model = model_shape_trace(1.0, 1, None, t)
            assert tr <= model + 1e-6
            assert tr == pytest.approx(model, abs=1e-6)

    def test_hyperbolic_laplacian_equality(self):
        M, sigma, ray = hyperbolic_point_ray()
        sol = integrate_ray(M, sigma, ray)
        ts = np.linspace(0.1, 2.0, 8)
        for t, tr in zip(ts, partial_trace(sol.shape_fields(ts)[0], np.eye(2))):
            assert tr == pytest.approx(2.0 / math.tanh(t), abs=1e-5)
