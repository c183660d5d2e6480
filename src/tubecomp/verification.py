"""Numerical verification of the comparison theorems on concrete scenarios.

Each check tests its own hypotheses and reports a precondition violation
instead of a bound verdict when one fails. It reads its parameter rows from
``models.HYPOTHESES``; ``hk`` and ``focal`` then certify a declared
rho_k >= kH (``certify_rho_lower_bound``), the others measure Ric_k along
the rays or max |eta|. Equality is flagged only when the absolute slack is
within ten times the combined error estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ChartManifold, DeficitNorm, _jacobi_batch, frame_matrix
from .geometry import lp_deficit_norm, rho_k, rho_method
from .models import (
    BoundReport,
    _denominator_first_zero,
    lemma52_coefficient,
    model_shape_traces,
    thm1_bound,
    thm1_constants,
    unmet_hypothesis,
)
from .quadrature import cumulative_trapezoid
from .submanifolds import EmbeddedSubmanifold, unit_normal_grid
from .transport import (
    NormalRay,
    growth_factors,
    integrate_rays,
    jacobi_det,
    partial_trace,
    structural_residuals,
)
from .tubes import QuadratureSpec, TubeSampler, tube_volume_monte_carlo

__all__ = [
    "Scenario",
    "SuiteReport",
    "certify_rho_lower_bound",
    "check_hessian_comparison",
    "check_focal_radius",
    "check_hk_bound",
    "check_integral_bound",
    "check_lemma_51_52",
    "check_structural_residuals",
    "run_suite",
]

RESIDUAL_LIMITS = {
    "riccati": 1e-5,
    "log_density": 1e-6,
    "wronskian": 1e-8,
    "density_power": 1e-3,
    "taylor_shape": 1e-2,
}
RESIDUAL_RAYS = 8   # residual subsample size, independent of check_rays
CERTIFY_POINTS = 8  # random chart points of the declared-rho_k check


@dataclass(eq=False)
class Scenario:
    """One verification job: geometry, curvature parameters, and enabled checks."""

    name: str
    manifold: ChartManifold
    sigma: EmbeddedSubmanifold
    k: int
    H: float
    p: float
    radii: tuple[float, ...]
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    tolerance: float = 1e-5
    checks: tuple[str, ...] = ()
    seed: int = 0
    hessian_H: float | None = None   # None: the Hessian check uses H
    ray_horizon: float | None = None
    check_rays: int = 16             # rays per Hessian/lemma check; focal: >= 32
    description: str = ""

    _sampler_cache: dict = field(default_factory=dict, repr=False)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def unmet_hypothesis(self, bound: str) -> str | None:
        """``models.unmet_hypothesis`` of ``bound`` at this scenario's n, m, k, p, H."""
        return unmet_hypothesis(bound, self.manifold.dim, self.sigma.dim,
                                self.k, self.p, self.H)

    def declared_rho(self, k: int) -> float | None:
        """Declared homogeneous rho_k of the manifold, or None."""
        return (self.manifold.rho_exact or {}).get(k)

    def rho(self, X: np.ndarray, k: int) -> np.ndarray:
        """rho_k at each row of X (P, n): the declared value, else ``rho_k``'s hi.

        hi is a value rho_k attains, so a norm of (rho_k - H)_- formed from
        it is no larger than the true norm, and a bound formed from that
        norm is no larger than the theorem's: a pass stays earned.
        """
        declared = self.declared_rho(k)
        if declared is not None:
            return np.full(len(X), declared)
        return rho_k(self.manifold, X, k).hi

    def tube_deficit_norm(self, sampler: TubeSampler, r: float, volume: float) -> float:
        """||(rho_k - H)_-||_p over the tube of radius r, whose volume is ``volume``.

        With a declared rho_k the deficit is the constant max(H - rho_k, 0),
        so the norm is that constant times volume^(1/p) and no ray is read;
        otherwise it is ``sampler.lp_deficit`` of ``rho``.
        """
        declared = self.declared_rho(self.k)
        if declared is not None:
            return max(self.H - declared, 0.0) * volume ** (1.0 / self.p)
        return sampler.lp_deficit(r, self.H, self.p, functools.partial(self.rho, k=self.k))

    def sampler(self, r_max: float) -> TubeSampler:
        """Shared ray cache; rebuilt when the geometry or quadrature changed."""
        key = round(float(r_max), 12)
        cached = self._sampler_cache.get(key)
        if (cached is None or cached.M is not self.manifold
                or cached.sigma is not self.sigma or cached.spec != self.quad):
            cached = TubeSampler(self.manifold, self.sigma, r_max, self.quad)
            self._sampler_cache[key] = cached
        return cached

    def horizon(self) -> float:
        return self.ray_horizon if self.ray_horizon is not None else max(self.radii, default=1.0)


def certify_rho_lower_bound(scenario: Scenario, k: int, H: float) -> dict:
    """Certify rho_k >= k H on the chart, or refuse; ``basis`` says how.

    A declared rho_k is constant: ``rho_k``'s lower end (never the declared
    value, which this guards) must clear k H at CERTIFY_POINTS random chart
    points (``samples``; ``bracket_width`` is the largest hi - lo there,
    and ``rho_k_method`` the route ``rho_method`` reads from the chart).
    An undeclared rho_k is refused unevaluated, with a ``reason``: samples
    bound nothing between them without a bound on rho_k's variation
    (Piyavskii, USSR Comput. Math. 12, 1972), and none is known.
    """
    M = scenario.manifold
    method = rho_method(M, k)
    declared = scenario.declared_rho(k)
    if declared is None:
        return {"ok": False, "basis": None, "k": k, "H": H, "rho_k_method": method,
                "reason": f"rho_{k} is not declared: no bound on rho_k between "
                          "chart points is known"}
    box = M.domain
    X = box.wrap(scenario.rng().uniform(box.lo, box.hi, size=(CERTIFY_POINTS, M.dim)))
    lo, hi = rho_k(M, X, k)
    worst = float(np.min(lo))
    margin = worst - k * H
    cert = {"min_rho_k": worst, "margin": margin, "ok": margin >= -1e-9,
            "samples": CERTIFY_POINTS, "k": k, "H": H,
            "declared_gap": float(np.max(np.abs(lo - declared))),
            "rho_k_method": method, "bracket_width": float(np.max(hi - lo)),
            "basis": "declared"}
    if not cert["ok"]:
        cert["reason"] = f"rho_{k} certification failed (margin {margin:.3e})"
    return cert


def _minimality(samplers) -> tuple[float, str | None]:
    """max |eta| over the samplers' grids, and a reason when it tops 1e-6."""
    eta = max((s.grid.eta_max for s in samplers), default=0.0)
    return eta, f"minimality violated: max |eta| = {eta:.3e} > 1e-6" if eta > 1e-6 else None


def _ray_subsample(total: int, limit: int, rng: np.random.Generator) -> list[int]:
    if total <= limit:
        return list(range(total))
    return sorted(rng.choice(total, size=limit, replace=False).tolist())


def _orthonormal_rows(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows (..., k, dim) spanning the columns of A (..., dim, k): one stacked QR."""
    return np.swapaxes(np.linalg.qr(A)[0], -1, -2)


def check_hessian_comparison(scenario: Scenario) -> list[BoundReport]:
    """Partial traces of S(t) against the model trace, both branches.

    Each ray gets four k-frames W per branch (tangential: the first k
    tangent directions and three random ones). For every (ray, W, t) the
    hypothesis Ric_k(velocity, W_t) >= kH is evaluated exactly from the
    parallel-frame curvature matrix (``frame_matrix`` of the Jacobi
    operator from ``_jacobi_batch``); a hypothesis failure, or a branch
    with no sampled time inside the usable ray horizon, yields a
    precondition-violation report instead of a bound verdict. All sampled
    rays are read at once: one guarded ``RayBatch.shape_fields`` read at
    every ray's 8 times, one ``_jacobi_batch`` call, one ``partial_trace``
    of S and of the curvature matrix over every (ray, time, frame), and one
    ``model_shape_traces`` call. The random frames are drawn ray by ray
    and orthonormalized by one stacked QR per branch.
    """
    M, sigma = scenario.manifold, scenario.sigma
    k = scenario.k
    H = scenario.hessian_H if scenario.hessian_H is not None else scenario.H
    m, r = sigma.dim, M.dim - 1
    rng = scenario.rng()
    rays = scenario.sampler(scenario.horizon()).rays
    idx = np.array(_ray_subsample(len(rays), scenario.check_rays, rng), dtype=int)
    err_est = max(1e-7, 100.0 * scenario.quad.ray_tolerance)
    branches = ("generic",) if m < k else ("tangential", "generic")
    # frames (ray, frame, k, r): four per branch, drawn ray by ray; w0 is
    # the tangential frames' mean Weingarten trace, NaN on the generic branch
    draws = {branch: [] for branch in branches}
    for _ in idx:
        if "tangential" in branches:
            draws["tangential"].append(rng.standard_normal((3, m, k)))
        draws["generic"].append(rng.standard_normal((4, r, k)))
    W = _orthonormal_rows(np.array(draws["generic"]).reshape(len(idx), 4, r, k))
    w0 = np.full((len(idx), 4), math.nan)
    if "tangential" in branches:
        tangential = np.zeros((len(idx), 4, k, r))
        tangential[:, 0] = np.eye(r)[:k]
        tangential[:, 1:, :, :m] = _orthonormal_rows(
            np.array(draws["tangential"]).reshape(len(idx), 3, m, k))
        weingarten0 = np.array([rays.weingarten0[i] for i in idx]).reshape(len(idx), m, m)
        w0 = np.concatenate([partial_trace(weingarten0, tangential[..., :m]) / k, w0], axis=1)
        W = np.concatenate([tangential, W], axis=1)
    columns = {branch: slice(4 * b, 4 * b + 4) for b, branch in enumerate(branches)}
    # each frame's model trace is defined up to its denominator's first zero
    hi_all = np.minimum(scenario.horizon(), 0.98 * rays.focal_times()[idx])
    zeros = np.array([[_denominator_first_zero(H, None if math.isnan(w) else w)
                       for w in row] for row in w0.tolist()]).reshape(w0.shape)
    hi_frame = np.minimum(hi_all[:, None], 0.98 * zeros)
    horizon = {branch: float(np.max(hi_frame[:, cols], initial=0.0))
               for branch, cols in columns.items()}
    hi_max = np.max(hi_frame, axis=1, initial=0.0)
    read = hi_max >= 0.05
    rows, W, w0, hi_frame, hi_max = idx[read], W[read], w0[read], hi_frame[read], hi_max[read]
    ts = np.linspace(np.maximum(0.05, hi_max / 8), hi_max, 8, axis=-1)    # (ray, time)
    shapes, (x, v, E, _, _) = rays.shape_fields(ts, rows)
    rmats = frame_matrix(_jacobi_batch(M, x.reshape(-1, M.dim), v.reshape(-1, M.dim))[2],
                         E.reshape((-1,) + E.shape[2:]))
    traces = partial_trace(np.stack([shapes, rmats.reshape(shapes.shape)]), W[:, None])
    use = ts[:, :, None] <= hi_frame[:, None, :]            # (ray, time, frame)
    model = model_shape_traces(H, k, w0, ts)
    # branch -> columns (t, model, trace, Ric_k, w0, ray) in (ray, time, frame) order
    samples = {}
    for branch, cols in columns.items():
        sel = use[:, :, cols]
        samples[branch] = [np.broadcast_to(a, sel.shape)[sel] for a in (
            ts[:, :, None], model[:, :, cols], traces[0][:, :, cols], traces[1][:, :, cols],
            w0[:, None, cols], rows[:, None, None])]

    reports = []
    for branch in branches:
        t, model, trace, ric, w0, ray = samples[branch]
        if len(t) == 0:
            reports.append(BoundReport.precondition_violation(
                f"hessian_comparison[{branch}]",
                f"no sample on {len(idx)} rays: usable ray horizon "
                f"{horizon[branch]:g} (ray horizon {scenario.horizon():g})",
                branch=branch, usable_horizon=horizon[branch]))
            continue
        margin = float(np.min(ric - k * H))
        if margin < -1e-8:
            reports.append(BoundReport.precondition_violation(
                f"hessian_comparison[{branch}]",
                f"Ric_k along rays dips {margin:.3e} below kH",
                branch=branch, hypothesis_margin=margin))
            continue
        slack = model - trace
        j = int(np.argmin(slack))        # the first least slack
        worst = {"t": float(t[j]), "ray": int(ray[j]), "model": float(model[j]),
                 "trace": float(trace[j]), "w0": None if branch == "generic" else float(w0[j])}
        max_abs = float(np.max(np.abs(slack)))
        rep = BoundReport.from_values(
            f"hessian_comparison[{branch}]", measured=worst["trace"],
            bound=worst["model"], tolerance=scenario.tolerance,
            error_estimate=err_est, branch=branch, samples=len(t),
            hypothesis_margin=margin, worst=worst, max_abs_slack=max_abs)
        rep.equality = max_abs <= 10.0 * err_est
        reports.append(rep)
    return reports


def check_focal_radius(scenario: Scenario) -> BoundReport:
    """Focal distances against pi / (2 sqrt(H)) under Ric_k >= kH > 0.

    The sampled lines of the scenario's normal-fiber grid are integrated
    in one batch, each line as its +xi and -xi rays, to 2.5 times the bound.
    On a hypersurface the S^0 fiber grid holds both normals of each line,
    so lines are drawn from fiber 0 alone and each is integrated once.
    """
    k, H = scenario.k, scenario.H
    reason = scenario.unmet_hypothesis("focal")
    if reason is not None:
        return BoundReport.precondition_violation("focal_radius", reason)
    cert = certify_rho_lower_bound(scenario, k, H)
    if not cert["ok"]:
        return BoundReport.precondition_violation("focal_radius", cert["reason"],
                                                  certification=cert)
    bound = math.pi / (2.0 * math.sqrt(H))
    horizon = 2.5 * bound
    M, sigma, quad = scenario.manifold, scenario.sigma, scenario.quad
    grid = unit_normal_grid(sigma, M, base_resolution=quad.base_resolution,
                            fiber_resolution=quad.fiber_resolution, rng=quad.rng())
    lines = grid.normals[:, :1] if M.dim - sigma.dim == 1 else grid.normals
    normals = lines.reshape(-1, M.dim)      # line i: node i // lines per node
    idx = _ray_subsample(len(normals), max(32, scenario.check_rays), scenario.rng())
    # each normal line focuses within the bound (flip xi when <eta, xi> > 0),
    # so the measured quantity is the max over lines of the +-pair minimum
    rays = [NormalRay(grid.base_params[i // lines.shape[1]], sign * normals[i],
                      t_max=horizon, tolerance=quad.ray_tolerance)
            for i in idx for sign in (1.0, -1.0)]
    batch = integrate_rays(M, sigma, rays,
                           [grid.nodes[i // lines.shape[1]] for i in idx for _ in (1, -1)])
    pair_minima = batch.focal_times().reshape(-1, 2).min(axis=1)
    for i, pair in zip(idx, pair_minima):
        if pair == math.inf:
            return BoundReport.precondition_violation(
                "focal_radius", f"no focal point found within {horizon} on ray pair {i}")
    worst = max(pair_minima)
    weingarten_max = float(np.max(np.abs(batch.weingarten0)))
    rep = BoundReport.from_values(
        "focal_radius", measured=worst, bound=bound + 1e-6,
        tolerance=scenario.tolerance, error_estimate=1e-7,
        certification=cert, n_lines=len(idx),
        focal_radius=min(pair_minima), weingarten_max=weingarten_max)
    # the equality case needs Sigma totally geodesic: every S_xi vanishes
    rep.equality = abs(worst - bound) <= 1e-6 and weingarten_max <= 1e-6
    return rep


def _bound_rounding(bound: float) -> float:
    """1e-10 max(1, bound), a bound's rounding allowance; 0 for a bound past
    the floats, which leaves nothing to round and would make the estimate inf."""
    return 1e-10 * max(1.0, bound) if math.isfinite(bound) else 0.0


def check_hk_bound(scenario: Scenario, radii) -> list[BoundReport]:
    """Tube volume against the constant-curvature comparison integrand, per radius."""
    k, H = scenario.k, scenario.H
    reason = scenario.unmet_hypothesis("hk")
    if reason is not None:
        return [BoundReport.precondition_violation("hk_bound", reason) for _ in radii]
    cert = certify_rho_lower_bound(scenario, k, H)
    if not cert["ok"]:
        return [BoundReport.precondition_violation("hk_bound", cert["reason"],
                                                   certification=cert)
                for _ in radii]
    reports = []
    for r in radii:
        sampler = scenario.sampler(max(r, max(scenario.radii, default=r)))
        measured = sampler.volume(r)
        rhs = sampler.hk_bound(H, r)
        err = measured.error_estimate + _bound_rounding(rhs)
        reports.append(BoundReport.from_values(
            "hk_bound", measured=measured.value, bound=rhs,
            tolerance=scenario.tolerance, error_estimate=max(err, 1e-9),
            constants={"n": scenario.manifold.dim, "m": scenario.sigma.dim,
                       "k": k, "H": H, "r": r},
            certification=cert, rays=measured.rays_used,
            truncated=sum(measured.truncated_at_focal)))
    return reports


def check_integral_bound(scenario: Scenario, radii,
                         monte_carlo_check: bool = False) -> list[BoundReport]:
    """Measured tube volume against the integral-curvature upper bound.

    Emits two reports per radius, in order: one with the global deficit
    norm (the theorem as stated; this is the pass/fail one) and one with
    the tube-restricted norm (``Scenario.tube_deficit_norm``). The global
    norm is computed once for all radii. ``rho_k_method`` names how rho_k
    is read ("declared", or ``rho_method``'s "conformal", "product",
    "ricci" or "schouten"). The norms read ``rho_k``'s attained end hi, so
    a pass is earned; a global failure at an evaluated rho_k stands only if it also
    fails at the norm from the certified end lo, walked only then, and is
    otherwise a precondition violation that names both norms. With
    ``monte_carlo_check``,
    ``mc_z`` = (Monte Carlo - quadrature volume) / Monte Carlo standard
    error, and ``mc_consistent`` is |mc_z| <= 3: a Gaussian z-score
    crosses 3 by chance in 0.27 % of runs.
    """
    M, sigma = scenario.manifold, scenario.sigma
    n, m = M.dim, sigma.dim
    k, H, p = scenario.k, scenario.H, scenario.p
    reason = scenario.unmet_hypothesis("integral")
    if reason is None:
        samplers = [scenario.sampler(max(r, max(scenario.radii, default=r)))
                    for r in radii]
        eta_max, reason = _minimality(samplers)
    if reason is not None or not radii:
        return [BoundReport.precondition_violation("integral_bound", reason)
                for _ in radii]
    constants = thm1_constants(n, m, p, H)
    declared = scenario.declared_rho(k)
    global_norm = lp_deficit_norm(M, H, p, functools.partial(scenario.rho, k=k),
                                  resolution=scenario.quad.chart_resolution)
    global_lo = functools.cache(lambda: lp_deficit_norm(   # walked at the first failure
        M, H, p, lambda X: rho_k(M, X, k).lo, resolution=scenario.quad.chart_resolution))
    reports = []
    for r, sampler in zip(radii, samplers):
        vol_sigma = sampler.grid.sigma_volume
        measured = sampler.volume(r)
        tube_norm = scenario.tube_deficit_norm(sampler, r, measured.value)
        details_common = {
            "vol_sigma": vol_sigma, "eta_max": eta_max, "r": r,
            "rho_k_method": rho_method(M, k) if declared is None else "declared",
            "mean_curvature_check": "passed",
        }
        if monte_carlo_check:
            mc_value, mc_err = tube_volume_monte_carlo(M, sigma, r, scenario.quad)
            details_common["mc_volume"] = mc_value
            details_common["mc_stderr"] = mc_err
            details_common["mc_z"] = (mc_value - measured.value) / max(mc_err, 1e-12)
            details_common["mc_consistent"] = bool(abs(details_common["mc_z"]) <= 3.0)

        def report(label, norm):
            bound = thm1_bound(constants, vol_sigma, norm.value, r)
            err = measured.error_estimate + abs(norm.error_estimate) + _bound_rounding(bound)
            return BoundReport.from_values(
                f"integral_bound[{label}]", measured=measured.value, bound=bound,
                tolerance=scenario.tolerance, constants=constants,
                error_estimate=max(err, 1e-9), deficit_norm=norm.value,
                norm_variant=label, **details_common)

        glob = report("global", global_norm)
        if not glob.passed and declared is None and report("global", global_lo()).passed:
            glob = BoundReport.precondition_violation(glob.name, (
                f"fails at the deficit norm {global_norm.value:.6g} from rho_{k}'s attained "
                f"end but holds at {global_lo().value:.6g} from its certified lower end"),
                deficit_norm=global_norm.value, deficit_norm_lo=global_lo().value,
                norm_variant="global", **details_common)
        reports += [glob, report("tube", DeficitNorm(tube_norm, 0.0))]
    return reports


def check_lemma_51_52(scenario: Scenario) -> list[BoundReport]:
    """Per-ray growth-factor inequalities with accumulated ray integrals.

    Lemma A: J'(t) Y^((n-m-1)/m) <= int (rho_m)_- A^(1/m) + (1/m^2) int
    (phi+ psi+) A^(1/m). Lemma B (needs minimal Sigma and p > n-k):
    || (phi+ psi+) ||_{p, ray} <= (2p-1)/(p-(n-k)) || (rho_k)_- ||_{p, ray}.
    The curvature term is the pointwise minimum. All sampled rays are read
    at once, each on its own 129-point grid up to min(t_max, 0.95 focal).
    """
    n, m = scenario.manifold.dim, scenario.sigma.dim
    k, p = scenario.k, scenario.p
    reason = scenario.unmet_hypothesis("lemmas")
    if reason is not None:
        return [BoundReport.precondition_violation("lemma_51_52", reason)]
    d = n - m - 1
    sampler = scenario.sampler(scenario.horizon())
    idx = _ray_subsample(len(sampler.rays), scenario.check_rays, scenario.rng())
    _, reason = _minimality([sampler])
    if reason is not None:
        return [BoundReport.precondition_violation("lemma_51_52", reason)]
    coef_52 = lemma52_coefficient(n, k, p)
    eps = 1e-6
    his = np.minimum([sampler.rays.rays[i].t_max for i in idx],
                     0.95 * sampler.rays.focal_times()[idx])
    for i, hi in zip(idx, his):
        if hi <= eps:
            return [BoundReport.precondition_violation("lemma_51_52", (
                f"ray {i} has no lemma grid after t = {eps:g}: usable ray horizon"
                f" {hi:g} (ray horizon {scenario.horizon():g})"), usable_horizon=hi)]
    ts = np.linspace(eps, his, 129, axis=-1)          # (rays, times)
    positions, Js, Jps = sampler.rays.fields(ts, idx, ("x", "J", "Jp"))
    phi, psi, j_scalar, y_scalar = growth_factors(ts, Js, Jps, m)
    A = jacobi_det(Js)
    points = positions.reshape(-1, n)
    rho_m = scenario.rho(points, m).reshape(ts.shape)
    rho_k = rho_m if k == m else scenario.rho(points, k).reshape(ts.shape)
    pos_prod = np.maximum(phi, 0.0) * np.maximum(psi, 0.0)
    # cumulative integrals from t = eps; the [0, eps] sliver is O(eps)
    a_pow = A ** (1.0 / m)
    int_rho = cumulative_trapezoid(np.maximum(-rho_m, 0.0) * a_pow, ts)
    int_prod = cumulative_trapezoid(pos_prod * a_pow, ts)
    lhs_51 = (phi / m) * j_scalar * y_scalar ** (d / m)
    worst_51 = float(np.min(int_rho + int_prod / m**2 - lhs_51))
    lhs_52 = cumulative_trapezoid(pos_prod**p * A, ts) ** (1.0 / p)
    rhs_52 = coef_52 * cumulative_trapezoid(np.maximum(-rho_k, 0.0) ** p * A, ts) ** (1.0 / p)
    worst_52 = float(np.min(rhs_52 - lhs_52))
    tail = slice(ts.shape[-1] // 4, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lhs_52[:, tail] > 1e-14,
                          rhs_52[:, tail] / np.maximum(lhs_52[:, tail], 1e-300), np.inf)
    # spot-check of the J'' differential inequality (finite differences)
    h = ts[:, 1:2] - ts[:, :1]
    j2 = (j_scalar[:, 3:-1] - 2.0 * j_scalar[:, 2:-2] + j_scalar[:, 1:-3]) / h**2
    lim = (-rho_m[:, 2:-2] / m) * j_scalar[:, 2:-2]
    jy_resid = max(0.0, float(np.max(j2 - lim)))
    rep51 = BoundReport.from_values(
        "lemma_51", measured=-worst_51, bound=0.0, tolerance=scenario.tolerance,
        error_estimate=1e-7, rays=len(idx),
        note="measured = worst (lhs - rhs); bound holds when <= tolerance",
        jy_second_derivative_residual=jy_resid)
    rep52 = BoundReport.from_values(
        "lemma_52", measured=-worst_52, bound=0.0, tolerance=scenario.tolerance,
        error_estimate=1e-7, rays=len(idx), coefficient=coef_52,
        min_rhs_over_lhs=float(np.min(ratios)),
        jy_second_derivative_residual=jy_resid,
        note="measured = worst (lhs - rhs); bound holds when <= tolerance")
    return [rep51, rep52]


def check_structural_residuals(scenario: Scenario) -> BoundReport:
    """Evolution-law residuals on RESIDUAL_RAYS of the scenario's rays.

    measured is the largest residual / limit ratio and its error estimate
    the largest stencil error / limit: a maximum moves by at most the
    largest error of its terms.
    """
    rng = scenario.rng()
    sampler = scenario.sampler(scenario.horizon())
    idx = _ray_subsample(len(sampler.rays), RESIDUAL_RAYS, rng)
    worst = dict.fromkeys(RESIDUAL_LIMITS, 0.0)
    error = dict.fromkeys(RESIDUAL_LIMITS, 0.0)
    for i in idx:
        res = structural_residuals(sampler.rays[i])
        if res is None:
            return BoundReport.precondition_violation("structural_residuals", (
                f"ray {i} too short for the residual stencil from t = 0.025"
                f" (ray horizon {scenario.horizon():g})"))
        for key in worst:
            worst[key] = max(worst[key], res[key])
            error[key] = max(error[key], res["error"][key])
    return BoundReport.from_values(
        "structural_residuals", bound=1.0, tolerance=0.0,
        measured=max(worst[key] / lim for key, lim in RESIDUAL_LIMITS.items()),
        error_estimate=max(error[key] / lim for key, lim in RESIDUAL_LIMITS.items()),
        residuals=worst, residual_errors=error, limits=dict(RESIDUAL_LIMITS),
        rays=len(idx))


CHECK_DISPATCH = {
    "hessian": lambda sc: check_hessian_comparison(sc),
    "focal": lambda sc: [check_focal_radius(sc)],
    "hk": lambda sc: check_hk_bound(sc, sc.radii),
    "integral": lambda sc: check_integral_bound(sc, sc.radii),
    "integral_mc": lambda sc: check_integral_bound(sc, sc.radii[-1:],
                                                   monte_carlo_check=True),
    "lemmas": lambda sc: check_lemma_51_52(sc),
    "residuals": lambda sc: [check_structural_residuals(sc)],
}


@dataclass
class SuiteReport:
    """Aggregated results of all checks over a scenario set."""

    entries: list  # (scenario_name, BoundReport)

    @property
    def failures(self) -> list:
        return [(name, rep) for name, rep in self.entries
                if rep.status == "ok" and not rep.passed]

    @property
    def precondition_violations(self) -> list:
        return [(name, rep) for name, rep in self.entries
                if rep.status == "precondition-violation"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "n_checks": len(self.entries),
            "n_failures": len(self.failures),
            "n_precondition_violations": len(self.precondition_violations),
            "ok": self.ok,
            "reports": [{"scenario": name, **rep.as_dict()}
                        for name, rep in self.entries],
        }

    def csv_rows(self) -> list[list]:
        rows = [["scenario", "check", "status", "measured", "bound", "slack",
                 "tolerance", "passed", "equality", "error_estimate"]]
        for name, rep in self.entries:
            rows.append([name, rep.name, rep.status, repr(rep.measured),
                         repr(rep.bound), repr(rep.slack), repr(rep.tolerance),
                         rep.passed, rep.equality, repr(rep.error_estimate)])
        return rows

    def summary(self) -> str:
        lines = []
        for name, rep in self.entries:
            if rep.status == "precondition-violation":
                verdict = "PRECONDITION-VIOLATION"
                detail = rep.details.get("reason", "")
            else:
                verdict = "PASS" if rep.passed else "FAIL"
                eq = " (equality)" if rep.equality else ""
                detail = (f"measured={rep.measured:.9g} bound={rep.bound:.9g} "
                          f"slack={rep.slack:.3e}{eq}")
            lines.append(f"[{verdict}] {name} :: {rep.name} :: {detail}")
        lines.append(f"-- {len(self.entries)} checks, "
                     f"{len(self.failures)} failures, "
                     f"{len(self.precondition_violations)} precondition violations")
        return "\n".join(lines)


def run_suite(scenarios, checks: tuple[str, ...] | None = None) -> SuiteReport:
    """Run every enabled check on every scenario, sorted by scenario name."""
    plan = [(scenario, checks if checks is not None else scenario.checks)
            for scenario in sorted(scenarios, key=lambda s: s.name)]
    unknown = [check for _, enabled in plan for check in enabled
               if check not in CHECK_DISPATCH]
    if unknown:     # reject unknown names before any check runs
        raise KeyError(f"unknown check '{unknown[0]}'; known: {sorted(CHECK_DISPATCH)}")
    return SuiteReport(entries=[(scenario.name, rep) for scenario, enabled in plan
                                for check in enabled for rep in CHECK_DISPATCH[check](scenario)])
