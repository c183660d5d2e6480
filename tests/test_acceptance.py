"""Acceptance suite: each test pins one shipped criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. Heavy suite runs are shared through module-scoped fixtures.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tubecomp import manifolds
from tubecomp.cli import main as cli_main
from tubecomp.geometry import curvature_tensor_at, rho_k_at
from tubecomp.models import cheeger_delta, thm1_bound, thm1_constants
from tubecomp.scenarios import build_scenario
from tubecomp.submanifolds import point, sub_torus
from tubecomp.transport import NormalRay, integrate_ray, partial_trace
from tubecomp.tubes import QuadratureSpec, TubeSampler
from tubecomp.verification import run_suite
from test_geometry import sampled_rho_k


GOLDEN = Path(__file__).parent / "golden" / "acceptance_reports.json"


def _report(entries, scenario, check):
    for name, rep in entries:
        if name == scenario and rep.name == check:
            yield rep


def _one(entries, scenario, check):
    found = list(_report(entries, scenario, check))
    assert found, f"no report {scenario}::{check}"
    return found[0]


@pytest.fixture(scope="module")
def spaceform_reports():
    scenarios = [build_scenario(n) for n in
                 ("flat_t4_circle", "flat_t5_torus2", "s3_great_circle",
                  "sn_equator", "s3_small_sphere", "hyperbolic_point")]
    return run_suite(scenarios).entries


@pytest.fixture(scope="module")
def product_reports():
    return run_suite([build_scenario("s2xs2_factor")]).entries


@pytest.fixture(scope="module")
def bump_reports():
    return run_suite([build_scenario("bump_torus")]).entries


@pytest.fixture(scope="module")
def bump05_reports():
    return run_suite([build_scenario("bump_torus_eps05")]).entries


def test_criterion_1_flat_tube_equality():
    """Flat T^4, coordinate circle, r = 0.5: measured = bound = pi^2/3."""
    start = time.time()
    M = manifolds.flat_torus(4, side=2.0 * math.pi)
    M.volume_validity_radius = math.pi
    sigma = sub_torus(M, [0], np.array([0.0, 1.0, 2.0, 3.0]))
    spec = QuadratureSpec(base_resolution=8, fiber_resolution=4)
    res = TubeSampler(M, sigma, 0.5, spec).volume(0.5)
    constants = thm1_constants(4, 1, 4.0, 0.0)
    bound = thm1_bound(constants, 2.0 * math.pi, 0.0, 0.5)
    elapsed = time.time() - start
    target = math.pi**2 / 3.0
    assert res.value == pytest.approx(target, rel=1e-5)
    assert bound == pytest.approx(target, rel=1e-5)
    assert elapsed <= 30.0
    print(f"\n[criterion 1] PASS flat-tube equality: measured={res.value:.9f} "
          f"bound={bound:.9f} target={target:.9f} ({elapsed:.1f}s)")


def test_criterion_2_spaceform_tube_equality(spaceform_reports):
    """S^3 great circle: V(pi/4) = HK bound = pi^2; V(pi/2) = 2 pi^2."""
    reps = list(_report(spaceform_reports, "s3_great_circle", "hk_bound"))
    assert len(reps) == 2
    quarter = min(reps, key=lambda r: r.measured)
    half = max(reps, key=lambda r: r.measured)
    assert quarter.measured == pytest.approx(math.pi**2, rel=1e-5)
    assert quarter.bound == pytest.approx(math.pi**2, rel=1e-5)
    assert quarter.equality
    assert half.measured == pytest.approx(2.0 * math.pi**2, rel=1e-4)
    print(f"\n[criterion 2] PASS space-form tube equality: V(pi/4)="
          f"{quarter.measured:.9f} bound={quarter.bound:.9f}; "
          f"V(pi/2)={half.measured:.9f} (vol S^3={2 * math.pi**2:.9f})")


def test_criterion_3_hessian_comparison_equalities():
    """Hyperbolic Laplacian 2 coth(t) on [0.1, 2]; S^3 generic branch cot(t)."""
    M = manifolds.hyperbolic(3)
    sigma = point(M, [0.0, 0.0, 1.0])
    g = M.metric_at(np.array([0.0, 0.0, 1.0]))
    xi = np.array([0.4, 0.1, 0.6])
    xi = xi / math.sqrt(xi @ g @ xi)
    sol = integrate_ray(M, sigma, NormalRay(np.zeros(0), xi, t_max=2.05))
    ts = np.linspace(0.1, 2.0, 20)
    tr = partial_trace(sol.shape_fields(ts)[0], np.eye(2))
    worst_hyp = float(np.max(np.abs(tr - 2.0 / np.tanh(ts))))
    assert worst_hyp <= 1e-5

    sc = build_scenario("s3_great_circle")
    sampler = sc.sampler(1.4)
    worst_gen = 0.0
    ts = np.linspace(0.1, 1.3, 10)
    for i in (0, 31, 64):
        tr = partial_trace(sampler.rays[i].shape_fields(ts)[0], np.eye(2)[1:])
        worst_gen = max(worst_gen, float(np.max(np.abs(tr - 1.0 / np.tan(ts)))))
    assert worst_gen <= 1e-5
    print(f"\n[criterion 3] PASS Hessian comparison equalities: hyperbolic "
          f"max|trS-2coth|={worst_hyp:.2e}; S^3 generic max|trS-cot|={worst_gen:.2e}")


def test_criterion_4_focal_radius(spaceform_reports):
    """Equator focal = pi/2 with equality flag; small sphere strictly inside."""
    eq = _one(spaceform_reports, "sn_equator", "focal_radius")
    assert eq.status == "ok" and eq.passed
    assert eq.measured == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert eq.equality
    small = _one(spaceform_reports, "s3_small_sphere", "focal_radius")
    assert small.passed and not small.equality
    assert small.measured < math.pi / 2.0 - 1e-3
    print(f"\n[criterion 4] PASS focal radius: equator={eq.measured:.9f} "
          f"(equality flagged), small sphere={small.measured:.9f} < pi/2 - 1e-3")


def test_criterion_5_rho_k_product_oracle():
    """S^2 x S^2: rho_2 = 0 and rho_3 = 1 within 1e-3, matching dense oracle."""
    P = manifolds.product(manifolds.sphere(2), manifolds.sphere(2))
    x = np.array([0.15, -0.2, 0.3, 0.05])
    rho2 = rho_k_at(P, x, 2)
    rho3 = rho_k_at(P, x, 3)
    assert rho2 == pytest.approx(0.0, abs=1e-3)
    assert rho3 == pytest.approx(1.0, abs=1e-3)
    rng = np.random.default_rng(0)
    rm, g = curvature_tensor_at(P, x), P.metric_at(x)
    dense2, dense3 = (sampled_rho_k(rm, g, k, rng) for k in (2, 3))
    assert rho2 == pytest.approx(dense2, abs=1e-3)
    assert rho3 == pytest.approx(dense3, abs=1e-3)
    print(f"\n[criterion 5] PASS rho_k product oracle: rho_2={rho2:.2e} "
          f"rho_3={rho3:.9f} (dense oracle {dense2:.2e}, {dense3:.9f})")


def test_criterion_6_structural_residuals(spaceform_reports, product_reports,
                                          bump_reports, bump05_reports):
    """Riccati/log-density/Wronskian/Taylor residual limits on every built-in."""
    entries = (spaceform_reports + product_reports + bump_reports
               + bump05_reports)
    checked = 0
    worst = {}
    for name, rep in entries:
        if rep.name != "structural_residuals":
            continue
        assert rep.passed, f"residuals failed on {name}: {rep.details}"
        checked += 1
        for key, val in rep.details["residuals"].items():
            worst[key] = max(worst.get(key, 0.0), val)
    assert checked >= 9
    assert worst["riccati"] <= 1e-5
    assert worst["log_density"] <= 1e-6
    assert worst["wronskian"] <= 1e-8
    assert worst["density_power"] <= 1e-3
    print(f"\n[criterion 6] PASS structural residuals on {checked} scenarios: "
          + " ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items())))


def test_criterion_7_lemma_suite(spaceform_reports, bump_reports,
                                 bump05_reports):
    """Growth-factor inequalities: no violation beyond -1e-5 over >= 256 rays."""
    entries = spaceform_reports + bump_reports + bump05_reports
    total_rays = 0
    worst = 0.0
    scenarios = set()
    for name, rep in entries:
        if rep.name not in ("lemma_51", "lemma_52"):
            continue
        assert rep.status == "ok"
        assert rep.measured <= 1e-5, f"{name}::{rep.name} violated: {rep.measured}"
        assert rep.details["jy_second_derivative_residual"] <= 1e-4
        worst = max(worst, rep.measured)
        if (name, "n") not in scenarios:
            total_rays += rep.details["rays"]
            scenarios.add((name, "n"))
    assert total_rays >= 256
    print(f"\n[criterion 7] PASS lemma suite: {total_rays} rays across "
          f"{len(scenarios)} scenarios, worst violation {worst:.2e}")


def test_criterion_8_bump_integral_bound(bump_reports):
    """Nonzero-deficit integral bound holds; volume MC-validated within 3 sigma."""
    glob = _one(bump_reports, "bump_torus", "integral_bound[global]")
    tube = _one(bump_reports, "bump_torus", "integral_bound[tube]")
    assert glob.status == "ok" and glob.passed
    assert glob.slack > 0.0
    assert glob.details["deficit_norm"] > 0.0
    assert glob.details["mc_consistent"] is True
    assert tube.passed
    mc, mc_err = glob.details["mc_volume"], glob.details["mc_stderr"]
    assert abs(mc - glob.measured) <= 3.0 * mc_err
    print(f"\n[criterion 8] PASS bump integral bound: measured={glob.measured:.6f} "
          f"bound={glob.bound:.4e} norm={glob.details['deficit_norm']:.6f} "
          f"MC={mc:.4f}+-{mc_err:.4f}")


def test_bump_suite_reads_conformal_brackets(bump_reports, monkeypatch):
    """The shipped bump_torus run reads rho_k by the conformal route, which
    forms no Rm: rho_k on the bump calls ``_curvature_batch`` zero times."""
    from tubecomp import geometry

    glob = _one(bump_reports, "bump_torus", "integral_bound[global]")
    assert glob.details["rho_k_method"] == "conformal"
    calls = []
    original = geometry._curvature_batch
    monkeypatch.setattr(geometry, "_curvature_batch",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    M = build_scenario("bump_torus").manifold
    X = M.extra["center"] + np.random.default_rng(0).uniform(-1.0, 1.0, (200, M.dim))
    for k in range(1, M.dim):
        lo, hi = geometry.rho_k(M, X, k)
        assert np.all(lo <= hi) and np.any(hi < 0.0)
    assert calls == []
    z = (glob.details["mc_volume"] - glob.measured) / glob.details["mc_stderr"]
    assert glob.details["mc_z"] == pytest.approx(z, rel=1e-12)


def test_criterion_9_cheeger_round_trip():
    """thm1_bound at the returned delta reproduces v0 to 1e-8 on 100 draws."""
    rng = np.random.default_rng(42)
    done = 0
    attempts = 0
    while done < 100 and attempts < 2000:
        attempts += 1
        n = int(rng.integers(4, 8))
        m = int(rng.integers(1, n - 1))
        k = min(m, n - m - 1)
        p = n - k + float(rng.uniform(0.3, 4.0))
        H = float(-rng.uniform(0.0, 1.5))
        v0 = float(rng.uniform(0.2, 5.0))
        D = float(rng.uniform(0.3, 2.5))
        # the epsilon floor of the bound grows steeply; draw at feasible scales
        eps = float(rng.uniform(0.0, 2e-3)) if attempts % 2 else 0.0
        constants = thm1_constants(n, m, p, H)
        try:
            delta = cheeger_delta(n, m, p, H, v0, D, eps)
        except ValueError:
            continue
        assert thm1_bound(constants, delta, eps, D) == pytest.approx(v0, rel=1e-8)
        done += 1
    assert done == 100
    print(f"\n[criterion 9] PASS cheeger round-trip: 100 feasible draws "
          f"(of {attempts} attempts) reproduce v0 within 1e-8")


def test_criterion_10_determinism(tmp_path):
    """Repeated cmd_verify with the same seed yields byte-identical reports."""
    outputs = []
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        out.mkdir()
        code = cli_main(["verify", "--scenario", "sn_equator", "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        outputs.append(((out / "report.json").read_bytes(),
                        (out / "report.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0][0])
    assert payload["ok"] is True
    print("\n[criterion 10] PASS determinism: byte-identical verify reports "
          f"({len(outputs[0][0])} bytes JSON, {len(outputs[0][1])} bytes CSV)")


def _golden_rows(entries):
    """status, measured, bound and error_estimate (or reason) of every report."""
    rows = []
    for scenario, rep in entries:
        row = {"scenario": scenario, "name": rep.name, "status": rep.status}
        if rep.status == "precondition-violation":
            row["reason"] = rep.details["reason"]
        else:
            row.update(measured=float(rep.measured), bound=float(rep.bound),
                       error_estimate=float(rep.error_estimate))
        rows.append(row)
    return rows


def test_golden_reports(spaceform_reports, product_reports, bump_reports,
                        bump05_reports):
    """Every fixture report matches the recorded one within its error estimate.

    ``tests/golden/acceptance_reports.json`` holds ``_golden_rows`` of the four
    fixtures, recorded before the ray-state and formula refactor. A value
    may move by the recorded report's error estimate, floored at
    1e-9 * max(1, |value|); a precondition violation must keep its reason.
    """
    golden = json.loads(GOLDEN.read_text())
    rows = _golden_rows(spaceform_reports + product_reports + bump_reports
                        + bump05_reports)
    assert ([(r["scenario"], r["name"], r["status"]) for r in rows]
            == [(g["scenario"], g["name"], g["status"]) for g in golden])
    for row, ref in zip(rows, golden):
        if ref["status"] == "precondition-violation":
            assert row["reason"] == ref["reason"]
            continue
        for key in ("measured", "bound", "error_estimate"):
            tol = max(ref["error_estimate"], 1e-9 * max(1.0, abs(ref[key])))
            assert abs(row[key] - ref[key]) <= tol, (
                f"{row['scenario']}::{row['name']} {key} {row[key]!r}, "
                f"recorded {ref[key]!r}")
