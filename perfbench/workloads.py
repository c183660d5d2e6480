"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload builds fresh scenarios (so no ``_rho_cache`` or
``_sampler_cache`` survives from an earlier round) and turns them into
operations: one call of a public entry point (``cmd_verify`` or
``cmd_tube_volume``) per scenario. The checks compare the outputs with
closed forms computed here, from Weyl's tube formula in space forms
(A. Gray, *Tubes*, 2nd ed., 2004), and with properties every verdict must
have. They never compare against a stored copy of the program's output.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

# closed-form tolerance relative to the ray integrator's tolerance; the
# reports' own error estimates leave the ray error out, so they are not used
CLOSED_FORM_FACTOR = 10.0

# The report's own mc_consistent flag asks for agreement within 3 standard
# errors of a 16-ray sample, which some seeds miss by chance alone (seeds
# 114 and 335 of 0-399 on the bumps config), so agreement is checked at 6.
MC_AGREEMENT = 6.0

SPACEFORM_SCENARIOS = ("flat_t4_circle", "s3_great_circle", "sn_equator",
                       "hyperbolic_point")
TABLE_SCENARIOS = ("s3_great_circle", "flat_t4_circle")
TABLE_RADII = 24
# radii stay strictly inside each scenario's validity radius
TABLE_RANGE = {"s3_great_circle": (0.05, 1.45), "flat_t4_circle": (0.1, 3.0)}


def tube_volume_closed_form(scenario: str, r: float) -> float:
    """vol T(Sigma, r): a circle of length 2 pi in flat T^4, or a great
    circle in the unit S^3."""
    if scenario == "flat_t4_circle":
        return 2.0 * math.pi * (4.0 / 3.0) * math.pi * r**3
    if scenario == "s3_great_circle":
        return 2.0 * math.pi**2 * math.sin(r) ** 2
    raise KeyError(scenario)


@dataclasses.dataclass
class Operation:
    """One timed call of a public entry point and the check of its output."""

    label: str
    scenario: object
    run: object      # () -> output
    check: object    # output -> list of error strings


def _close(measured: float, reference: float, rel: float) -> bool:
    return abs(measured - reference) <= rel * max(1.0, abs(reference))


def closed_form_tol(scenario) -> float:
    return CLOSED_FORM_FACTOR * scenario.quad.ray_tolerance


# -- report checks (pure functions of report.json, also used by selftest) -----


def check_all_passed(report: dict) -> list[str]:
    errors = []
    if not report["reports"]:
        errors.append("no reports")
    for rep in report["reports"]:
        if rep["status"] != "ok" or not rep["passed"]:
            errors.append(f"{rep['scenario']}::{rep['name']} status="
                          f"{rep['status']} passed={rep['passed']}")
    return errors


def _named(report: dict, name: str) -> list[dict]:
    return [rep for rep in report["reports"] if rep["name"] == name]


def check_spaceform_report(name: str, report: dict, rel: float) -> list[str]:
    """Closed-form checks on the verify report of one space-form scenario."""
    errors = check_all_passed(report)
    if name in ("flat_t4_circle", "s3_great_circle"):
        reps = _named(report, "hk_bound")
        if not reps:
            errors.append(f"{name}: no hk_bound report")
        for rep in reps:
            r = rep["constants"]["r"]
            ref = tube_volume_closed_form(name, r)
            if not _close(rep["measured"], ref, rel):
                errors.append(f"{name}: hk_bound volume at r={r} is "
                              f"{rep['measured']!r}, closed form {ref!r}")
    elif name == "sn_equator":
        reps = _named(report, "focal_radius")
        if len(reps) != 1:
            errors.append(f"{name}: expected one focal_radius report")
        for rep in reps:
            if not _close(rep["measured"], math.pi / 2.0, rel):
                errors.append(f"{name}: focal radius {rep['measured']!r}, "
                              f"closed form pi/2")
    elif name == "hyperbolic_point":
        reps = _named(report, "hessian_comparison[generic]")
        if len(reps) != 1:
            errors.append(f"{name}: expected one hessian_comparison[generic]")
        for rep in reps:
            t = rep["details"]["worst"]["t"]
            ref = 2.0 / math.tanh(t)
            if not _close(rep["measured"], ref, rel):
                errors.append(f"{name}: worst trace {rep['measured']!r} at "
                              f"t={t}, closed form 2 coth t = {ref!r}")
    return errors


def check_bump_report(report: dict) -> list[str]:
    """Properties the bump-torus verdicts must have (no closed form exists)."""
    errors = check_all_passed(report)
    glob = _named(report, "integral_bound[global]")
    tube = _named(report, "integral_bound[tube]")
    if len(glob) != 1 or len(tube) != 1:
        return errors + ["bumps: expected one global and one tube integral report"]
    glob, tube = glob[0], tube[0]
    mc, stderr = glob["details"]["mc_volume"], glob["details"]["mc_stderr"]
    if not abs(mc - glob["measured"]) <= MC_AGREEMENT * stderr:
        errors.append(f"bumps: Monte Carlo volume {mc!r} +- {stderr!r} "
                      f"disagrees with quadrature {glob['measured']!r}")
    g_norm = glob["details"]["deficit_norm"]
    t_norm = tube["details"]["deficit_norm"]
    if g_norm < 0.0 or t_norm < 0.0:
        errors.append(f"bumps: negative deficit norm {g_norm!r}, {t_norm!r}")
    # the global report's error estimate covers its norm's error (and more)
    if t_norm > g_norm + glob["error_estimate"]:
        errors.append(f"bumps: tube norm {t_norm!r} exceeds global norm "
                      f"{g_norm!r} + {glob['error_estimate']!r}")
    for rep in (glob, tube):
        if rep["bound"] < rep["measured"]:
            errors.append(f"bumps: {rep['name']} bound {rep['bound']!r} "
                          f"below measured volume {rep['measured']!r}")
    return errors


def check_table(name: str, rows: list[list[str]], tolerance: float,
                rel: float) -> list[str]:
    """Closed-form and consistency checks on a tube-volume table."""
    header, data = rows[0], rows[1:]
    errors = [] if data else [f"{name}: empty table"]
    for raw in data:
        row = dict(zip(header, raw))
        r = float(row["r"])
        ref = tube_volume_closed_form(name, r)
        value = float(row["value"])
        if not _close(value, ref, rel):
            errors.append(f"{name}: volume at r={r} is {value!r}, "
                          f"closed form {ref!r}")
        if row["hk_bound"] == "" or not _close(float(row["hk_bound"]), ref, rel):
            errors.append(f"{name}: hk_bound at r={r} is {row['hk_bound']!r}, "
                          f"closed form {ref!r}")
        if row["thm1_bound"] != "" and float(row["thm1_bound"]) < value - tolerance:
            errors.append(f"{name}: thm1_bound {row['thm1_bound']} below "
                          f"volume {value!r} at r={r}")
        if row["truncated_rays"] != "0" or row["validity_exceeded"] != "False":
            errors.append(f"{name}: truncated={row['truncated_rays']} "
                          f"validity_exceeded={row['validity_exceeded']} at r={r}")
    return errors


# -- workloads ----------------------------------------------------------------


def _verify_op(tc, label: str, scenario, out_dir: Path, check_report):
    out = out_dir / label
    out.mkdir(parents=True, exist_ok=True)

    def run():
        return tc.cli.cmd_verify([scenario], out, "json")

    def check(result):
        code, _ = result
        report = json.loads((out / "report.json").read_text())
        errors = [] if code == 0 else [f"{label}: cmd_verify exit code {code}"]
        return errors + check_report(report)
    return Operation(label, scenario, run, check)


def _shrink(scenario, quad: dict, check_rays: int):
    scenario.quad = dataclasses.replace(scenario.quad, **quad)
    scenario.check_rays = min(scenario.check_rays, check_rays)


# Quadrature is reduced from the shipped settings so that one round takes a
# few seconds and a run can report the median of several rounds.
SPACEFORM_QUAD = {
    "flat_t4_circle": {"base_resolution": 4},
    "s3_great_circle": {"base_resolution": 4, "fiber_resolution": 4},
    "sn_equator": {"base_resolution": 2},
    "hyperbolic_point": {"fiber_resolution": 4},
}
TOY_QUAD = {"base_resolution": 2, "fiber_resolution": 2}


def spaceforms(tc, seed: int, out_dir: Path, toy: bool = False):
    """verify on four shipped space-form scenarios, each one operation."""
    ops = []
    for name in SPACEFORM_SCENARIOS:
        (sc,) = tc.cli.scenarios_from_config({"scenario": name}, seed=seed)
        _shrink(sc, TOY_QUAD if toy else SPACEFORM_QUAD[name], 4 if toy else 16)
        rel = closed_form_tol(sc)
        ops.append(_verify_op(
            tc, name, sc, out_dir,
            lambda report, _name=name, _rel=rel:
                check_spaceform_report(_name, report, _rel)))
    return ops


def bump_config(seed: int, toy: bool = False) -> dict:
    """The shipped bump torus, reduced, in the manifold + submanifold form."""
    quad = {"base_resolution": 2, "fiber_resolution": 3, "chart_resolution": 4,
            "mc_samples": 128, "rho_directions": 1024}
    check_rays = 36
    if toy:
        quad = {"base_resolution": 2, "fiber_resolution": 2,
                "chart_resolution": 3, "mc_samples": 64, "rho_directions": 256,
                "rho_refine_rounds": 1}
        check_rays = 4
    return {
        "name": "bump_reduced",
        "manifold": {"name": "bump_torus", "n": 4, "side": 2.0 * math.pi,
                     "amplitude": 0.1, "center": [math.pi] * 4, "width": 1.2},
        "submanifold": {"name": "sub_torus", "axes": [0],
                        "offset": [0.0, math.pi - 2.3, math.pi, math.pi]},
        "parameters": {"k": 1, "H": -0.1, "p": 4.0},
        "radii": [2.0],
        "quadrature": quad,
        "declared": {"minimal": True, "totally_geodesic": True,
                     "validity_radius": math.pi, "hessian_H": -0.6,
                     "ray_horizon": 2.0, "check_rays": check_rays},
        "checks": ["integral_mc", "lemmas", "hessian", "residuals"],
        "seed": seed,
    }


def bumps(tc, seed: int, out_dir: Path, toy: bool = False):
    """verify on the reduced bump torus, given as a JSON config file."""
    path = out_dir / "bump_config.json"
    path.write_text(json.dumps(bump_config(seed, toy), indent=2))
    (sc,) = tc.cli.scenarios_from_config(tc.cli.load_config(str(path)))
    return [_verify_op(tc, "bump_reduced", sc, out_dir, check_bump_report)]


def table_radii(name: str, seed: int, count: int = TABLE_RADII) -> tuple:
    lo, hi = TABLE_RANGE[name]
    rng = np.random.default_rng([seed, TABLE_SCENARIOS.index(name)])
    return tuple(float(r) for r in np.sort(rng.uniform(lo, hi, count)))


def tube_table(tc, seed: int, out_dir: Path, toy: bool = False):
    """cmd_tube_volume on two space forms at seeded radii, one ray cache each."""
    ops = []
    for name in TABLE_SCENARIOS:
        radii = table_radii(name, seed, 3 if toy else TABLE_RADII)
        (sc,) = tc.cli.scenarios_from_config({"scenario": name}, seed=seed,
                                             radii=radii)
        _shrink(sc, TOY_QUAD if toy else {"base_resolution": 2}, sc.check_rays)
        rel = closed_form_tol(sc)

        def run(_sc=sc):
            return tc.cli.cmd_tube_volume(_sc, _sc.radii)

        def check(rows, _name=name, _tol=sc.tolerance, _rel=rel):
            return check_table(_name, rows, _tol, _rel)
        ops.append(Operation(name, sc, run, check))
    return ops


WORKLOADS = {"spaceforms": spaceforms, "bumps": bumps, "tube_table": tube_table}

