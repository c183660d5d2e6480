"""Quick self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that
  * every operation succeeds and passes its output checks;
  * the untraced run prints exactly the end-to-end metrics of BENCHMARK.json
    and the traced run every per-layer metric, with counts that repeat;
  * the output checks reject results perturbed by far less than the
    program's accuracy claims, so they are not vacuous.
Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy is imported
from workloads import (WORKLOADS, check_bump_report, check_spaceform_report,
                       check_table, closed_form_tol)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def expect(condition: bool, message: str):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def metric_names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def check_runs():
    traced = {}
    for name in WORKLOADS:
        result = run.run(name, 0, 0.0, trace=False, toy=True)
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] > 0, f"{name}: toy run {result}")
        expect(set(result["metrics"]) == metric_names("end_to_end"),
               f"{name}: end-to-end metrics {sorted(result['metrics'])}")
        for _ in range(2):
            result = run.run(name, 0, 0.0, trace=True, toy=True)
            expect(result["correct"], f"{name}: traced toy run not correct")
            missing = metric_names("per_layer") - set(result["metrics"])
            expect(not missing, f"{name}: per-layer metrics missing {missing}")
            counts = {k: v["value"] for k, v in result["metrics"].items()
                      if v["unit"] == "count"}
            traced.setdefault(name, []).append(counts)
        expect(traced[name][0] == traced[name][1],
               f"{name}: traced counts differ between two runs")


def scaled(report: dict, name: str, factor: float = 1.0, shift: float = 0.0):
    out = copy.deepcopy(report)
    for rep in out["reports"]:
        if rep["name"] == name:
            rep["measured"] = rep["measured"] * factor + shift
    return out


def check_perturbations(tc, out_dir: Path):
    reports, rels = {}, {}
    for op in WORKLOADS["spaceforms"](tc, 0, out_dir / "sf", toy=True):
        expect(op.check(op.run()) == [], f"{op.label}: toy output rejected")
        reports[op.label] = json.loads(
            (out_dir / "sf" / op.label / "report.json").read_text())
        rels[op.label] = closed_form_tol(op.scenario)
    for name, rep_name, factor, shift in (
            ("flat_t4_circle", "hk_bound", 1.0 + 1e-6, 0.0),
            ("s3_great_circle", "hk_bound", 1.0 + 1e-6, 0.0),
            ("sn_equator", "focal_radius", 1.0, 1e-5),
            ("hyperbolic_point", "hessian_comparison[generic]", 1.0 + 1e-6, 0.0)):
        bad = scaled(reports[name], rep_name, factor, shift)
        expect(check_spaceform_report(name, bad, rels[name]) != [],
               f"{name}: perturbed {rep_name} accepted")
    failed = copy.deepcopy(reports["hyperbolic_point"])
    failed["reports"][0]["passed"] = False
    expect(check_spaceform_report("hyperbolic_point", failed,
                                  rels["hyperbolic_point"]) != [],
           "a failed report accepted")

    (op,) = WORKLOADS["bumps"](tc, 0, out_dir / "bump", toy=True)
    expect(op.check(op.run()) == [], "bumps: toy output rejected")
    bump = json.loads((out_dir / "bump" / op.label / "report.json").read_text())
    glob = next(r for r in bump["reports"] if r["name"] == "integral_bound[global]")
    tube = next(r for r in bump["reports"] if r["name"] == "integral_bound[tube]")
    for label, edit in (
            ("mc disagreeing", lambda g, t: g["details"].update(
                mc_volume=g["measured"] + 6.5 * g["details"]["mc_stderr"])),
            ("tube norm above global", lambda g, t: t["details"].update(
                deficit_norm=g["details"]["deficit_norm"] + 2 * g["error_estimate"]
                + 1e-3)),
            ("negative norm", lambda g, t: g["details"].update(deficit_norm=-1e-9)),
            ("bound below volume", lambda g, t: t.update(
                bound=t["measured"] * (1.0 - 1e-9)))):
        bad = copy.deepcopy(bump)
        edit(*(next(r for r in bad["reports"] if r["name"] == n)
               for n in (glob["name"], tube["name"])))
        expect(check_bump_report(bad) != [], f"bumps: {label} accepted")

    for op in WORKLOADS["tube_table"](tc, 0, out_dir / "table", toy=True):
        rows = op.run()
        tol, rel = op.scenario.tolerance, closed_form_tol(op.scenario)
        expect(check_table(op.label, rows, tol, rel) == [],
               f"{op.label}: toy table rejected")
        header = rows[0]
        for column, edit in (
                ("value", lambda v: repr(float(v) * (1.0 + 1e-6))),
                ("hk_bound", lambda v: repr(float(v) * (1.0 + 1e-6))),
                ("truncated_rays", lambda v: "1"),
                ("validity_exceeded", lambda v: "True")):
            bad = [list(r) for r in rows]
            col = header.index(column)
            bad[-1][col] = edit(bad[-1][col])
            expect(check_table(op.label, bad, tol, rel) != [],
                   f"{op.label}: perturbed {column} accepted")
        col = header.index("thm1_bound")
        if rows[-1][col] != "":
            bad = [list(r) for r in rows]
            bad[-1][col] = repr(float(rows[-1][header.index("value")]) - 2 * tol)
            expect(check_table(op.label, bad, tol, rel) != [],
                   f"{op.label}: thm1_bound below the volume accepted")


def main() -> int:
    check_runs()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        out = Path(tmp)
        for sub in ("sf", "bump", "table"):
            (out / sub).mkdir()
        check_perturbations(run.load_tubecomp(), out)
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
