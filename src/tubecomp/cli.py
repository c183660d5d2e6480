"""Command-line interface: scenario listing, tube-volume tables, verification runs.

Exit codes: 0 success, 1 bound-check failure, 2 usage/config/IO error or
numerical breakdown (a ray integration failure or a singular metric).
All randomness flows from the single --seed (or config seed); identical
config + seed reproduce byte-identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import manifolds as manifold_registry
from . import scenarios as scenario_registry
from .geometry import SingularMetricError
from .models import thm1_bound, thm1_constants
from .submanifolds import SUBMANIFOLD_BUILDERS
from .transport import RayIntegrationError
from .verification import Scenario, run_suite

__all__ = ["main", "ConfigError", "cmd_scenario_list", "cmd_tube_volume",
           "cmd_verify", "load_config"]


class ConfigError(ValueError):
    """Schema violation or unusable field in a scenario config."""


def _rule(what: str, least: float = -math.inf, above: bool = False,
          integer: bool = False):
    """A JSON number >= least (> least if ``above``), finite, an int if ``integer``."""
    return (lambda v: isinstance(v, int if integer else (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max
            and (v > least if above else v >= least)), what


_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_FINITE = _rule("a finite number")
_NONNEGATIVE = _rule("a finite number >= 0", 0.0)
_POSITIVE = _rule("a finite number > 0", 0.0, above=True)
_POSITIVE_INT = _rule("a positive integer", 1, integer=True)
_RADII = (lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(
    _NONNEGATIVE[0](r) for r in v), "a nonempty list of finite numbers >= 0")
_INTERVAL = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(
    _FINITE[0](t) for t in v) and v[0] < v[1], "two finite numbers lo < hi")

# section -> key -> (accepts, what it accepts); "" is the top level, whose
# keys that name a section are walked with that section's table
_SCHEMA = {
    "": {"scenario": _STRING, "suite": _STRING, "manifold": _OBJECT,
         "submanifold": _OBJECT, "parameters": _OBJECT, "radii": _RADII,
         "quadrature": _OBJECT, "declared": _OBJECT, "name": _STRING,
         "checks": (lambda v: isinstance(v, list) and all(
             isinstance(c, str) for c in v), "a list of strings"),
         "tolerance": _NONNEGATIVE,
         "seed": _rule("an integer >= 0", 0, integer=True)},
    # k <= n - 1 is checked once the manifold is built
    "parameters": {"k": _POSITIVE_INT, "H": _FINITE,
                   "p": _rule("a finite number >= 1", 1.0)},
    # no quadrature seed: the scenario seed seeds every random draw
    "quadrature": {
        "base_resolution": (lambda v: all(_POSITIVE_INT[0](b) for b in (
            v if isinstance(v, list) and v else [v])),
            "a positive integer or a list of them"),
        "fiber_resolution": _POSITIVE_INT, "t_nodes_per_panel": _POSITIVE_INT,
        "mc_samples": _POSITIVE_INT, "rho_directions": _POSITIVE_INT,
        "rho_refine_rounds": _rule("an integer >= 0", 0, integer=True),
        "chart_resolution": _rule("an integer >= 2", 2, integer=True),
        "ray_tolerance": _POSITIVE},
    "declared": {"minimal": _BOOL, "totally_geodesic": _BOOL,
                 "validity_radius": _POSITIVE, "rho_exact": _OBJECT,
                 "hessian_H": _FINITE, "ray_horizon": _POSITIVE,
                 "check_rays": _POSITIVE_INT},
    # manifold specs that no builder signature describes, walked when built;
    # the product's a and b are manifold specs in turn
    "product": {"name": _STRING, "a": _OBJECT, "b": _OBJECT},
    "warped_product": {"name": _STRING, "fiber_dim": _POSITIVE_INT, "warp": _STRING,
                       "base_interval": _INTERVAL, "fiber_side": _POSITIVE},
}

# (section, key) accepted and checked but ignored: "minimal" and
# "totally_geodesic" (the checks measure max |eta| and the S_xi instead) and
# the settings of a rho_k direction grid that no longer exists. They stay
# accepted because perfbench/workloads.py sends them, and only a change to
# the benchmark may drop them.
_RETIRED = {("declared", "minimal"), ("declared", "totally_geodesic"),
            ("quadrature", "rho_directions"), ("quadrature", "rho_refine_rounds")}


def _check(rule, value, where: str):
    """The value, once the rule accepts it."""
    accepts, what = rule
    if not accepts(value):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return value


def _reject_unknown(given: dict, allowed, where: str):
    for key in given:
        if key not in allowed:
            raise ConfigError(
                f"unknown field '{key}' in {where} (allowed: {sorted(allowed)})")


def _walk_schema(given: dict, section: str = "") -> None:
    table = _SCHEMA[section]
    _reject_unknown(given, table, section or "config")
    for key, value in given.items():
        _check(table[key], value, f"{section} '{key}'".lstrip())
        if key in _SCHEMA:
            _walk_schema(value, key)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _walk_schema(cfg)
    return cfg


_WARP_TABLE = {
    "cosh": (np.cosh, np.sinh, np.cosh),
    "constant": (np.ones_like, np.zeros_like, np.zeros_like),
}


def _build_manifold_from_config(spec: dict):
    if "name" not in spec:
        raise ConfigError("manifold config needs a 'name' field")
    name = spec["name"]
    if name in ("product", "warped_product"):
        _walk_schema(spec, name)
    if name == "product":
        if "a" not in spec or "b" not in spec:
            raise ConfigError("product manifold needs nested 'a' and 'b' configs")
        return manifold_registry.product(
            _build_manifold_from_config(spec["a"]), _build_manifold_from_config(spec["b"]))
    if name == "warped_product":
        params = {k: v for k, v in spec.items() if k != "name"}
        warp_name = params.pop("warp", "constant")
        if warp_name not in _WARP_TABLE:
            raise ConfigError(f"unknown warp '{warp_name}' "
                              f"(known: {sorted(_WARP_TABLE)})")
        warp, dwarp, d2warp = _WARP_TABLE[warp_name]
        if "base_interval" in params:
            params["base_interval"] = tuple(params["base_interval"])
        return manifold_registry.warped_product(
            params.pop("fiber_dim", 2), warp, dwarp, d2warp, **params)
    builder, params = _build_from_registry(
        "manifold", manifold_registry.MANIFOLD_BUILDERS, spec)
    return builder(**params)


def _build_from_registry(kind: str, registry, spec: dict):
    if "name" not in spec:
        raise ConfigError(f"{kind} config needs a 'name' field")
    name = spec["name"]
    if name not in registry:
        raise ConfigError(f"unknown {kind} '{name}' (known: {sorted(registry)})")
    builder = registry[name]
    sig = inspect.signature(builder)
    allowed = {p for p in sig.parameters if p != "M"}
    params = {k: v for k, v in spec.items() if k != "name"}
    _reject_unknown(params, allowed, f"{kind} '{name}' parameters")
    return builder, params


def parse_radii(text: str) -> tuple[float, ...]:
    """Parse 'a:b:n' into n equally spaced radii, or a single float."""
    parts = text.split(":")
    malformed = ConfigError(f"--radii expects 'a:b:n' or a single value, got '{text}'")
    if len(parts) not in (1, 3):
        raise malformed
    try:
        if len(parts) == 1:
            radii = (float(parts[0]),)
        else:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            radii = tuple(np.linspace(a, b, n))
    except ValueError as exc:
        raise malformed from exc
    return _check(_RADII, radii, "--radii")


def _apply_settings(sc: Scenario, cfg: dict, seed: int | None,
                    tolerance: float | None, radii: tuple | None) -> None:
    """Set a config's values on a built scenario; the CLI's values win."""
    pars, n = cfg.get("parameters", {}), sc.manifold.dim
    if "k" in pars and not 1 <= pars["k"] <= n - 1:
        raise ConfigError(f"parameters 'k' must be an integer in [1, {n - 1}], "
                          f"got {pars['k']!r}")
    for key, cast in (("k", int), ("H", float), ("p", float)):
        if key in pars:
            setattr(sc, key, cast(pars[key]))
    sc.seed = int(seed if seed is not None else cfg.get("seed", sc.seed))
    sc.tolerance = float(tolerance if tolerance is not None
                         else cfg.get("tolerance", sc.tolerance))
    sc.radii = tuple(radii if radii is not None else cfg.get("radii", sc.radii))
    quad = {key: value for key, value in cfg.get("quadrature", {}).items()
            if ("quadrature", key) not in _RETIRED}
    base = quad.get("base_resolution")
    if isinstance(base, list) and len(base) != sc.sigma.dim:
        raise ConfigError(f"quadrature 'base_resolution' must list one entry per submanifold"
                          f" dimension ({sc.sigma.dim}), got {base!r}")
    sc.quad = dataclasses.replace(sc.quad, **dict(quad, seed=sc.seed))
    for key, value in cfg.get("declared", {}).items():
        if key == "validity_radius":
            sc.manifold.volume_validity_radius = float(value)
        elif key == "rho_exact":
            table = _check(_OBJECT, value, "declared 'rho_exact'")
            sc.manifold.rho_exact = {**(sc.manifold.rho_exact or {}),
                                     **{int(k): float(v) for k, v in table.items()}}
        elif key in ("hessian_H", "ray_horizon", "check_rays"):
            setattr(sc, key, value)
    sc.checks = tuple(cfg.get("checks", sc.checks))
    sc.name = cfg.get("name", sc.name)


def scenarios_from_config(cfg: dict, seed: int | None = None,
                          tolerance: float | None = None,
                          radii: tuple[float, ...] | None = None) -> list[Scenario]:
    """The scenario(s) a config describes, each built once and then set.

    A built-in or suite member keeps its own values unless the config sets
    them; ``manifold`` + ``submanifold`` starts from k = 1, H = 0, p = n + 1
    and radii (0.5,). The seed, tolerance and radii given here win over the
    config's.
    """
    if "suite" in cfg:
        built = scenario_registry.build_suite(cfg["suite"])
    elif "scenario" in cfg:
        built = [scenario_registry.build_scenario(cfg["scenario"])]
    elif "manifold" in cfg and "submanifold" in cfg:
        M = _build_manifold_from_config(cfg["manifold"])
        s_builder, s_params = _build_from_registry(
            "submanifold", SUBMANIFOLD_BUILDERS, cfg["submanifold"])
        sigma = s_builder(M, **s_params)
        built = [Scenario(name=f"{M.name}/{sigma.name}", manifold=M, sigma=sigma,
                          k=1, H=0.0, p=float(M.dim + 1), radii=(0.5,))]
    else:
        raise ConfigError("config needs 'scenario', 'suite', or "
                          "'manifold' + 'submanifold'")
    if "name" in cfg and len(built) != 1:
        raise ConfigError("'name' is allowed only in a config that builds "
                          "one scenario")
    for sc in built:
        _apply_settings(sc, cfg, seed, tolerance, radii)
    return built


def cmd_scenario_list(registry: dict | None = None) -> str:
    """Names of the built-in scenarios with their enabled checks, sorted."""
    if registry is None:
        registry = scenario_registry.SCENARIO_BUILDERS
    lines = []
    for name in sorted(registry):
        sc = registry[name]()
        lines.append(f"{name}: checks={','.join(sc.checks)} "
                     f"radii={list(sc.radii)} :: {sc.description}")
    return "\n".join(lines)


def _fmt(x) -> str:
    return repr(float(x))


def cmd_tube_volume(scenario: Scenario, radii: tuple[float, ...]) -> list[list[str]]:
    """CSV rows, one per radius: the measured volume, and each bound whose rows hold."""
    rows = [["scenario", "r", "value", "error_estimate", "rays",
             "truncated_rays", "validity_exceeded", "hk_bound", "thm1_bound"]]
    sampler = scenario.sampler(max(*radii, 1e-6))
    H = scenario.H
    hk_holds = scenario.unmet_hypothesis("hk") is None
    constants = None if scenario.unmet_hypothesis("integral") else thm1_constants(
        scenario.manifold.dim, scenario.sigma.dim, scenario.p, H)
    for r in radii:
        res = sampler.volume(r)
        hk_val = _fmt(sampler.hk_bound(H, r)) if hk_holds else ""
        thm1_val = ""
        if constants is not None:
            # the tube-restricted deficit norm (verify reports both variants)
            norm = scenario.tube_deficit_norm(sampler, r, res.value)
            thm1_val = _fmt(thm1_bound(constants, sampler.grid.sigma_volume, norm, r))
        rows.append([scenario.name, _fmt(r), _fmt(res.value),
                     _fmt(res.error_estimate), str(res.rays_used),
                     str(sum(res.truncated_at_focal)),
                     str(res.validity_exceeded), hk_val, thm1_val])
    return rows


def _write_csv(path: Path, rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def cmd_verify(scenarios: list[Scenario], out_dir: Path | None,
               fmt: str) -> tuple[int, str]:
    """Run all enabled checks; write report files; return (exit code, summary)."""
    report = run_suite(scenarios)
    summary = report.summary()
    if out_dir is not None:
        if not out_dir.is_dir():
            raise OSError(f"output directory {out_dir} does not exist")
        if fmt in ("json", "both"):
            payload = json.dumps(report.as_dict(), sort_keys=True, indent=2, allow_nan=False)
            (out_dir / "report.json").write_text(payload + "\n")
        if fmt in ("csv", "both"):
            _write_csv(out_dir / "report.csv", report.csv_rows())
    return (0 if report.ok else 1), summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tubecomp",
        description="Tube volumes, shape-operator evolution, and curvature "
                    "bound verification on model manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenario-list", help="list built-in scenarios")

    # the two commands share their options; the first format is the default
    for command, what, formats in (
            ("tube-volume", "tabulate tube volumes vs bounds", ("csv", "json")),
            ("verify", "run verification checks", ("both", "csv", "json"))):
        p_cmd = sub.add_parser(command, help=what)
        p_cmd.add_argument("--config", type=str, default=None)
        p_cmd.add_argument("--scenario", type=str, default=None,
                           help="built-in scenario or suite name")
        p_cmd.add_argument("--radii", type=str, default=None, help="a:b:n grid")
        p_cmd.add_argument("--out", type=str, default=None, help="output directory")
        p_cmd.add_argument("--seed", type=int, default=None)
        p_cmd.add_argument("--tolerance", type=float, default=None)
        p_cmd.add_argument("--format", choices=formats, default=formats[0])

    args = parser.parse_args(argv)
    try:
        if args.command == "scenario-list":
            print(cmd_scenario_list())
            return 0

        for flag, value in (("seed", args.seed), ("tolerance", args.tolerance)):
            if value is not None:
                _check(_SCHEMA[""][flag], value, f"--{flag}")
        radii = parse_radii(args.radii) if args.radii else None
        if args.config:
            cfg = load_config(args.config)
        elif args.scenario:
            kind = "suite" if args.scenario in scenario_registry.SUITES else "scenario"
            cfg = {kind: args.scenario}
        else:
            raise ConfigError("need --config or --scenario")
        try:
            built = scenarios_from_config(cfg, seed=args.seed,
                                          tolerance=args.tolerance, radii=radii)
        except (ValueError, TypeError) as exc:   # a builder rejected a parameter
            raise ConfigError(f"cannot build the scenario: {exc}") from exc

        if args.command == "tube-volume":
            tables = [cmd_tube_volume(sc, sc.radii) for sc in built]
            all_rows = tables[0] + [row for rows in tables[1:] for row in rows[1:]]
            if args.out:
                out_dir = Path(args.out)
                if not out_dir.is_dir():
                    raise OSError(f"output directory {out_dir} does not exist")
                if args.format == "csv":
                    _write_csv(out_dir / "tube_volume.csv", all_rows)
                else:
                    header, data = all_rows[0], all_rows[1:]
                    payload = [dict(zip(header, row)) for row in data]
                    (out_dir / "tube_volume.json").write_text(
                        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")
            else:
                for row in all_rows:
                    print(",".join(str(c) for c in row))
            return 0

        out_dir = Path(args.out) if args.out else None
        code, summary = cmd_verify(built, out_dir, args.format)
        print(summary)
        return code
    except (RayIntegrationError, SingularMetricError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
