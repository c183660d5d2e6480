"""CLI behavior: listing, tables, verification runs, exit codes, determinism."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from tubecomp import cli
from tubecomp.cli import ConfigError, cmd_scenario_list, main, parse_radii


FAST_CONFIG = {
    "name": "cli_flat",
    "manifold": {"name": "flat_torus", "n": 4},
    "submanifold": {"name": "sub_torus", "axes": [0],
                    "offset": [0.0, 1.0, 2.0, 3.0]},
    "parameters": {"k": 1, "H": 0.0, "p": 4.0},
    "radii": [0.4],
    "quadrature": {"base_resolution": 4, "fiber_resolution": 2},
    "declared": {"minimal": True, "totally_geodesic": True,
                 "validity_radius": 3.0, "rho_exact": {"1": 0.0, "2": 0.0}},
    "checks": ["hk"],
    "seed": 7,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestScenarioList:
    def test_contains_required_names(self, capsys):
        assert main(["scenario-list"]) == 0
        out = capsys.readouterr().out
        for name in ("flat_t4_circle", "s3_great_circle", "sn_equator",
                     "s2xs2_factor", "bump_torus"):
            assert name in out

    def test_deterministic_ordering(self):
        assert cmd_scenario_list() == cmd_scenario_list()
        lines = cmd_scenario_list().splitlines()
        names = [ln.split(":")[0] for ln in lines]
        assert names == sorted(names)

    def test_empty_registry(self):
        assert cmd_scenario_list(registry={}) == ""


class TestParseRadii:
    def test_grid(self):
        assert parse_radii("0:1:3") == (0.0, 0.5, 1.0)

    def test_single(self):
        assert parse_radii("0.7") == (0.7,)

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_radii("1:2")


class TestTubeVolume:
    def test_flat_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        code = main(["tube-volume", "--config", cfg, "--radii", "0:0.5:2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["scenario", "r", "value", "error_estimate"]
        row0 = lines[1].split(",")
        assert float(row0[2]) == 0.0
        row1 = lines[2].split(",")
        assert float(row1[2]) == pytest.approx(math.pi**2 / 3.0, rel=1e-9)

    def test_schema_error_names_field(self, tmp_path, capsys):
        bad = dict(FAST_CONFIG)
        bad["raduis"] = [0.5]
        cfg = write_config(tmp_path, bad)
        code = main(["tube-volume", "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert "raduis" in err

    def test_unknown_submanifold_param_named(self, tmp_path, capsys):
        bad = json.loads(json.dumps(FAST_CONFIG))
        bad["submanifold"]["wobble"] = 3
        cfg = write_config(tmp_path, bad)
        assert main(["tube-volume", "--config", cfg]) == 2
        assert "wobble" in capsys.readouterr().err

    def test_csv_file_output(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["tube-volume", "--config", cfg, "--out", str(out)])
        assert code == 0
        text = (out / "tube_volume.csv").read_text()
        assert text.startswith("scenario,r,value")

    def test_product_manifold_config(self, tmp_path, capsys):
        cfg_data = {
            "name": "product_point",
            "manifold": {"name": "product",
                         "a": {"name": "sphere", "n": 2},
                         "b": {"name": "sphere", "n": 2},
                         "rho_exact": {"1": 0.0, "2": 0.0, "3": 1.0}},
            "submanifold": {"name": "point", "location": [0.1, 0.2, 0.0, 0.3]},
            "parameters": {"k": 1, "H": 0.0, "p": 5.0},
            "radii": [0.3],
            "quadrature": {"fiber_resolution": 2, "t_nodes_per_panel": 8},
        }
        cfg = write_config(tmp_path, cfg_data, "prod.json")
        assert main(["tube-volume", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "product_point" in out

    def test_warped_product_config(self, tmp_path, capsys):
        cfg_data = {
            "name": "warped",
            "manifold": {"name": "warped_product", "fiber_dim": 2,
                         "warp": "constant", "base_interval": [-1.0, 1.0]},
            "submanifold": {"name": "sub_torus", "axes": [1],
                            "offset": [0.0, 0.0, 1.0]},
            "parameters": {"k": 1, "H": 0.0, "p": 4.0},
            "radii": [0.2],
            "quadrature": {"base_resolution": 4, "fiber_resolution": 2,
                           "t_nodes_per_panel": 8},
        }
        cfg = write_config(tmp_path, cfg_data, "warp.json")
        assert main(["tube-volume", "--config", cfg]) == 0
        assert "warped" in capsys.readouterr().out

    def test_json_file_output(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["tube-volume", "--config", cfg, "--out", str(out),
                     "--format", "json"])
        assert code == 0
        rows = json.loads((out / "tube_volume.json").read_text())
        assert rows[0]["scenario"] == "cli_flat"
        assert float(rows[0]["value"]) >= 0.0


class TestVerify:
    def test_pass_run_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "reports"
        out.mkdir()
        code = main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["ok"] is True
        assert payload["n_failures"] == 0
        assert (out / "report.csv").read_text().startswith("scenario,check")
        assert "PASS" in capsys.readouterr().out

    def test_missing_out_dir_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        code = main(["verify", "--config", cfg, "--out",
                     str(tmp_path / "nope")])
        assert code == 2
        assert "I/O error" in capsys.readouterr().err

    def test_induced_violation_exit_1(self, tmp_path, monkeypatch):
        from tubecomp import verification

        original = verification.TubeSampler.volume

        def inflated(self, r):
            res = original(self, r)
            res.value *= 1.1
            return res

        monkeypatch.setattr(verification.TubeSampler, "volume", inflated)
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(["verify", "--config", cfg]) == 1

    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["verify", "--scenario", "not_a_scenario"]) == 2

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            assert main(["verify", "--config", cfg, "--out", str(out),
                         "--seed", "5"]) == 0
            outs.append(((out / "report.json").read_bytes(),
                         (out / "report.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_json_files_are_strict(self, tmp_path):
        # JSON has no NaN or Infinity: a precondition violation's NaN and the
        # flat lemma_52 ratio's +inf are written as null; the CSV keeps repr
        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        cfg = dict(FAST_CONFIG, parameters={"k": 1, "H": 0.5, "p": 4.0},
                   checks=["lemmas", "integral"])
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        out.mkdir()
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        assert main(["tube-volume", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        json.loads((out / "tube_volume.json").read_text(), parse_constant=refuse)
        reports = {rep["name"]: rep for rep in json.loads(
            (out / "report.json").read_text(), parse_constant=refuse)["reports"]}
        assert reports["lemma_52"]["details"]["min_rhs_over_lhs"] is None
        violation = reports["integral_bound"]
        assert violation["status"] == "precondition-violation"
        assert violation["measured"] is violation["bound"] is violation["slack"] is None
        rows = (out / "report.csv").read_text().splitlines()
        assert [row for row in rows if "integral_bound" in row][0].split(",")[3:6] == [
            "nan", "nan", "nan"]


class TestEarnedVerdicts:
    """A verdict follows what the checks measure, never a declared flag."""

    @pytest.mark.parametrize("H", [-0.01, -0.1])
    def test_hk_on_undeclared_bump_is_refused(self, tmp_path, H):
        # rho_1 reaches -0.248 inside the bump, which samples can miss
        from tubecomp.verification import run_suite

        cfg = {"scenario": "bump_torus", "checks": ["hk"], "parameters": {"H": H}}
        (sc,) = cli.scenarios_from_config(cfg)
        reports = [rep for _, rep in run_suite([sc]).entries]
        out = tmp_path / "out"
        out.mkdir()
        assert main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        written = json.loads((out / "report.json").read_text())["reports"]
        assert len(reports) == len(written) == len(sc.radii)
        for rep in reports + [SimpleNamespace(**rep) for rep in written]:
            assert rep.name == "hk_bound" and rep.status == "precondition-violation"
            assert rep.details["certification"]["basis"] is None
            assert "no bound on rho_k between chart points" in rep.details["reason"]

    @pytest.mark.parametrize("scenario, equality", [
        ("sn_equator", True), ("s3_small_sphere", False)])
    def test_focal_equality_is_measured(self, tmp_path, scenario, equality):
        cfg = {"scenario": scenario, "checks": ["focal"],
               "declared": {"totally_geodesic": not equality}}
        out = tmp_path / "out"
        out.mkdir()
        assert main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        (rep,) = json.loads((out / "report.json").read_text())["reports"]
        assert rep["name"] == "focal_radius" and rep["passed"]
        assert rep["equality"] is equality
        assert (rep["details"]["weingarten_max"] <= 1e-6) is equality


class TestExitCodes:
    """Exit 2 for bad input or numerical breakdown, never a traceback."""

    @pytest.mark.parametrize("manifold, fragment", [
        ({"name": "bump_torus", "n": 4, "width": 4.0}, "width"),
        ({"name": "flat_torus", "n": "four"}, "cannot build"),
        ({"name": "product", "a": {"name": "sphere", "n": 2},
          "b": {"name": "sphere", "n": 2}, "rho_exact": 5}, "product 'rho_exact'"),
    ])
    def test_builder_rejection_exit_2(self, tmp_path, capsys, manifold, fragment):
        cfg = dict(FAST_CONFIG, manifold=manifold)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("manifold, submanifold, fragment", [
        ({"name": "sphere", "n": 3, "axes": 5}, {"name": "great_circle"}, "orthonormal"),
        ({"name": "sphere", "n": 3, "axes": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                             [0, 0, 0, 2]]},
         {"name": "great_circle"}, "orthonormal"),
        ({"name": "flat_torus", "n": 3},
         {"name": "point", "location": [0, 0, 0], "normal_frame_fn": 5},
         "unknown field 'normal_frame_fn'"),
    ], ids=["axes-scalar", "axes-scaled-row", "point-normal-frame-fn"])
    def test_rejected_builder_argument_exit_2(self, tmp_path, capsys, manifold,
                                              submanifold, fragment):
        cfg = dict(FAST_CONFIG, manifold=manifold, submanifold=submanifold)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert fragment in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "tube-volume"])
    @pytest.mark.parametrize("manifold, submanifold, fragment", [
        ({"name": "flat_torus", "n": 4},
         {"name": "sub_torus", "axes": [0, 0], "offset": [0.0, 1.0, 2.0, 3.0]},
         "axes"),
        ({"name": "flat_torus", "n": 4},
         {"name": "sub_torus", "axes": [7], "offset": [0.0, 1.0, 2.0, 3.0]},
         "axes"),
        ({"name": "flat_torus", "n": 4},
         {"name": "sub_torus", "axes": [0], "offset": [0.0, 1.0, 2.0]},
         "offset"),
        ({"name": "sphere", "n": 3},
         {"name": "great_circle", "plane": [0, 0]},
         "plane"),
        ({"name": "flat_torus", "n": 4},
         {"name": "point", "location": [0.0, 1.0, 2.0]},
         "location"),
    ])
    def test_malformed_submanifold_exit_2(self, tmp_path, capsys, command,
                                          manifold, submanifold, fragment):
        cfg = dict(FAST_CONFIG, manifold=manifold, submanifold=submanifold)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert fragment in capsys.readouterr().err

    def test_unknown_check_rejected_before_any_check_runs(self, tmp_path,
                                                          monkeypatch, capsys):
        from tubecomp import verification

        ran = []
        monkeypatch.setitem(verification.CHECK_DISPATCH, "hessian",
                            lambda sc: ran.append(sc.name) or [])
        cfg = {"scenario": "hyperbolic_point", "checks": ["hessian", "nosuchcheck"]}
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
        assert ran == []
        assert "nosuchcheck" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--radii", "abc"],
        ["verify", "--radii", "0.1:0.5:x"],
        ["tube-volume", "--radii", "0.1:x:3"],
        ["tube-volume", "--radii", "0.1:0.5:0"],
        ["tube-volume", "--radii=-0.5"],
    ])
    def test_malformed_radii_option_exit_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(argv + ["--config", cfg]) == 2
        assert "--radii" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "tube-volume"])
    @pytest.mark.parametrize("radii", [["a"], "0.5", [], [-1.0]])
    def test_malformed_config_radii_exit_2(self, tmp_path, capsys, command, radii):
        cfg = dict(FAST_CONFIG, radii=radii)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "'radii' must be a nonempty list" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("check_rays", 0),
        ("check_rays", -1),
        ("check_rays", 2.5),
        ("ray_horizon", -1),
        ("ray_horizon", 0),
        ("ray_horizon", "x"),
        ("validity_radius", 0),
        ("hessian_H", "x"),
        ("hessian_H", math.nan),
    ])
    def test_malformed_declared_number_exit_2(self, tmp_path, capsys, key, value):
        declared = dict(FAST_CONFIG["declared"], **{key: value})
        cfg = dict(FAST_CONFIG, declared=declared, checks=["hk", "lemmas"])
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"declared '{key}'" in capsys.readouterr().err

    def test_quadrature_seed_rejected_exit_2(self, tmp_path, capsys):
        cfg = dict(FAST_CONFIG, quadrature={"base_resolution": 4, "seed": 7})
        argv = ["verify", "--config", write_config(tmp_path, cfg), "--seed", "5"]
        assert main(argv) == 2
        assert "unknown field 'seed' in quadrature" in capsys.readouterr().err

    def test_scenario_seed_is_the_quadrature_seed(self, tmp_path):
        for form, members in ((FAST_CONFIG, 1), ({"scenario": "flat_t4_circle"}, 1),
                              ({"suite": "bumps"}, 2)):
            cfg = cli.load_config(write_config(tmp_path, dict(form, seed=7)))
            assert ([(sc.seed, sc.quad.seed) for sc in cli.scenarios_from_config(cfg)]
                    == [(7, 7)] * members)
            built = cli.scenarios_from_config(cfg, seed=5)
            assert [(sc.seed, sc.quad.seed) for sc in built] == [(5, 5)] * members
        # a quadrature seed handed over without load_config does not win either
        (sc,) = cli.scenarios_from_config(
            dict(FAST_CONFIG, quadrature={"seed": 7}), seed=5)
        assert sc.quad.seed == 5

    @pytest.mark.parametrize("cfg, argv, key", [
        ({"scenario": "flat_t4_circle", "parameters": 5}, [], "'parameters'"),
        (dict(FAST_CONFIG, tolerance=-1), [], "'tolerance'"),
        (FAST_CONFIG, ["--tolerance", "nan"], "--tolerance"),
        (dict(FAST_CONFIG, quadrature={"base_resolution": "x"}), [],
         "'base_resolution'"),
        (dict(FAST_CONFIG, quadrature={"base_resolution": 0}), [],
         "'base_resolution'"),
        (dict(FAST_CONFIG, quadrature={"ray_tolerance": -1}), [], "'ray_tolerance'"),
        (dict(FAST_CONFIG, seed=-3), [], "'seed'"),
        (FAST_CONFIG, ["--seed", "-1"], "--seed"),
        (dict(FAST_CONFIG, checks="hk"), [], "'checks'"),
        (dict(FAST_CONFIG, parameters={"k": 7}), [], "'k'"),   # n = 4
        ({"scenario": "flat_t4_circle", "declared": {"check_rays": 0}}, [],
         "declared 'check_rays'"),
        ({"suite": "bumps", "name": "two"}, [], "'name'"),
        (dict(FAST_CONFIG, manifold={"name": "product", "a": 5,
                                     "b": {"name": "sphere", "n": 2}}), [],
         "product 'a'"),
        (dict(FAST_CONFIG, manifold={"name": "product", "a": {"name": "sphere", "n": 2},
                                     "b": {"name": "warped_product", "fiber_dim": 0}}),
         [], "warped_product 'fiber_dim'"),
        (dict(FAST_CONFIG, manifold={"name": "warped_product", "base_interval": 5}), [],
         "warped_product 'base_interval'"),
        (dict(FAST_CONFIG, manifold={"name": "warped_product",
                                     "base_interval": [1.0, -1.0]}), [],
         "warped_product 'base_interval'"),
        (dict(FAST_CONFIG, manifold={"name": "warped_product", "fiber_dim": "x"}), [],
         "warped_product 'fiber_dim'"),
        (dict(FAST_CONFIG, manifold={"name": "warped_product", "fiber_side": 0}), [],
         "warped_product 'fiber_side'"),
        (dict(FAST_CONFIG, manifold={"name": "warped_product", "warp": 3}), [],
         "warped_product 'warp'"),
    ], ids=["parameters", "tolerance", "tolerance-flag", "resolution-text",
            "resolution-zero", "ray-tolerance", "seed", "seed-flag", "checks", "k",
            "builtin-declared", "suite-name", "product-a", "product-nested",
            "warped-interval", "warped-interval-order", "warped-fiber-dim",
            "warped-fiber-side", "warped-warp"])
    def test_malformed_setting_exit_2(self, tmp_path, capsys, cfg, argv, key):
        assert main(["verify", "--config", write_config(tmp_path, cfg)] + argv) == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1

    def test_hessian_without_samples_is_a_precondition_violation(self, tmp_path,
                                                                  capsys):
        declared = dict(FAST_CONFIG["declared"], ray_horizon=0.02)
        cfg = dict(FAST_CONFIG, radii=[0.02], declared=declared, checks=["hessian"])
        out = tmp_path / "out"
        out.mkdir()
        argv = ["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]
        assert main(argv) == 0
        assert "2 precondition violations" in capsys.readouterr().out
        reports = json.loads((out / "report.json").read_text())["reports"]
        assert [rep["name"] for rep in reports] == [
            "hessian_comparison[tangential]", "hessian_comparison[generic]"]
        for rep in reports:
            assert rep["status"] == "precondition-violation"
            assert "usable ray horizon 0.02" in rep["details"]["reason"]

    def test_ray_failure_exit_2(self, tmp_path, capsys):
        # every ray of radius 5 leaves the euclidean box of halfwidth 1 (the
        # residual check integrates them; hk refuses a point before any ray)
        cfg = {"manifold": {"name": "euclidean", "n": 3, "halfwidth": 1.0},
               "submanifold": {"name": "point", "location": [0.0, 0.0, 0.0]},
               "radii": [5.0], "quadrature": {"fiber_resolution": 2},
               "checks": ["residuals"]}
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
        assert "numerical breakdown" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, parameters", [
        ("flat_t4_circle", {"p": 2.5}),
        ("flat_t4_circle", {"k": 2, "p": 2.5}),
        ("s2xs2_factor", {"k": 3, "H": 0.3333333333}),
        ("flat_t4_circle", {"H": -1e6}),
    ], ids=["p-at-most-n-k", "k-and-p", "hk-k-above-kmax", "bounds-overflow"])
    def test_hypotheses_decide_verdict_and_table_alike(self, tmp_path, capsys,
                                                       scenario, parameters):
        # these ended in a traceback or a false FAIL, each with exit 1: now a
        # table cell is blank exactly when verify refuses its bound, and a
        # bound past the floats is +inf, which passes without equality
        cfg = {"scenario": scenario, "parameters": parameters, "checks": ["hk", "integral"],
               "radii": [0.25, 0.5], "quadrature": {"base_resolution": 2, "fiber_resolution": 2}}
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        out.mkdir()
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        assert main(["tube-volume", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        reports = json.loads((out / "report.json").read_text())["reports"]
        rows = json.loads((out / "tube_volume.json").read_text())
        for prefix, column in (("hk_bound", "hk_bound"), ("integral_bound", "thm1_bound")):
            reps = [rep for rep in reports if rep["name"].startswith(prefix)
                    and not rep["name"].endswith("[global]")]
            assert len(reps) == len(rows) == 2
            for rep, row in zip(reps, rows):
                refused = rep["status"] == "precondition-violation"
                assert (row[column] == "") is refused, (rep, row)
                if not refused:
                    # report.json writes a non-finite bound as null
                    bound = math.inf if rep["bound"] is None else rep["bound"]
                    assert rep["passed"] and float(row[column]) == bound
                    assert not rep["equality"] or math.isfinite(rep["slack"])
                    # an infinite bound adds no rounding term to the estimate
                    assert rep["error_estimate"] is not None
                    assert math.isfinite(rep["error_estimate"])

    def test_hk_at_radius_zero_exit_0(self, tmp_path):
        cfg = dict(FAST_CONFIG, radii=[0.0])
        out = tmp_path / "out"
        out.mkdir()
        argv = ["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]
        assert main(argv) == 0
        (rep,) = json.loads((out / "report.json").read_text())["reports"]
        assert rep["name"] == "hk_bound" and rep["status"] == "ok"
        assert rep["measured"] == 0.0 and rep["bound"] == 0.0

    @pytest.mark.parametrize("scenario", ["flat_t4_circle", "s3_great_circle"])
    def test_zero_radius_verify_exit_0(self, capsys, scenario):
        # the lemma check has no ray grid at horizon 0: a precondition violation
        assert main(["verify", "--scenario", scenario, "--radii", "0"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "4 precondition violations" in captured.out
        assert "lemma_51_52 :: ray 0 has no lemma grid" in captured.out
        assert "usable ray horizon 0 " in captured.out

    @pytest.mark.parametrize("scenario", ["flat_t4_circle", "s3_great_circle"])
    def test_horizon_below_hessian_samples_verify_exit_0(self, capsys, scenario):
        # the Hessian check samples from t = 0.05 on, so a 0.04 horizon gives
        # it no sample: a precondition violation, not a read past the horizon
        assert main(["verify", "--scenario", scenario, "--radii", "0.04"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "0 failures" in captured.out
        for branch in ("tangential", "generic"):
            assert (f"hessian_comparison[{branch}] :: no sample on 64 rays: usable ray"
                    " horizon 0.04 (ray horizon 0.04)") in captured.out

    def test_tube_volume_hk_bound_at_radius_zero(self, tmp_path, capsys):
        cfg = dict(FAST_CONFIG, radii=[0.0, 0.4])
        assert main(["tube-volume", "--config", write_config(tmp_path, cfg)]) == 0
        header, first = capsys.readouterr().out.splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        assert row["r"] == "0.0"
        assert row["hk_bound"] == "0.0"


class TestSettings:
    """Every config key applies to every form: CLI, then config, then built-in."""

    SETTINGS = {"parameters": {"k": 2, "H": -0.5, "p": 6}, "radii": [0.1],
                "quadrature": {"base_resolution": 2, "chart_resolution": 3},
                "declared": {"check_rays": 3, "ray_horizon": 0.2,
                             "validity_radius": 1.0, "hessian_H": -2.0,
                             "totally_geodesic": False, "rho_exact": {"2": 0.5}},
                "checks": ["hk"], "tolerance": 0.01, "seed": 4}

    def assert_set(self, sc, seed=4, tolerance=0.01, radii=(0.1,)):
        assert (sc.k, sc.H, sc.p) == (2, -0.5, 6.0)
        assert sc.radii == radii and sc.checks == ("hk",)
        assert sc.seed == sc.quad.seed == seed and sc.tolerance == tolerance
        assert (sc.quad.base_resolution, sc.quad.chart_resolution) == (2, 3)
        assert (sc.check_rays, sc.ray_horizon, sc.hessian_H) == (3, 0.2, -2.0)
        assert sc.manifold.rho_exact[2] == 0.5
        assert sc.manifold.volume_validity_radius == 1.0

    @pytest.mark.parametrize("form, names", [
        ({"scenario": "flat_t4_circle", "name": "renamed"}, ["renamed"]),
        ({"suite": "bumps"}, ["bump_torus", "bump_torus_eps05"]),
        ({key: FAST_CONFIG[key] for key in ("manifold", "submanifold")},
         ["flat_torus4/sub_torus1"]),
    ], ids=["scenario", "suite", "manifold"])
    def test_every_form_takes_every_setting(self, tmp_path, form, names):
        cfg = cli.load_config(write_config(tmp_path, dict(self.SETTINGS, **form)))
        built = cli.scenarios_from_config(cfg)
        assert [sc.name for sc in built] == names
        for sc in built:
            self.assert_set(sc)
        for sc in cli.scenarios_from_config(cfg, seed=9, tolerance=0.5,
                                            radii=(0.3, 0.4)):
            self.assert_set(sc, seed=9, tolerance=0.5, radii=(0.3, 0.4))

    def test_builtin_report_follows_config(self, tmp_path):
        cfg = {"scenario": "flat_t4_circle", "checks": ["hk"], "radii": [0.1],
               "quadrature": {"base_resolution": 2}}
        out = tmp_path / "out"
        out.mkdir()
        argv = ["verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]
        assert main(argv) == 0
        (rep,) = json.loads((out / "report.json").read_text())["reports"]
        assert rep["name"] == "hk_bound" and rep["constants"]["r"] == 0.1
        assert rep["details"]["rays"] == 2 * 32   # 2 base nodes x 32 fiber directions
        assert rep["measured"] == pytest.approx(8.0 / 3.0 * math.pi**2 * 0.1**3,
                                                rel=1e-9)

    def test_schema_names_every_quadrature_field(self):
        import dataclasses

        from tubecomp.tubes import QuadratureSpec
        fields = {f.name for f in dataclasses.fields(QuadratureSpec)} - {"seed"}
        retired = {key for section, key in cli._RETIRED if section == "quadrature"}
        assert set(cli._SCHEMA["quadrature"]) == fields | retired

    def test_retired_keys_change_no_report(self, tmp_path, monkeypatch):
        # the benchmark's bump config sends every retired key
        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
        from workloads import bump_config

        with_keys = bump_config(0, toy=True)
        without = json.loads(json.dumps(with_keys))
        for section, key in cli._RETIRED:
            assert key in with_keys[section]
            del without[section][key]
        outputs = []
        for name, cfg in (("with", with_keys), ("without", without)):
            out = tmp_path / name
            out.mkdir()
            assert main(["verify", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                         "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("report.json", "report.csv")])
        assert outputs[0] == outputs[1]

    def test_schema_names_every_warped_product_parameter(self):
        import inspect

        from tubecomp.manifolds import warped_product
        params = set(inspect.signature(warped_product).parameters) - {"dwarp", "d2warp"}
        assert set(cli._SCHEMA["warped_product"]) == params | {"name"}
