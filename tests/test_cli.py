"""Configuration parsing and the task runner's exit discipline."""
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from gexpect.bsde import entropy_exact
from gexpect.claims import call
from gexpect.cli import ConfigError, emit, main, parse_config, run
from gexpect.lattice import build_tree
from gexpect.reporting import render_csv, render_structured

BASE = {
    "tree": {"horizon": 1.0, "steps": 64, "layout": "recombining"},
    "measure": {"kind": "entropic", "nu": 0.5},
    "claim": {"kind": "call", "strike": 0.0},
    "task": "solve",
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_round_trip(self):
        cfg = parse_config(json.dumps(BASE))
        assert cfg.task == "solve"
        assert cfg.steps == 64
        assert cfg.layout == "recombining"
        assert cfg.measure["kind"] == "entropic"

    def test_defaults_applied(self):
        minimal = {
            "tree": {"steps": 8},
            "measure": {"kind": "entropic", "nu": 1.0},
            "claim": {"kind": "linear", "coef": 1.0},
            "task": "solve",
        }
        cfg = parse_config(json.dumps(minimal))
        assert cfg.horizon == 1.0
        assert cfg.layout == "auto"
        assert cfg.seed == 0

    def test_unknown_top_level_key(self):
        bad = dict(BASE, colour="red")
        with pytest.raises(ConfigError, match="colour"):
            parse_config(json.dumps(bad))

    def test_unknown_measure_param(self):
        bad = dict(BASE, measure={"kind": "entropic", "nu": 0.5, "mu": 1.0})
        with pytest.raises(ConfigError, match="mu"):
            parse_config(json.dumps(bad))

    def test_missing_measure_param(self):
        bad = dict(BASE, measure={"kind": "quadratic_upper", "mu": 0.3})
        with pytest.raises(ConfigError, match="missing key 'nu' in config.measure"):
            parse_config(json.dumps(bad))

    def test_claim_params_read_from_the_family(self):
        ok = dict(BASE, claim={"kind": "call", "strike": 0.1, "coef": 2.0})
        parse_config(json.dumps(ok))
        bad = dict(BASE, claim={"kind": "call", "threshold": 0.1})
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(json.dumps(bad))

    def test_unknown_claim_kind(self):
        bad = dict(BASE, claim={"kind": "swaption"})
        with pytest.raises(ConfigError, match="swaption"):
            parse_config(json.dumps(bad))

    def test_missing_required_section(self):
        bad = {k: v for k, v in BASE.items() if k != "measure"}
        with pytest.raises(ConfigError, match="measure"):
            parse_config(json.dumps(bad))

    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 1 column"):
            parse_config("{invalid json", source="broken.json")

    def test_unknown_task(self):
        bad = dict(BASE, task="meditate")
        with pytest.raises(ConfigError, match="meditate"):
            parse_config(json.dumps(bad))

    def test_task_param_scoping(self):
        # converge accepts n_values; solve does not
        ok = dict(BASE, task="converge",
                  params={"n_values": [64, 128], "ratio_tol": 0.25})
        parse_config(json.dumps(ok))
        bad = dict(BASE, params={"n_values": [64, 128]})
        with pytest.raises(ConfigError, match="n_values"):
            parse_config(json.dumps(bad))

    @pytest.mark.parametrize("task,params,match", [
        ("axioms", {"claim_kind": "smooth"}, "claim_kind must be one of"),
        ("penalize", {"drift": "bogus"}, "drift must be one of"),
        ("axioms", {"n_claims": "abc"}, "config.params.n_claims must be an integer, got 'abc'"),
        ("axioms", {"depths": 3}, "config.params.depths must be a list, got 3"),
        ("converge", {"n_values": "12"}, "config.params.n_values must be a list, got '12'"),
        ("represent", {"precheck": "no"},
         "config.params.precheck must be true or false, got 'no'"),
        ("dual", {"q_sweep": "abc"}, "config.params.q_sweep must be a list, got 'abc'"),
        ("axioms", {"expect_fail": ["monotonicty"]},
         "config.params.expect_fail[0] must be one of ['monotonicity',"),
        ("axioms", {"n_claims": 0}, "config.params.n_claims must be at least 1, got 0"),
        ("domination", {"n_claims": -2}, "config.params.n_claims must be at least 1, got -2"),
        ("converge", {"n_values": [64]},
         "config.params.n_values must be a list of at least two step counts to form a ratio, "
         "got [64]"),
        ("converge", {"n_values": []}, "config.params.n_values must be a list of at least two"),
        ("axioms", {"tol": "1e-10"}, "config.params.tol must be a number, got '1e-10'"),
        ("axioms", {"n_claims": "4"}, "config.params.n_claims must be an integer, got '4'"),
        ("axioms", {"depths": ["1"]}, "config.params.depths[0] must be an integer, got '1'"),
        ("axioms", {"tol": math.nan}, "config.params.tol must be a number, got nan"),
        ("axioms", {"scale": math.inf}, "config.params.scale must be a number, got inf"),
        ("domination", {"nu": -math.inf}, "config.params.nu must be a number, got -inf"),
        ("axioms", {"scale": 0.0}, "config.params.scale must be positive, got 0.0"),
        ("axioms", {"scale": -0.5}, "config.params.scale must be positive, got -0.5"),
        ("axioms", {"tol": -1.0}, "config.params.tol must be positive, got -1.0"),
        ("axioms", {"tol": 0}, "config.params.tol must be positive, got 0.0"),
        ("domination", {"scale": 0.0}, "config.params.scale must be positive, got 0.0"),
        ("domination", {"tol": -1e-10}, "config.params.tol must be positive, got -1e-10"),
        ("dual", {"slack": -1.0}, "config.params.slack must be positive, got -1.0"),
        ("dual", {"slack": 0}, "config.params.slack must be positive, got 0.0"),
        ("represent", {"rel_tol": -1.0}, "config.params.rel_tol must be positive, got -1.0"),
        ("penalize", {"surplus_tol": 0.0},
         "config.params.surplus_tol must be positive, got 0.0"),
        ("converge", {"ratio_tol": -0.2}, "config.params.ratio_tol must be positive, got -0.2"),
        # Values that once ran and failed in the library (exit 1), or ran as another value.
        ("penalize", {"n_schedule": []}, "config.params.n_schedule must be a non-empty list, got []"),
        ("penalize", {"n_schedule": [2.0, 0.0]},
         "config.params.n_schedule[1] must be positive, got 0.0"),
        ("penalize", {"n_schedule": [-4]}, "config.params.n_schedule[0] must be positive, got -4.0"),
        ("represent", {"t_grid": []}, "config.params.t_grid must be a non-empty list, got []"),
        ("represent", {"z_count": 1}, "config.params.z_count must be at least 2, got 1"),
        ("represent", {"z_hi": -2.0}, "config.params.z_hi must be different from z_lo, got -2.0"),
        ("axioms", {"depths": [0, 65]}, "config.params.depths[1] must be in [0, 64], got 65"),
        ("axioms", {"depths": [-1]}, "config.params.depths[0] must be in [0, 64], got -1"),
        ("domination", {"thetas": [0.5, 1.0]},
         "config.params.thetas[1] must be in (0, 1), got 1.0"),
        ("domination", {"thetas": [0.0]}, "config.params.thetas[0] must be in (0, 1), got 0.0"),
        ("dual", {"n_random": -1}, "config.params.n_random must be at least 0, got -1"),
        # A constant density with |q| sqrt(dt) > 1 - delta is inadmissible (dt = 1/64).
        ("dual", {"q_sweep": [0.5, -100.0]},
         "config.params.q_sweep[1] must be at most 7.999992 in absolute value "
         "(|q| sqrt(dt) <= 1 - 1e-06), got -100.0"),
    ])
    def test_bad_task_param_value(self, task, params, match):
        bad = dict(BASE, task=task, params=params)
        with pytest.raises(ConfigError, match=re.escape(match)):
            parse_config(json.dumps(bad))

    @pytest.mark.parametrize("override,match", [
        ({"tree": 5}, "config.tree must be an object, got 5"),
        ({"measure": ["entropic"]}, "config.measure must be an object"),
        ({"claim": "call"}, "config.claim must be an object"),
        ({"params": 3}, "config.params must be an object, got 3"),
        ({"tree": {"steps": "abc"}}, "config.tree.steps must be an integer, got 'abc'"),
        ({"tree": {"steps": 8, "horizon": "long"}}, "config.tree.horizon must be a number"),
        ({"tree": {"steps": 8, "horizon": None}}, "config.tree.horizon must be a number"),
        ({"seed": [1]}, "config.seed must be an integer"),
        ({"tree": {"steps": 8, "depth_cap": "x"}},
         "config.tree.depth_cap must be an integer, got 'x'"),
        ({"tree": {"steps": 8, "depth_cap": 0}}, "config.tree.depth_cap must be positive, got 0"),
        ({"measure": {"kind": "quadratic_upper", "mu": "x", "nu": 0.5}},
         "config.measure.mu must be a number, got 'x'"),
        ({"claim": {"kind": "call", "strike": 0.0, "coef": "x"}},
         "config.claim.coef must be a number, got 'x'"),
        ({"tree": {"steps": 6.7}}, "config.tree.steps must be an integer, got 6.7"),
        ({"seed": 1.9}, "config.seed must be an integer, got 1.9"),
        ({"tree": {"steps": True}}, "config.tree.steps must be an integer, got True"),
        ({"out": ["a"]}, "config.out must be a string, got ['a']"),
        ({"out": {}}, "config.out must be a string, got {}"),
        ({"measure": {"kind": "entropic", "nu": "inf"}},
         "config.measure.nu must be a number, got 'inf'"),
        ({"measure": {"kind": "entropic", "nu": math.inf}},
         "config.measure.nu must be a number, got inf"),
        ({"tree": {"steps": "8"}}, "config.tree.steps must be an integer, got '8'"),
        ({"tree": {"steps": 8, "horizon": "1"}}, "config.tree.horizon must be a number, got '1'"),
        ({"tree": {"steps": 8, "horizon": math.nan}},
         "config.tree.horizon must be a number, got nan"),
        ({"seed": "3"}, "config.seed must be an integer, got '3'"),
        # Values of the right type that the tree or the measure's builder rejects.
        ({"tree": {"steps": 0}}, "config.tree.steps must be positive, got 0"),
        ({"tree": {"steps": 8, "horizon": -1.0}},
         "config.tree.horizon must be positive, got -1.0"),
        ({"measure": {"kind": "quadratic_upper", "mu": -0.3, "nu": 0.5}},
         "config.measure must be a valid quadratic_upper measure: "
         "growth constants must be nonnegative"),
        ({"measure": {"kind": "entropic", "nu": 0.0}},
         "config.measure must be a valid entropic measure: the entropic driver needs nu > 0"),
        ({"measure": {"kind": "sublinear_interval", "lo": 1.0, "hi": 0.0}},
         "config.measure must be a valid sublinear_interval measure: "
         "empty slope interval [1.0, 0.0]"),
    ])
    def test_wrong_typed_value(self, override, match):
        bad = dict(BASE, **override)
        with pytest.raises(ConfigError, match=re.escape(match)):
            parse_config(json.dumps(bad))

    def test_bad_layout(self):
        bad = dict(BASE, tree={"steps": 8, "layout": "trinomial"})
        with pytest.raises(ConfigError, match="layout"):
            parse_config(json.dumps(bad))


class TestMain:
    def test_solve_exits_zero_and_writes_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        reports = list(out.glob("*.report.txt"))
        assert len(reports) == 1
        assert "elapsed" not in reports[0].read_text()

    def test_solve_report_fields(self):
        report = run(parse_config(json.dumps(BASE)))
        assert list(report.results) == ["rho_root", "scheme", "monotone_step",
                                        "step_bound", "warnings"]
        tree = build_tree(1.0, 64, "recombining")
        s = entropy_exact(0.5, -call(0.0).evaluate(tree), tree)
        header, rows = report.tables["profile"]
        assert header == ["depth", "time", "y_min", "y_max", "z_min", "z_max"]
        expected = [[k, k * tree.dt, float(y.min()), float(y.max()),
                     float(s.Z.values[k].min()) if k < 64 else "",
                     float(s.Z.values[k].max()) if k < 64 else ""]
                    for k, y in enumerate(s.Y.values)]
        assert rows == expected

    @pytest.mark.parametrize("layout", ["full", "auto"])
    def test_path_max_solves_past_the_path_matrix(self, tmp_path, layout):
        # a path functional evaluates on the tree's own slices, so a full
        # N=18 tree (above the 2^N x N path matrix's N <= 16) solves
        cfg = write_cfg(tmp_path, tree={"steps": 18, "layout": layout},
                        claim={"kind": "path_max"})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, task="dual",
                        tree={"steps": 10, "layout": "full"})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["dual", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["dual", "--config", str(cfg), "--out", str(out2)]) == 0
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_axiom_failure_sets_exit_one(self, tmp_path, capsys):
        # entropic scaling violation is a genuine FAIL unless expected
        cfg = write_cfg(tmp_path, task="axioms",
                        tree={"steps": 8, "layout": "full"})
        assert main(["axioms", "--config", str(cfg),
                     "--out", str(tmp_path / "o1")]) == 1
        assert "FAIL" in capsys.readouterr().out
        cfg2 = write_cfg(tmp_path, name="cfg2.json", task="axioms",
                         tree={"steps": 8, "layout": "full"},
                         params={"expect_fail": ["positive_homogeneity",
                                                 "subadditivity"]})
        assert main(["axioms", "--config", str(cfg2),
                     "--out", str(tmp_path / "o2")]) == 0

    def test_config_error_sets_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["solve", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert main(["solve", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("override", [
        {"tree": 5}, {"params": 3}, {"tree": {"steps": "abc"}}, {"seed": "x"},
        {"tree": {"steps": 8, "depth_cap": "x"}}, {"tree": {"steps": 8, "depth_cap": 0}},
        {"measure": {"kind": "quadratic_upper", "mu": "x", "nu": 0.5}},
        {"claim": {"kind": "call", "strike": 0.0, "coef": "x"}}, {"tree": {"steps": 6.7}},
        {"out": ["a"]}, {"out": {}},
        # An entropic nu of "inf" once ran to rho_root nan with every check PASS.
        {"measure": {"kind": "entropic", "nu": "inf"}},
        {"measure": {"kind": "entropic", "nu": math.inf}}, {"tree": {"steps": "8"}},
        {"tree": {"steps": 8, "horizon": math.nan}}, {"seed": "3"},
        {"tree": {"steps": 0}}, {"tree": {"steps": 8, "horizon": -1.0}},
        {"measure": {"kind": "quadratic_upper", "mu": -0.3, "nu": 0.5}},
        {"measure": {"kind": "entropic", "nu": -1.0}},
        {"measure": {"kind": "sublinear_interval", "lo": 1.0, "hi": 0.0}}])
    def test_wrong_typed_value_exits_two(self, tmp_path, capsys, override):
        cfg = write_cfg(tmp_path, **override)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_converge_honours_depth_cap(self, tmp_path, capsys):
        # parse_config builds every tree its task will run on, converge one
        # per n_values entry: the cap applies to all, with an explicit layout
        # and with auto alike, and is a configuration error
        for layout in ("full", "auto"):
            tree = {"steps": 4, "layout": layout, "depth_cap": 3}
            for task, params in (("solve", {}), ("converge", {"n_values": [4, 8, 16]})):
                cfg = write_cfg(tmp_path, task=task, tree=tree, params=params)
                assert main([task, "--config", str(cfg), "--out", str(tmp_path)]) == 2
                assert "exceeds the depth cap 3" in capsys.readouterr().err
            capped = dict(BASE, task="converge", params={"n_values": [4, 8, 16]},
                          tree={"steps": 4, "layout": layout, "depth_cap": 8})
            with pytest.raises(ConfigError, match="N=16 exceeds the depth cap 8"):
                parse_config(json.dumps(capped))
            solve = dict(BASE, tree={"steps": 12, "layout": layout, "depth_cap": 8})
            with pytest.raises(ConfigError, match="N=12 exceeds the depth cap 8"):
                parse_config(json.dumps(solve))

    @pytest.mark.parametrize("task,tree,params,message", [
        ("solve", {"steps": 30, "layout": "full"}, {}, "N=30 exceeds the depth cap 22"),
        ("axioms", {"steps": 30, "layout": "full"}, {}, "N=30 exceeds the depth cap 22"),
        ("solve", {"steps": 30}, {}, "only supports path-independent claims"),
        ("solve", {"steps": 8, "layout": "recombining"}, {}, "path dependent"),
        ("dual", {"steps": 8, "layout": "recombining"}, {}, "path dependent"),
        ("converge", {"steps": 8, "layout": "recombining"}, {"n_values": [4, 8]},
         "path dependent")])
    def test_tree_the_task_cannot_run_on_exits_two(self, tmp_path, capsys, task, tree,
                                                   params, message):
        cfg = write_cfg(tmp_path, task=task, tree=tree, params=params,
                        claim={"kind": "path_max"})
        assert main([task, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_task_that_reads_no_claim_ignores_its_layout(self):
        cfg = dict(BASE, task="penalize", claim={"kind": "path_max"},
                   tree={"steps": 8, "layout": "recombining"})
        assert run(parse_config(json.dumps(cfg))).passed

    def test_missing_measure_param_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, measure={"kind": "quadratic_upper", "mu": 0.3})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "missing key 'nu'" in capsys.readouterr().err

    @pytest.mark.parametrize("task,params", [
        ("axioms", {"claim_kind": "smooth"}),
        ("penalize", {"drift": "bogus"}),
        ("axioms", {"n_claims": "abc"}),
        ("axioms", {"depths": 3}),
        ("converge", {"n_values": "12"}),
        ("represent", {"precheck": "no"}),
        ("dual", {"q_sweep": "abc"}),
        ("axioms", {"expect_fail": ["monotonicty"]}),
        ("axioms", {"n_claims": 0}),
        ("domination", {"n_claims": 0}),
        ("converge", {"n_values": [64]}),
        ("converge", {"n_values": []}),
        ("axioms", {"tol": "1e-10"}),
        ("axioms", {"n_claims": "4"}),
        ("axioms", {"depths": ["1"]}),
        ("axioms", {"tol": math.nan}),
        ("axioms", {"scale": math.inf}),
        ("domination", {"nu": -math.inf}),
        ("axioms", {"scale": 0.0}),
        ("axioms", {"scale": -0.5}),
        ("axioms", {"tol": -1.0}),
        ("axioms", {"tol": 0}),
        ("domination", {"scale": 0.0}),
        ("domination", {"tol": -1e-10}),
        ("dual", {"slack": -1.0}),
        ("dual", {"slack": 0}),
        ("represent", {"rel_tol": -1.0}),
        ("penalize", {"surplus_tol": 0.0}),
        ("converge", {"ratio_tol": -0.2}),
        ("penalize", {"n_schedule": []}),
        ("penalize", {"n_schedule": [2.0, 0.0]}),
        ("represent", {"t_grid": []}),
        ("represent", {"z_count": 1}),
        ("represent", {"z_hi": -2.0}),
        ("axioms", {"depths": [0, 7]}),
        ("domination", {"thetas": [1.0]}),
        ("dual", {"n_random": -1}),
        ("dual", {"q_sweep": [100.0]}),
    ])
    def test_bad_task_param_value_exits_two(self, tmp_path, capsys, task, params):
        cfg = write_cfg(tmp_path, task=task, claim=None, params=params,
                        tree={"steps": 6, "layout": "full"})
        assert main([task, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config.params.{next(iter(params))}" in err and "must be" in err

    def test_penalize_reports_nan_defect(self, tmp_path, capsys):
        # z = 1e155 overflows the explicit scheme: the one-step defects of
        # y + zB + A are NaN and must not read as a zero martingale gap
        cfg = write_cfg(
            tmp_path, task="penalize", claim=None,
            tree={"steps": 8, "layout": "recombining"},
            measure={"kind": "quadratic_upper", "mu": 0.3, "nu": 0.5},
            params={"z": 1e155, "mu_bar": 0.3, "nu_bar": 0.5})
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = main(["penalize", "--config", str(cfg), "--out", str(out),
                         "--format", "both"])
        assert code == 1
        assert "martingale_gap_nonincreasing: FAIL" in capsys.readouterr().out
        report = next(out.glob("*.report.txt")).read_text()
        assert "    martingale_gap: nan\n" in report
        rows = next(out.glob("*.schedule.csv")).read_text().splitlines()[1:]
        assert rows and all(row.split(",")[1] == "nan" for row in rows)

    def test_task_flag_must_match_config(self, tmp_path):
        cfg = write_cfg(tmp_path)  # task: solve
        assert main(["axioms", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_penalize_schedule_table(self, tmp_path):
        cfg = write_cfg(
            tmp_path, task="penalize", claim=None,
            tree={"steps": 32, "layout": "recombining"},
            params={"mu_bar": 1.0, "nu_bar": 0.5, "z": 1.0,
                    "n_schedule": [4, 16, 64]})
        out = tmp_path / "out"
        code = main(["penalize", "--config", str(cfg), "--out", str(out),
                     "--format", "both"])
        assert code == 0
        csvs = list(out.glob("*.schedule.csv"))
        assert len(csvs) == 1
        header = csvs[0].read_text().splitlines()[0]
        assert header == "n,max_gap,max_Y_minus_y"

    def test_seed_override_echoed(self, tmp_path):
        cfg = write_cfg(tmp_path, task="dual",
                        tree={"steps": 8, "layout": "full"})
        out = tmp_path / "out"
        assert main(["dual", "--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == 0
        report = next(out.glob("*.report.txt")).read_text()
        assert "seed: 99" in report

    @pytest.mark.parametrize("params,check", [
        ({"thetas": []}, "theta_domination"), ({"z_grid": []}, "sup_norm_bound")])
    def test_empty_grid_skips_its_check(self, params, check):
        cfg = dict(BASE, task="domination", claim=None, params=params,
                   tree={"steps": 6, "layout": "full"})
        report = run(parse_config(json.dumps(cfg)))
        row = next(r for r in report.results["checks"] if r["check"] == check)
        assert (row["status"], row["comparisons"]) == ("skipped", 0)
        assert math.isnan(row["max_gap"])

    def test_represent_on_a_grid_without_zero(self, tmp_path, capsys):
        # 40 points on [-2, 2] miss z = 0, where an interpolated table once
        # failed the generator's g(0) = 0 check.
        cfg = write_cfg(tmp_path, task="represent", claim=None, params={"z_count": 40})
        assert main(["represent", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "matches_reference: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("task,params", [
        ("solve", {}), ("converge", {"n_values": [500, 1000, 2000, 4000]})])
    def test_recombining_solves_run_in_linear_memory(self, task, params):
        # Storing every slice of Y and Z at N=4000 takes 2 * 4001 * 4002 / 2
        # doubles, ~128 MB; the root-only solves hold a few slices of N+1.
        cfg = parse_config(json.dumps(dict(BASE, task=task, params=params,
                                           tree={"steps": 4000, "layout": "recombining"})))
        tracemalloc.start()
        try:
            report = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8e6

    def test_emit_streams_the_report_into_its_files(self, tmp_path):
        # emit writes each file as it renders it, so it adds under 1 MiB to
        # what the report holds, and so to the run's peak.  Building the
        # whole text of a recombining N=5000 solve, and a dict per profile
        # row, added about 3 MiB.
        cfg = parse_config(json.dumps(dict(BASE, tree={"steps": 5000,
                                                       "layout": "recombining"})))
        report = run(cfg)
        tracemalloc.start()
        try:
            written = emit(report, tmp_path, "big", "both")
            added = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert added < 2 ** 20
        header, rows = report.tables["profile"]
        assert [p.name for p in written] == ["big.report.txt", "big.profile.csv"]
        assert written[0].read_text() == render_structured(report.as_document())
        assert written[1].read_text() == render_csv(header, rows)

    def test_converge_with_no_ratio_fails(self, tmp_path, capsys):
        # A constant claim is solved exactly by both schemes: every gap is 0,
        # so no ratio is compared and the halving check cannot pass.
        cfg = write_cfg(tmp_path, task="converge", claim={"kind": "constant", "value": 0.3},
                        tree={"horizon": 1.0, "steps": 128, "layout": "recombining"},
                        params={"n_values": [16, 32, 64, 128]})
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) != 0
        report = run(parse_config(cfg.read_text()))
        assert report.results["gaps"] == [0.0] * 4 and report.results["ratios"] == []
        assert report.summary == [{"check": "first_order_halving", "passed": False}]
        assert "first_order_halving: FAIL" in capsys.readouterr().out

    def test_tabular_format_writes_no_report(self, tmp_path):
        cfg = write_cfg(tmp_path, task="converge",
                        params={"n_values": [32, 64, 128]})
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out),
                     "--format", "tabular"]) == 0
        assert not list(out.glob("*.report.txt"))
        assert list(out.glob("*.csv"))
