import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy import stats

import tiltlab
from tiltlab import cli, tilting
from tiltlab.cli import _config_from_args, main, parse_args
from tiltlab.experiments import _chi2_quantile, run_experiment
from tiltlab.montecarlo import LowEffectiveSampleError
from tiltlab.reports import (
    ExperimentConfig,
    Report,
    Table,
    CheckResult,
    ConfigError,
    config_from_dict,
    config_to_dict,
    default_config,
    render_csv,
    report_to_json,
    validate_report_dict,
)


# ------------------------------------------------------------------- config


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def test_config_round_trip_through_json():
    # The benchmark workloads add list-valued specs, such as a 2-d h table.
    configs = [
        default_config(experiment)
        for experiment in ("dice", "bernoulli", "windows", "gsm", "cf-check", "dice-concentration", "theorem1")
    ]
    configs += [config_from_dict(json.loads(path.read_text())) for path in sorted(WORKLOADS.glob("*.json"))]
    assert len(configs) == 11
    for config in configs:
        wire = json.dumps(config_to_dict(config))
        assert config_from_dict(json.loads(wire)) == config


def test_config_specs_are_read_only():
    config = default_config("dice")
    with pytest.raises(TypeError):
        config.baseline["k"] = 7
    with pytest.raises(TypeError):
        config.constraint["target"] = 5.0
    # The config keeps its own copy of a spec it was built from.
    spec = {"kind": "uniform", "k": 6}
    config = ExperimentConfig(experiment="dice", baseline=spec)
    spec["k"] = 7
    assert config.baseline == {"kind": "uniform", "k": 6}


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        default_config("siege")


def test_config_rejects_unknown_keys():
    raw = config_to_dict(default_config("dice"))
    raw["typo"] = 1
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict(raw)


def test_config_requires_nonempty_grid():
    raw = config_to_dict(default_config("bernoulli"))
    raw["n_grid"] = []
    with pytest.raises(ValueError, match="nonempty"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "experiment, field, value, message",
    [
        ("theorem1", "m", 0, "block length m must be >= 1, got 0"),
        ("dice", "m", -3, "block length m must be >= 1, got -3"),
        ("gsm", "gsm_n", 1, "gsm needs n >= 2 and 1 <= block <= n, got n=1, block=5"),
        ("gsm", "gsm_block", 0, "gsm needs n >= 2 and 1 <= block <= n, got n=200, block=0"),
        ("gsm", "gsm_block", 201, "gsm needs n >= 2 and 1 <= block <= n, got n=200, block=201"),
        ("gsm", "gsm_epsilon", 0.0, "gsm epsilon must be > 0, got 0.0"),
        ("gsm", "gsm_epsilon", -0.1, "gsm epsilon must be > 0, got -0.1"),
        ("gsm", "gsm_targets", [0.0, 0.0], "gsm target variance must be > 0, got 0.0"),
        ("gsm", "gsm_targets", [0.0, -1.0], "gsm target variance must be > 0, got -1.0"),
        ("gsm", "gsm_epsilon", float("nan"), "gsm epsilon must be > 0, got nan"),
        ("gsm", "gsm_targets", [0.0, float("nan")], "gsm target variance must be > 0, got nan"),
        ("windows", "n_grid", [0, 25], "n grid entries must be >= 1, got 0"),
        ("theorem1", "n_grid", [20, -5], "n grid entries must be >= 1, got -5"),
        ("bernoulli", "m", 21, "block length m=21 exceeds the smallest grid size n=20"),
        ("windows", "m", 26, "block length m=26 exceeds the smallest grid size n=25"),
        ("dice-concentration", "block_size", 0, "type size N must be >= 1, got 0"),
        ("dice-concentration", "interval", [1.79, 1.79], "interval needs lo < hi, got (1.79, 1.79)"),
        ("dice-concentration", "interval", [2.0, 1.0], "interval needs lo < hi, got (2.0, 1.0)"),
        ("cf-check", "t_grid", [0.0, float("inf")], "t grid entries must be finite, got (0.0, inf)"),
        ("cf-check", "t_grid", [float("nan")], "t grid entries must be finite, got (nan,)"),
        ("gsm", "gsm_targets", [0.0], "gsm_targets needs two values, got (0.0,)"),
        ("dice-concentration", "interval", [1.0, 2.0, 3.0], "interval needs two values, got (1.0, 2.0, 3.0)"),
        ("gsm", "gsm_targets", [float("nan"), 1.0], "gsm targets and epsilon must be finite, got (nan, 1.0) and 0.1"),
        ("gsm", "gsm_targets", [0.0, float("inf")], "gsm targets and epsilon must be finite, got (0.0, inf) and 0.1"),
        ("gsm", "gsm_epsilon", float("inf"), "gsm targets and epsilon must be finite, got (0.0, 1.0) and inf"),
        ("dice", "constraint", None, "constraint must be a JSON object, got None"),
        ("bernoulli", "baseline", [["kind", "bernoulli"]], "baseline must be a JSON object, got [['kind', 'bernoulli']]"),
        ("windows", "samples", 100000.5, "samples must be an integer, got 100000.5"),
        ("theorem1", "m", 1.5, "m must be an integer, got 1.5"),
        ("dice", "seed", "a", "seed must be an integer, got 'a'"),
        ("dice-concentration", "seed", 1.5, "seed must be an integer, got 1.5"),
        ("dice", "seed", True, "seed must be an integer, got True"),
        ("dice-concentration", "block_size", 1000.0, "block_size must be an integer, got 1000.0"),
        ("gsm", "gsm_n", False, "gsm_n must be an integer, got False"),
        ("gsm", "gsm_block", 2.5, "gsm_block must be an integer, got 2.5"),
        ("theorem1", "n_grid", [20.7, 40], "n grid entries must be integers, got (20.7, 40)"),
        ("windows", "n_grid", ["a"], "n grid entries must be integers, got ('a',)"),
        ("cf-check", "t_grid", ["a"], "t_grid entries must be numbers, got ('a',)"),
        ("dice-concentration", "interval", ["a", 2], "interval entries must be numbers, got ('a', 2)"),
        ("gsm", "gsm_targets", [None, 1.0], "gsm_targets entries must be numbers, got (None, 1.0)"),
        ("windows", "method", "foo", "unknown method 'foo'; choose from ('rejection', 'tilt-importance')"),
        ("dice", "out", 5, "out must be a string or null, got 5"),
        ("gsm", "out", ["report.json"], "out must be a string or null, got ['report.json']"),
        ("windows", "exponent", "x", "exponent must be a number, got 'x'"),
        ("windows", "exponent", True, "exponent must be a number, got True"),
        ("gsm", "gsm_epsilon", True, "gsm_epsilon must be a number, got True"),
        ("gsm", "gsm_epsilon", None, "gsm_epsilon must be a number, got None"),
        ("windows", "amplitude", True, "amplitude must be a number, got True"),
        ("windows", "amplitude", "0.5", "amplitude must be a number, got '0.5'"),
    ],
)
def test_config_rejects_out_of_range_fields(experiment, field, value, message):
    raw = {**config_to_dict(default_config(experiment)), field: value}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value) == message


def test_config_accepts_gsm_block_edges():
    for n, block in [(2, 1), (2, 2), (200, 1), (200, 200)]:
        raw = {**config_to_dict(default_config("gsm")), "gsm_n": n, "gsm_block": block}
        assert config_from_dict(raw).gsm_block == block


# ------------------------------------------------------------------ renders


def test_csv_uses_twelve_significant_digits():
    table = Table(columns=("a", "b"), rows=((1 / 3, "x"), (2.0, "y")))
    text = render_csv(table)
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1].startswith("0.333333333333,")
    assert len(lines[1].split(",")[0].replace("0.", "")) == 12


def test_report_json_validates_against_schema():
    report = Report(
        config=default_config("dice"),
        tables={"t": Table(columns=("x",), rows=((1.0,),))},
        checks=(CheckResult(name="c", invariant="i", passed=True, margin=0.5),),
        primary_table="t",
    )
    raw = json.loads(report_to_json(report))
    validate_report_dict(raw)
    del raw["version"]
    with pytest.raises(jsonschema.ValidationError):
        validate_report_dict(raw)


# ---------------------------------------------------------------------- CLI


def test_dice_default_passes(capsys, tmp_path):
    out = tmp_path / "dice.json"
    code = main(["dice", "--out", str(out)])
    assert code == 0
    raw = json.loads(out.read_text())
    validate_report_dict(raw)
    tilt = dict(zip(raw["tables"]["tilt"]["columns"], zip(*raw["tables"]["tilt"]["rows"])))
    assert [round(v, 3) for v in tilt["probability"]] == [0.054, 0.079, 0.114, 0.165, 0.240, 0.347]
    assert [c["name"] for c in raw["checks"]] == [
        "solver-residual", "dual-identity", "multiplier", "tilted-law", "tilted-entropy", "divergence", "max-entropy"
    ]
    err = capsys.readouterr().err
    assert "PASS" in err and "FAIL" not in err


@pytest.mark.parametrize(
    "spec",
    [
        {"baseline": {"kind": "masses", "values": [0.1, 0.1, 0.1, 0.1, 0.1, 0.5]}},
        {"constraint": {"kind": "equality", "h": [6, 5, 4, 3, 2, 1], "target": 4.5}},
        {"constraint": {"kind": "equality", "target": 4.5, "epsilon": 0.1}},
    ],
)
def test_dice_reference_checks_apply_only_to_the_brandeis_die(spec, tmp_path):
    # A loaded die, a reversed statistic and a window all have six symbols
    # and the target 4.5, but none is the Brandeis problem, so its known
    # solution is no reference for them.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment": "dice", **spec}))
    out = tmp_path / "dice.json"
    assert main(["dice", "--config", str(config_path), "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == ["solver-residual", "dual-identity", "max-entropy"]


def test_dice_uniform_target(tmp_path):
    out = tmp_path / "dice.json"
    assert main(["dice", "--target", "3.5", "--out", str(out)]) == 0
    raw = json.loads(out.read_text())
    summary = dict(zip(raw["tables"]["summary"]["columns"], raw["tables"]["summary"]["rows"][0]))
    assert summary["status"] == "interior"
    assert summary["multiplier"] == 0.0
    assert abs(summary["entropy"] - 1.791759469228055) < 1e-12


def test_dice_infeasible_target_exits_2(capsys):
    assert main(["dice", "--target", "6.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: target [6.5] is not reachable by a tilt: it is outside (or on the boundary of) "
        "the convex hull of the moment values\n"
    )


def test_unknown_experiment_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["siege"])
    assert info.value.code == 2


def test_bernoulli_single_point_grid(capsys, tmp_path):
    out = tmp_path / "b.json"
    code = main(["bernoulli", "--n-grid", "4", "--out", str(out)])
    assert code == 0
    raw = json.loads(out.read_text())
    checks = {c["name"]: c for c in raw["checks"]}
    assert checks["exact-n4"]["passed"]
    assert "0.8" in checks["exact-n4"]["detail"]


def test_bernoulli_interior_baseline(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bernoulli", "--baseline-p", "0.9", "--n-grid", "20:100:20", "--out", str(out)]) == 0
    raw = json.loads(out.read_text())
    summary = dict(zip(raw["tables"]["summary"]["columns"], raw["tables"]["summary"]["rows"][0]))
    assert summary["status"] == "interior"
    assert summary["multiplier"] == 0.0


def test_theorem1_csv_columns(tmp_path):
    out = tmp_path / "records.csv"
    code = main(["theorem1", "--n-grid", "20,40,80", "--format", "csv", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "n,m,tv,envelope_thm,envelope_alt,bad_mass,delta"


def test_windows_csv_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["windows", "--n-grid", "25,50", "--samples", "20000", "--out", str(out), "--format", "csv"])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "n,epsilon,tv_estimate,se,acceptance_rate,ess,method,seed"


def test_gsm_csv_columns(tmp_path):
    out = tmp_path / "gsm.csv"
    code = main(["gsm", "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,epsilon,ks,accepted,seed"
    assert len(lines) == 2


def test_cf_check_runs(tmp_path):
    out = tmp_path / "cf.json"
    assert main(["cf-check", "--samples", "20000", "--out", str(out)]) == 0
    raw = json.loads(out.read_text())
    assert set(raw["tables"]) == {"point", "two-atom"}


def test_reports_are_byte_identical_across_runs(tmp_path):
    out = tmp_path / "report.json"
    assert main(["dice-concentration", "--samples", "20000", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["dice-concentration", "--samples", "20000", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_flags_override_config_file(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment": "dice", "seed": 5, "format": "json"}))
    out = tmp_path / "d.json"
    assert main(["dice", "--config", str(config_path), "--seed", "7", "--out", str(out)]) == 0
    raw = json.loads(out.read_text())
    assert raw["config"]["seed"] == 7


def test_flag_overrides_an_out_of_range_config_file_value(capsys, tmp_path):
    # Only the merged config is validated, so a flag can mend a file value.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment": "cf-check", "samples": 0}))
    assert main(["cf-check", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples must be >= 1, got 0\n"
    out = tmp_path / "cf.json"
    assert main(["cf-check", "--config", str(config_path), "--samples", "20000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["samples"] == 20000


@pytest.mark.parametrize(
    "experiment, flags",
    [("dice", []), ("dice", ["--target", "4"]), ("theorem1", ["--kind", "halfspace"])],
)
def test_non_object_spec_in_config_file_exits_2(experiment, flags, capsys, tmp_path):
    # A spec flag edits the file's spec only when it is an object.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment": experiment, "constraint": None}))
    assert main([experiment, "--config", str(config_path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: constraint must be a JSON object, got None\n"


def test_config_file_experiment_mismatch(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment": "gsm"}))
    assert main(["dice", "--config", str(config_path)]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_config_file_drives_a_sweep(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"experiment": "theorem1", "n_grid": [10, 20, 30], "m": 2, "format": "csv"})
    )
    out = tmp_path / "records.csv"
    assert main(["theorem1", "--config", str(config_path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4
    assert [r.split(",")[0] for r in rows[1:]] == ["10", "20", "30"]
    assert all(r.split(",")[1] == "2" for r in rows[1:])


def test_exit_1_when_a_check_fails(tmp_path):
    # A coverage interval nowhere near the sampled entropies fails its check.
    out = tmp_path / "c.json"
    code = main([
        "dice-concentration", "--samples", "2000", "--interval", "0.1,0.2", "--out", str(out)
    ])
    assert code == 1
    raw = json.loads(out.read_text())
    assert not all(c["passed"] for c in raw["checks"])


@pytest.mark.parametrize("argv, code", [(["dice"], 0), (["gsm", "--samples", "1000"], 1)])
def test_wall_clock_is_one_line_after_the_checks(argv, code, capsys, tmp_path):
    # The CLI times the run itself: one line per check, then one wall-clock line.
    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == code
    lines = capsys.readouterr().err.splitlines()
    checks = json.loads(out.read_text())["checks"]
    assert len(lines) == len(checks) + 1
    assert [line[:6] for line in lines[:-1]] == ["PASS  " if c["passed"] else "FAIL  " for c in checks]
    assert re.fullmatch(r"wall-clock: \d+\.\d\ds", lines[-1])


def test_solver_failure_exits_3_on_one_line(capsys, tmp_path, monkeypatch):
    # The damped solve reaches this target in a few dozen steps; a budget of
    # one step leaves it short, and 0.006 inside the hull no certificate fires.
    monkeypatch.setattr(tilting, "MAX_NEWTON_ITERS", 1)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "experiment": "theorem1",
        "baseline": {"kind": "masses", "values": [1e-50, 0.5, 0.5]},
        "constraint": {"kind": "equality", "h": [[1, 1], [2, 4], [3, 9]], "target": [1.51, 2.55]},
    }))
    assert main(["theorem1", "--config", str(config_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: moment solve did not reach residual")
    assert captured.err.count("\n") == 1
    # The coordinates x and x^2 are independent; the tiny baseline mass is the cause.
    assert "linearly dependent" not in captured.err
    assert "smallest baseline mass (1.000e-50)" in captured.err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cf_check_without_samples_exits_2_on_one_line(samples, capsys):
    assert main(["cf-check", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: samples must be >= 1, got {samples}\n"


@pytest.mark.parametrize("argv", [["theorem1", "--m", "20", "--n-grid", "20"], ["windows", "--m", "20"]])
def test_word_cap_exits_2_on_one_line(argv, capsys):
    # k^m = 2^20 words for the default coin: refused before any block law is built.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k^m = 1048576 words exceeds the cap of 1000000\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gsm", "--block", "0"], "gsm needs n >= 2 and 1 <= block <= n, got n=200, block=0"),
        (["gsm", "--n", "1"], "gsm needs n >= 2 and 1 <= block <= n, got n=1, block=5"),
        (["gsm", "--epsilon", "0"], "gsm epsilon must be > 0, got 0.0"),
        (["gsm", "--targets", "0,-1"], "gsm target variance must be > 0, got -1.0"),
        (["theorem1", "--m", "0"], "block length m must be >= 1, got 0"),
        (["windows", "--n-grid", "0"], "n grid entries must be >= 1, got 0"),
        (["theorem1", "--m", "3", "--n-grid", "2"], "block length m=3 exceeds the smallest grid size n=2"),
        (["dice-concentration", "--big-n", "0"], "type size N must be >= 1, got 0"),
        (["dice-concentration", "--interval", "2,1"], "interval needs lo < hi, got (2.0, 1.0)"),
        (["cf-check", "--t-grid", "nan"], "t grid entries must be finite, got (nan,)"),
        (["gsm", "--targets", "nan,1"], "gsm targets and epsilon must be finite, got (nan, 1.0) and 0.1"),
        (["gsm", "--targets", "0,inf"], "gsm targets and epsilon must be finite, got (0.0, inf) and 0.1"),
        (["dice-concentration", "--interval", "1,2,3"], "interval needs two values, got (1.0, 2.0, 3.0)"),
        (["gsm", "--targets", "1"], "gsm_targets needs two values, got (1.0,)"),
    ],
)
def test_out_of_range_flags_exit_2_as_config_errors(argv, message, capsys, monkeypatch):
    # The config builder rejects these, so no experiment starts.
    def fail(config):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr("tiltlab.cli.run_experiment", fail)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["windows", "--samples", "10"], None, "samples must be >= 1000, got 10"),
        (["windows", "--gamma", "0.7"], None, "exponent must lie in (0, 0.5) so that n*eps^2 diverges, got 0.7"),
        (["windows", "--amplitude", "0"], None, "amplitude must be > 0, got 0.0"),
        (["windows", "--amplitude", "2", "--n-grid", "16"], None, "window (-0.25, 1.75) must sit strictly inside the value range (0.0, 1.0)"),
        (["bernoulli", "--baseline-p", "0"], None, "baseline law must be strictly positive"),
        (["bernoulli", "--baseline-p", "1.5"], None, "negative mass entry: min = -0.5"),
        (["bernoulli", "--baseline-p", "nan"], None, "masses must be finite"),
        (["dice"], {"baseline": {"kind": "uniform"}}, "baseline spec has no 'k' entry"),
        (["dice"], {"baseline": {}}, "unknown baseline kind None"),
        (["dice"], {"baseline": {"kind": "uniform", "k": "six"}}, "uniform baseline needs an integer k, got 'six'"),
        (["dice-concentration"], {"baseline": {"kind": "masses", "values": [0, 0.5, 0.5]}}, "baseline law must be strictly positive"),
        (["theorem1"], {"constraint": {"kind": "foo", "target": 0.75}}, "unknown constraint kind 'foo'"),
        (["theorem1"], {"constraint": {"kind": "equality"}}, "constraint spec has no 'target' entry"),
        (["theorem1"], {"constraint": {"kind": "equality", "target": None}}, "target must be finite, got [nan]"),
        (
            ["theorem1"],
            {"constraint": {"kind": "equality", "h": [1, 1], "target": 1}},
            "constant moment coordinate: the moment map would be degenerate",
        ),
        (["windows"], {"constraint": {"kind": "halfspace", "target": 0.75}}, "windows condition on equality windows, got constraint kind 'halfspace'"),
        (
            ["windows"],
            {"constraint": {"kind": "equality", "target": 0.75, "epsilon": 0.1}},
            "windows take each window's half-width from the schedule, not from the constraint's epsilon",
        ),
        (["windows"], {"constraint": {"kind": "equality", "h": [[0, 1], [1, 0]], "target": 0.75}}, "windows are one-dimensional"),
        (["windows"], {"constraint": {"kind": "equality", "h": [[0, 1], [1, 0]], "target": [0.75, 0.25]}}, "windows are one-dimensional"),
        (["dice"], {"baseline": {"kind": "uniform", "k": 6.9}}, "uniform baseline needs an integer k, got 6.9"),
        (["dice"], {"baseline": {"kind": "uniform", "k": True}}, "uniform baseline needs an integer k, got True"),
        (
            ["theorem1"],
            {"constraint": {"kind": "halfspace", "target": 0.75, "epsilon": 0.1}},
            "a halfspace takes no window: epsilon applies to equality targets only",
        ),
        (["dice"], {"constraint": {"target": 3.0}}, "constraint needs a kind"),
        (["windows"], {"constraint": {"target": 0.75}}, "constraint needs a kind"),
    ],
)
def test_library_level_inputs_exit_2_as_config_errors(argv, config, message, capsys, tmp_path):
    # Each config is valid field by field; the runner's input boundary
    # refuses it before any work, with the library's message.
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"experiment": argv[0], **config}))
        argv = [*argv, "--config", str(config_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    with pytest.raises(ConfigError) as exc:
        run_experiment(_config_from_args(parse_args(argv)))
    assert str(exc.value) == message


@pytest.mark.parametrize("tail_mass", [1e-17, 1e-300])
def test_head_mass_that_rounds_to_one_exits_2_on_one_line(tail_mass, capsys, tmp_path):
    # The law is strictly positive, but its second mass is 1.0 in floating
    # point.  No proposal lands in the window: a typed error, not a crash.
    config = {
        "experiment": "windows",
        "baseline": {"kind": "masses", "values": [tail_mass, 1]},
        "constraint": {"kind": "equality", "target": 1.5},
        "method": "rejection",
        "samples": 2000,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = ["windows", "--config", str(config_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 0 of 2000 proposals met the constraint")
    assert captured.err.count("\n") == 1
    with pytest.raises(LowEffectiveSampleError):
        run_experiment(_config_from_args(parse_args(argv)))


def test_internal_value_error_is_not_a_config_error(monkeypatch):
    # A fault inside a run must show as a traceback, not as exit 2.
    def fault(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr("tiltlab.experiments.convergence_sweep", fault)
    with pytest.raises(ValueError, match="internal"):
        main(["theorem1"])


def test_config_errors_are_the_library_typed_classes():
    # Bare ValueError or RuntimeError in this tuple would print any internal
    # fault as a configuration error.
    assert [cls.__name__ for cls in cli._CONFIG_ERRORS] == [
        "ConfigError", "InfeasibleConstraintError", "EnumerationCapError", "LowEffectiveSampleError",
    ]
    for cls in cli._CONFIG_ERRORS:
        assert cls.__module__.startswith("tiltlab."), cls
        assert cls not in (ValueError, RuntimeError, TypeError, Exception)


@pytest.mark.parametrize(
    "contents, message",
    [
        (None, "cannot read config file {0}: [Errno 2] No such file or directory: '{0}'"),
        ("{not json", "cannot read config file {0}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[1, 2]", "cannot read config file {0}: cannot convert dictionary update sequence element #0 to a sequence"),
    ],
)
def test_unreadable_config_file_exits_2(contents, message, capsys, tmp_path):
    config_path = tmp_path / "config.json"
    if contents is not None:
        config_path.write_text(contents)
    assert main(["dice", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(config_path)}\n"


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_exits_2_on_one_line(where, capsys, tmp_path):
    # Exit 1 means a check failed; a report that cannot be written is a
    # bad --out, like an unreadable --config.
    out = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
    assert main(["dice", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report to {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "constraint, n_grid, size",
    [
        ({"kind": "equality", "target": 4.5}, [5, 6], 5),
        ({"kind": "equality", "h": [[1, 0], [2, 1], [3, 0], [4, 1], [5, 0], [6, 1]], "target": [4.5, 0.5]}, [3, 6], 3),
    ],
    ids=["mean", "mean-and-even"],
)
def test_grid_size_with_no_feasible_type_exits_2(constraint, n_grid, size, capsys, tmp_path):
    # No die type of that size has the target means, so growth prunes every
    # type of it: a typed error naming the smallest feasible size.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "experiment": "theorem1",
        "baseline": {"kind": "uniform", "k": 6},
        "constraint": constraint,
        "n_grid": n_grid,
    }))
    assert main(["theorem1", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no type of size {size} satisfies the constraint; smallest feasible size is n = 2\n"


@pytest.mark.parametrize("experiment", ["dice", "theorem1"])
def test_target_just_past_a_slanted_face_exits_2(experiment, capsys, tmp_path):
    # (0.5 + 1e-8)(1, 1) is outside the triangle's face x + y = 1 but inside
    # both coordinate ranges: a feasibility error, not a solver failure.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "experiment": experiment,
        "baseline": {"kind": "uniform", "k": 3},
        "constraint": {"kind": "equality", "h": [[0, 0], [1, 0], [0, 1]], "target": [0.50000001, 0.50000001]},
    }))
    assert main([experiment, "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "convex hull" in captured.err


def test_cli_surface_per_subcommand():
    # Flags in --help order; each destination is a config field or one of
    # the flags that edit the baseline and constraint specs.
    common = ["--config", "--seed", "--samples", "--format", "--out"]
    expected = {
        "dice": common + ["--target"],
        "dice-concentration": common + ["--big-n", "--interval"],
        "bernoulli": common + ["--baseline-p", "--target", "--n-grid", "--m"],
        "theorem1": common + ["--baseline-p", "--target", "--kind", "--n-grid", "--m"],
        "windows": common + ["--baseline-p", "--target", "--n-grid", "--m", "--method", "--gamma", "--amplitude"],
        "gsm": common + ["--targets", "--epsilon", "--n", "--block"],
        "cf-check": common + ["--t-grid"],
    }
    assert list(cli._COMMANDS) == list(expected)
    dests = {f.name for f in fields(ExperimentConfig)} | {"config", "baseline_p", "target", "kind"}
    for name, (_, flags) in cli._COMMANDS.items():
        assert list(flags) == expected[name], name
        assert {cli._FLAGS[flag][0] for flag in flags} <= dests, name


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["windows", "--seed", "3", "--gamma", "0.3"], ["windows", "--seed=3", "--gamma=0.3"]),
        (
            ["windows", "--seed", "1", "--seed", "3", "--n-grid", "9", "--n-grid", "20:40:10"],
            ["windows", "--seed", "3", "--n-grid", "20,30,40"],
        ),
        (["dice", "--out", "a=b"], ["dice", "--out=a=b"]),
    ],
)
def test_flag_forms_give_the_same_config(argv, expected):
    # "--flag value" and "--flag=value" read alike, and a repeated flag
    # keeps its last value.
    assert _config_from_args(parse_args(argv)) == _config_from_args(parse_args(expected))


def test_negative_number_is_a_flag_value():
    assert parse_args(["dice", "--target", "-0.5"]).target == -0.5
    assert _config_from_args(parse_args(["bernoulli", "--target", "-1e-3"])).constraint["target"] == -1e-3


@pytest.mark.parametrize(
    "argv, token",
    [
        ([], "got ''"),
        (["siege"], "'siege'"),
        (["dice", "--threads", "2"], "'--threads'"),
        (["dice", "--threads=2"], "'--threads=2'"),
        (["dice", "--samp", "5"], "'--samp'"),
        (["windows", "--meth", "rejection"], "'--meth'"),
        (["dice", "4.5"], "'4.5'"),
        (["dice", "--gamma", "0.3"], "'--gamma'"),
        (["dice", "--seed"], "--seed"),
        (["dice", "--seed", "--samples", "5"], "--seed"),
        (["dice", "--seed", "x"], "'x'"),
        (["dice", "--seed=x"], "'x'"),
        (["dice", "--seed="], "''"),
        (["bernoulli", "--n-grid", "1:2:3:4"], "'1:2:3:4'"),
        (["bernoulli", "--n-grid", "1:9:0"], "'1:9:0'"),
        (["gsm", "--targets", "0,x"], "'0,x'"),
    ],
)
def test_usage_errors_exit_2_on_one_stderr_line(argv, token, capsys, monkeypatch):
    def fail(config):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr("tiltlab.cli.run_experiment", fail)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    prog = "tiltlab " + argv[0] if argv and argv[0] in cli._COMMANDS else "tiltlab"
    assert captured.err.startswith(f"{prog}: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert token in captured.err


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], *([name, "--help"] for name in cli._COMMANDS), ["gsm", "--n", "9", "-h"]]
)
def test_help_exits_0_and_lists_every_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    names = list(cli._COMMANDS) if argv[0] in ("-h", "--help") else [argv[0]]
    for name in names:
        summary, flags = cli._COMMANDS[name]
        section = captured.out.split(f"\n{name}: {summary}\n")[1].split("\n\n")[0]
        assert [line.split()[0] for line in section.splitlines()] == list(flags)
        assert all(cli._FLAGS[flag][2] in section for flag in flags)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["dice", "--format", "xml"], {"format": "xml"}),
        (["windows", "--method", "x"], {"method": "x"}),
        (["theorem1", "--kind", "x"], {"constraint": {"kind": "x", "target": 0.75}}),
    ],
)
def test_choice_flags_and_config_keys_fail_alike(argv, config, capsys, tmp_path):
    # The config's check owns the allowed values: one error for each outcome.
    assert main(argv) == 2
    from_flag = capsys.readouterr()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment": argv[0], **config}))
    assert main([argv[0], "--config", str(config_path)]) == 2
    from_file = capsys.readouterr()
    assert from_flag.out == from_file.out == ""
    assert from_flag.err == from_file.err
    assert from_flag.err.startswith("error: ") and from_flag.err.count("\n") == 1


def test_threads_flag_and_config_key_are_rejected(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["dice", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment": "dice", "threads": 0}))
    assert main(["dice", "--config", str(config_path)]) == 2
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["exact-die-mean", "exact-die-2d"])
def test_exact_workloads_match_benchmark_reference_tables(workload, tmp_path):
    # The benchmark's exact correctness gate, run in the suite.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    config_path = perfbench / "workloads" / f"{workload}.json"
    out = tmp_path / "report.json"
    assert main([json.loads(config_path.read_text())["experiment"], "--config", str(config_path), "--out", str(out)]) == 0
    tables = json.loads(out.read_text())["tables"]
    reference = json.loads((perfbench / "reference" / f"{workload}.json").read_text())["tables"]
    assert sorted(tables) == sorted(reference)
    for name, ref in reference.items():
        assert tables[name]["columns"] == ref["columns"]
        np.testing.assert_allclose(tables[name]["rows"], ref["rows"], rtol=0, atol=1e-12)


# ----------------------------- scipy.stats-, optimize- and jsonschema-free


@pytest.mark.parametrize("k", range(2, 13))
def test_chi2_quantile_equals_scipy(k):
    assert _chi2_quantile(0.95, k - 1) == stats.chi2.ppf(0.95, k - 1)


def test_cli_never_imports_argparse_gettext_locale_scipy_stats_integrate_optimize_or_jsonschema(tmp_path):
    # A fresh interpreter: this test process has imported scipy.stats,
    # scipy.optimize, jsonschema and argparse itself.  The runs cover the
    # sampler (gsm, dice-concentration), the scalar solve (dice) and the d = 2
    # solve with its hull test (theorem1 on the exact-die-2d workload's config).
    #
    # Importing the CLI loads no scipy module and none of argparse, gettext
    # and locale, and the runs other than dice-concentration, the one that
    # needs scipy.special, first-import no numpy, scipy or tiltlab module and
    # none of those three: the set-up loads what they use.  It runs last, so
    # that what it loads hides nothing; scipy itself imports argparse (through
    # numpy.testing and unittest).
    configs = {
        "gsm": {"experiment": "gsm"},
        "dice": {"experiment": "dice"},
        "theorem1": {
            "experiment": "theorem1",
            "baseline": {"kind": "uniform", "k": 6},
            "constraint": {"kind": "equality", "h": [[1, 0], [2, 1], [3, 0], [4, 1], [5, 0], [6, 1]], "target": [4.5, 0.5]},
            "n_grid": [6, 12, 18, 24],
            "m": 3,
        },
        "bernoulli": {"experiment": "bernoulli"},
        "windows": {"experiment": "windows"},
        "cf-check": {"experiment": "cf-check"},
        "dice-concentration": {"experiment": "dice-concentration", "samples": 20000},
    }
    exempt = ("dice-concentration",)
    script = """
import json, sys
import tiltlab.cli

def loaded():
    return [m for m in ("scipy.stats", "scipy.integrate", "scipy.optimize", "jsonschema") if m in sys.modules]

def ours(names):
    tops = ("numpy", "scipy", "tiltlab", "argparse", "gettext", "locale")
    return sorted(m for m in names if m.partition(".")[0] in tops)

seen = {"import": [0, loaded(), [m for m in ours(sys.modules) if not m.startswith(("numpy", "tiltlab"))]]}
for name, config_path, out in json.loads(sys.argv[1]):
    before = set(sys.modules)
    rc = tiltlab.cli.main([json.load(open(config_path))["experiment"], "--config", config_path, "--out", out])
    seen[name] = [rc, loaded(), ours(set(sys.modules) - before)]
print(json.dumps(seen))
"""
    workloads = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "workloads").glob("*.json"))
    assert len(workloads) == 4
    runs = []
    for name, config in configs.items():
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config))
        runs.append([name, str(config_path), str(tmp_path / f"{name}.out.json")])
    runs[-len(exempt):-len(exempt)] = [[w.stem, str(w), str(tmp_path / f"{w.stem}.out.json")] for w in workloads]
    src = str(Path(tiltlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    seen = json.loads(result.stdout.splitlines()[-1])
    for name in exempt:
        seen[name] = seen[name][:2]
    assert seen == {
        "import": [0, [], []],
        **{name: [0, [], []] for name, *_ in runs if name not in exempt},
        **{name: [0, []] for name in exempt},
    }
