"""End-to-end command-line tests: output formats, exit codes, determinism.

Every test drives ``cli.main`` exactly as a shell user would, with ``--out``
pointed at a temp file, and parses the emitted JSON/CSV back.
"""

import argparse
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fso_secrecy import channel, cli, montecarlo, optimize, secrecy
from fso_secrecy.cli import ConfigError, scenario_from_dict
from fso_secrecy.secrecy import RatePair, SecrecyConstraint
from fso_secrecy.specfun import ConvergenceError

SRC = Path(__file__).resolve().parent.parent / "src"
HEADER = "axis,value,value2,est_closed,est_mc,ci,sop,reliability_outage,constraint_met"


def run_cli(tmp_path, *argv, name="out.txt"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def read_rows(text):
    rows = list(csv.DictReader(text.splitlines()))
    return rows


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_scenario_from_dict_routes_nested_and_flat():
    sc = scenario_from_dict(
        {"nodes": {"n_e": 4}, "geometry": {"cn2": 2e-14}, "sigma_s": 1.5, "gamma0": 1e4}
    )
    assert sc.nodes.n_e == 4
    assert sc.nodes.gamma0 == 1e4
    assert sc.geometry.cn2 == 2e-14
    assert sc.sigma_s == 1.5


def test_scenario_from_dict_field_errors():
    with pytest.raises(ConfigError, match="nodes.n_q: unknown field"):
        scenario_from_dict({"nodes": {"n_q": 4}})
    with pytest.raises(ConfigError, match="nodes.n_e: expected a number"):
        scenario_from_dict({"nodes": {"n_e": "two"}})
    with pytest.raises(ConfigError, match="turbo: unknown field"):
        scenario_from_dict({"turbo": 1})
    with pytest.raises(ConfigError, match="geometry: expected an object"):
        scenario_from_dict({"geometry": 5})
    with pytest.raises(ConfigError):
        scenario_from_dict({"sigma_s": True})
    with pytest.raises(ConfigError):
        scenario_from_dict([])


def test_malformed_config_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["params", "--config", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"nodes": {"n_zz": 3}}', encoding="utf-8")
    assert cli.main(["params", "--config", str(unknown)]) == 1
    assert "n_zz" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("doc", "argv", "message"),
    [
        # no file is written: --config names a path that does not exist
        (None, ["params"], "error: config: [Errno 2] No such file or directory: '{path}'"),
        ("{}", ["sweep", "--axis", "r_e", "--min", "0", "--max", "1", "--steps", "-1"],
         "error: steps: must be non-negative"),
        ('{"epsilon": -1}', ["params"], "error: ScenarioConfig.epsilon must be non-negative"),
        ('{"omega_adj": 0}', ["params"],
         "error: ScenarioConfig.omega_adj must be strictly positive"),
    ],
)
def test_config_and_step_count_errors_exit_1_with_one_line(tmp_path, capsys, doc, argv, message):
    cfg = tmp_path / "config.json"
    if doc is not None:
        cfg.write_text(doc, encoding="utf-8")
    assert cli.main([*argv, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(path=cfg) + "\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["sweep", "--axis", "n", "--min", "1", "--max", "2", "--steps", "two"],
         "error: argument --steps: invalid int value: 'two'"),
        # argparse reads -inf as an option, so --min has no value
        (["sweep", "--axis", "sigma_s", "--min", "-inf", "--max", "1", "--steps", "2"],
         "error: argument --min: expected one argument"),
        (["sweep", "--axis", "r_e", "--min", "0", "--max", "1"],
         "error: the following arguments are required: --steps"),
        (["sweep", "--axis", "phase", "--min", "0", "--max", "1", "--steps", "2"],
         "error: argument --axis: invalid choice"),
        (["optimize", "--sceme", "fixed"], "error: unrecognized arguments: --sceme fixed"),
        (["plot"], "error: argument command: invalid choice"),
        ([], "error: the following arguments are required: command"),
    ],
)
def test_command_line_usage_errors_exit_1_with_one_line(capsys, argv, message):
    # a malformed command line is a configuration error, not argparse's
    # usage text and exit 2, which reads as a solver failure
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: fso-secrecy" in capsys.readouterr().out


def test_flag_validation_exits_1(tmp_path, capsys):
    assert cli.main(["optimize", "--sth", "0"]) == 1
    assert "sth" in capsys.readouterr().err
    assert cli.main(["validate", "--trials", "0"]) == 1
    assert "trials" in capsys.readouterr().err
    for flag, value in (("--stream-count", "0"), ("--jobs", "0"), ("--jobs", "-2")):
        assert cli.main(["validate", "--trials", "100", flag, value]) == 1
        assert capsys.readouterr().err == f"error: {flag[2:]}: must be at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["validate", "--jobs", "2"],
        ["optimize", "--scheme", "adaptive"],
        ["sweep", "--axis", "r_e", "--min", "1", "--max", "2", "--steps", "2", "--mc"],
    ],
)
def test_trials_past_numpy_array_sizes_exit_1_with_one_line(tmp_path, capsys, argv):
    # 1e20 trials: numpy refuses the estimator's buffers before allocating
    # anything ("array is too big" or "Maximum allowed dimension exceeded").
    code, _ = run_cli(tmp_path, *argv, "--trials", str(10**20))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trials: too many to hold in memory (")
    assert err.count("\n") == 1


def test_trials_whose_buffers_fail_to_allocate_exit_1_with_one_line(tmp_path, capsys, monkeypatch):
    # The failure a count too large for the host's memory meets, without
    # asking the host for that memory.
    def refuse(shape, dtype=float):
        raise MemoryError(f"Unable to allocate 4.55 TiB for an array with shape {shape}")

    monkeypatch.setattr(montecarlo.np, "empty", refuse)
    code, _ = run_cli(tmp_path, "validate", "--trials", "20000")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trials: too many to hold in memory (Unable to allocate 4.55 TiB")
    assert err.count("\n") == 1


# Each subcommand's flags besides --help, as its handler reads them.
_SUBCOMMAND_FLAGS = {
    "params": {"config", "out"},
    "validate": {"config", "out", "trials", "seed", "stream_count", "jobs"},
    "optimize": {"config", "out", "trials", "seed", "stream_count", "jobs", "scheme", "sth", "cb"},
    "sweep": {
        "config", "out", "trials", "seed", "stream_count", "jobs", "scheme", "sth", "cb",
        "axis", "min", "max", "steps", "re", "rb", "mc",
    },
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (subparsers,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        name: {action.dest for action in parser._actions if action.dest != "help"}
        for name, parser in subparsers.choices.items()
    }
    assert flags == _SUBCOMMAND_FLAGS
    assert sum(map(len, flags.values())) == 33


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--trials", "100"],
        ["params", "--seed", "1"],
        ["params", "--stream-count", "4"],
        ["params", "--jobs", "2"],
        ["params", "--scheme", "adaptive"],
        ["params", "--sth", "0.2"],
        ["params", "--cb", "3"],
        ["validate", "--trials", "100", "--scheme", "adaptive"],
        ["validate", "--trials", "100", "--sth", "0.2"],
        ["validate", "--trials", "100", "--cb", "3"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_a_flag_its_subcommand_does_not_read_exits_1(capsys, argv):
    # These flags were taken and ignored: validate --sth 0.2 printed the
    # report of validate, whose est_fixed check runs at s_th 1.
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--trials", "100", "--seed", "-5"],
        ["optimize", "--scheme", "adaptive", "--trials", "100", "--seed", "-5"],
        ["sweep", "--axis", "s_th", "--min", "0.2", "--max", "0.4", "--steps", "3", "--mc",
         "--trials", "100", "--seed", "-3"],
    ],
    ids=["validate", "optimize_mc", "sweep_mc"],
)
def test_negative_seed_exits_1_with_one_line(capsys, argv):
    # numpy's SeedSequence rejects a negative seed with a traceback
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed: must be non-negative\n"


def test_undefined_gamma_surrogate_exits_1(tmp_path, capsys):
    # epsilon 0.5 closes the surrogate's moment bracket for the default links
    cfg = tmp_path / "eps.json"
    cfg.write_text('{"epsilon": 0.5}', encoding="utf-8")
    for command in ("params", "optimize"):
        assert cli.main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma surrogate undefined")
        assert err.count("\n") == 1


def test_sweep_into_undefined_gamma_surrogate_exits_1(tmp_path, capsys):
    # epsilon 0.24 is valid for the default two-aperture eavesdropper but not
    # for the three apertures that the aperture-count axis asks for
    cfg = tmp_path / "eps.json"
    cfg.write_text('{"epsilon": 0.24}', encoding="utf-8")
    code, _ = run_cli(
        tmp_path, "sweep", "--config", str(cfg), "--axis", "n", "--min", "3", "--max", "3",
        "--steps", "1",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gamma surrogate undefined")
    assert err.count("\n") == 1


def test_sweep_prints_the_rows_before_a_rejected_scenario(tmp_path, capsys):
    # The aperture-count axis solves its rows as one batch, up to the first
    # scenario the link model rejects (n = 3 at epsilon 0.24): the rows
    # before it reach stdout, then its one-line error.
    cfg = tmp_path / "eps.json"
    cfg.write_text('{"epsilon": 0.24}', encoding="utf-8")
    axis = ["sweep", "--config", str(cfg), "--axis", "n", "--min", "1", "--sth", "0.4"]
    assert cli.main([*axis, "--max", "2", "--steps", "2"]) == 0
    valid = capsys.readouterr().out
    assert len(valid.splitlines()) == 3
    assert cli.main([*axis, "--max", "6", "--steps", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == valid
    assert err.startswith("error: gamma surrogate undefined") and err.count("\n") == 1


@pytest.mark.parametrize("scheme", ["adaptive", "fixed"])
@pytest.mark.parametrize(
    "axis, failing",
    [("n", lambda sc: sc.nodes.n_a == 3), ("sigma_s", lambda sc: sc.sigma_s == 3.0)],
)
def test_sweep_prints_the_rows_before_a_row_the_solver_fails(
    capsys, monkeypatch, scheme, axis, failing
):
    # The optimum axes solve their rows as one batch.  Where a later row's
    # threshold fails (the third row here), the rows before it still reach
    # stdout, then its one-line solver error, as when each row was solved
    # and written in turn.
    argv = ["sweep", "--axis", axis, "--min", "1", "--scheme", scheme, "--cb", "4", "--sth", "0.4"]
    assert cli.main([*argv, "--max", "2", "--steps", "2"]) == 0
    valid = capsys.readouterr().out
    assert len(valid.splitlines()) == 3
    threshold = optimize._re_threshold

    def walk(sc, s_th):
        if failing(sc):
            raise ConvergenceError("no rate meets the ceiling in this row")
        return (yield from threshold(sc, s_th))

    walk.__name__ = threshold.__name__
    monkeypatch.setattr(optimize, "_re_threshold", walk)
    optimize._MEMO.clear()
    assert cli.main([*argv, "--max", "4", "--steps", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == valid
    assert err == "solver error: no rate meets the ceiling in this row\n"


def test_sweep_prints_the_rows_before_a_failing_codeword_rate(capsys, monkeypatch):
    # The fixed optima solve their binding rows' codeword rates as one
    # batch; at --sth 0.4 all four rows bind.  Where the third row's solve
    # fails, the batch hands that row its error, which the row raises, so
    # the rows before it reach stdout, then the error.
    argv = ["sweep", "--axis", "n", "--min", "1", "--scheme", "fixed", "--sth", "0.4"]
    assert cli.main([*argv, "--max", "2", "--steps", "2"]) == 0
    valid = capsys.readouterr().out
    assert len(valid.splitlines()) == 3
    codeword_rate = optimize._fixed_constrained_rb
    seen = []

    def walk(sc, r_e):
        seen.append((sc, r_e))
        if list(dict.fromkeys(seen)).index((sc, r_e)) == 2:
            raise ConvergenceError("no codeword rate in this row")
        return (yield from codeword_rate(sc, r_e))

    walk.__name__ = codeword_rate.__name__
    monkeypatch.setattr(optimize, "_fixed_constrained_rb", walk)
    optimize._MEMO.clear()
    assert cli.main([*argv, "--max", "4", "--steps", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == valid
    assert err == "solver error: no codeword rate in this row\n"
    # The batch solves each row's key once, the failing one included.
    keys = list(dict.fromkeys(seen))
    assert [sc.nodes.n_a for sc, _ in keys] == [1, 2, 3, 4]
    assert seen == keys


def test_optimum_sweep_writes_each_run_before_the_next_is_drawn(monkeypatch):
    # Each row of the n axis is a run of its own scenario.  A run's rows are
    # written once its columns are formed, so each Monte-Carlo estimate is
    # drawn after the rows before it are out, and a terminal shows each row
    # as soon as its run is drawn.
    argv = ["sweep", "--axis", "n", "--min", "1", "--max", "3", "--steps", "3",
            "--scheme", "adaptive", "--cb", "4", "--sth", "0.4", "--mc", "--trials", "2000"]
    out = io.StringIO()
    estimate_est = montecarlo.estimate_est
    written = []

    def spy(*args, **kwargs):
        written.append(len(out.getvalue().splitlines()))
        return estimate_est(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "estimate_est", spy)
    args = cli._build_parser().parse_args(argv)
    assert cli.cmd_sweep(channel.baseline_scenario(), args, out) == 0
    assert written == [1, 2, 3]
    assert len(out.getvalue().splitlines()) == 4


_TINY_GAIN_COMMANDS = (
    ("optimize", "--scheme", "adaptive", "--cb", "4", "--sth", "0.4"),
    ("optimize", "--scheme", "fixed", "--sth", "0.4"),
    ("validate", "--trials", "2000"),
)


@pytest.mark.parametrize("gamma0", ["1e-306", "1e-320", "5e-324"])
def test_subnormal_link_gain_exits_1(tmp_path, capsys, gamma0):
    # gamma0 * n_rx * a0 is subnormal (or 0) here: the surrogate thresholds
    # overflowed, which gave numpy warnings and an outage of 0 or NaN, or
    # "float division by zero" with exit 2.
    cfg = tmp_path / "gain.json"
    cfg.write_text(f'{{"gamma0": {gamma0}}}', encoding="utf-8")
    for argv in _TINY_GAIN_COMMANDS:
        code, _ = run_cli(tmp_path, *argv, "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: link gain gamma0 * n_rx * a0 = ")
        assert err.count("\n") == 1


def test_infinite_link_gain_exits_1(tmp_path, capsys):
    # gamma0 * a0 * n_e passes the double range at n_e = 1000: Eve's gain
    # read inf, her surrogate outage 1 at every rate, and the run exited 2
    # with a false "below the achievable outage floor".  At the baseline n_e
    # the same gamma0 runs (test_optimize_at_the_largest_gamma0_meets_the_ceiling).
    cfg = tmp_path / "gain.json"
    cfg.write_text('{"gamma0": 1e308, "n_e": 1000}', encoding="utf-8")
    code, _ = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "fixed", "--sth", "0.4"
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: link gain gamma0 * n_rx * a0 = inf is above the largest float 1.8e+308\n"
    )


def test_smallest_normal_link_gains_run(tmp_path, capsys):
    cfg = tmp_path / "gain.json"
    cfg.write_text('{"gamma0": 1e-300}', encoding="utf-8")
    for argv in _TINY_GAIN_COMMANDS:
        code, _ = run_cli(tmp_path, *argv, "--config", str(cfg))
        assert code == 0
        assert capsys.readouterr().err == ""


def test_a_derived_scenario_past_the_gain_range_exits_1_after_its_rows(tmp_path, capsys):
    # The n axis and validate build their scenarios with dataclasses.replace;
    # a gain check in the scenario's constructor raised from there, a
    # traceback.  Through the link derivation each is a config error.
    cfg = tmp_path / "gain.json"
    cfg.write_text('{"gamma0": 1e308}', encoding="utf-8")
    argv = ["sweep", "--axis", "n", "--min", "1", "--max", "1000", "--steps", "2",
            "--scheme", "fixed", "--config", str(cfg)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == HEADER
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["n", "1"]]
    assert err == "error: link gain gamma0 * n_rx * a0 = inf is above the largest float 1.8e+308\n"

    # Bob's gain on validate's n = 1 scenario is 6.39e-309.
    cfg.write_text('{"gamma0": 2e-306, "n_a": 4, "n_b": 4, "n_e": 4}', encoding="utf-8")
    assert cli.main(["validate", "--trials", "1000", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == (
        "",
        "error: link gain gamma0 * n_rx * a0 = 6.39e-309 is below the smallest normal float"
        " 2.23e-308\n",
    )


def test_a_sigma_s_row_the_link_model_rejects_exits_1_after_the_rows_before_it(capsys):
    # xi = omega_e / (2 sigma_s) underflows to 0 at sigma_s 1.7e308, which
    # pointing_params rejects by the field's name.  The sigma_s axis built
    # its scenarios without deriving their links, so the surrogate's
    # ValueError ended in a traceback.
    argv = ["sweep", "--axis", "sigma_s", "--min", "1", "--max", "1.7e308", "--steps", "2",
            "--scheme", "fixed"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["sigma_s", "1"]]
    assert err == "error: sigma_s must leave omega_e / (2 sigma_s) above 0, got 1.7e+308\n"


_A0_OUT_OF_RANGE = "error: PointingParams.a0 must lie in (0, 1)"
_RYTOV_OUT_OF_RANGE = "error: Rytov variance inf out of the model's validity range"


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        # the link distances are d_b and d_e; this field was read by nothing
        ('{"link_distance_m": 5000}', "error: link_distance_m: unknown field"),
        # exp(-nu**2) underflowed to 0 in omega_e: ZeroDivisionError
        ('{"aperture_radius_rho": 100}', _A0_OUT_OF_RANGE),
        ('{"beam_waist_wb": 1e-6}', _A0_OUT_OF_RANGE),
        # beam_waist_wb**2: OverflowError
        ('{"beam_waist_wb": 1e155, "gamma0": 1e300}',
         "error: PointingParams.omega_e must be finite"),
        # a power in the Rytov variance: OverflowError
        ('{"wavelength_m": 1e-300}', _RYTOV_OUT_OF_RANGE),
        ('{"d_b": 1e300}', _RYTOV_OUT_OF_RANGE),
        ('{"d_e": 1e300}', _RYTOV_OUT_OF_RANGE),
        # xi = omega_e / (2 sigma_s) underflows to 0
        ('{"sigma_s": 1.7976931348623157e308}',
         "error: sigma_s must leave omega_e / (2 sigma_s) above 0, got 1.7976931348623157e+308"),
        ('{"sigma_s": Infinity}',
         "error: sigma_s must leave omega_e / (2 sigma_s) above 0, got inf"),
        # "int too large to convert to float"
        pytest.param('{"n_b": %d}' % 10**400,
                     "error: NodeConfig.n_b must be an integer in [1, 1.8e+308]", id="n_b=10**400"),
    ],
)
def test_a_config_fault_while_loading_exits_1_with_its_cause(tmp_path, capsys, doc, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(doc, encoding="utf-8")
    for argv in (["params"], ["optimize", "--scheme", "fixed", "--sth", "0.3"]):
        assert cli.main([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", message + "\n")


def _schema_cases():
    """Tiny and huge values of each numeric config field, one document each,
    then the other documents that once ended in a traceback or a warning."""
    leaves = [
        f.name
        for cls in (channel.GeometryConfig, channel.NodeConfig, channel.ScenarioConfig)
        for f in dataclasses.fields(cls)
        if f.name not in ("geometry", "nodes")
    ]
    for name in leaves:
        if name in ("n_a", "n_b", "n_e"):
            values = {f"10**{k}": str(10**k) for k in (0, 300, 400)}
        else:
            values = {v: v for v in ("5e-324", "1e-300", "1e-160", "1e160", "1e300")}
            values["max"] = repr(sys.float_info.max)
        for label, v in values.items():
            yield pytest.param('{"%s": %s}' % (name, v), id=f"{name}={label}")
    # The surrogate density overflowed to inf with a warning.
    yield pytest.param('{"sigma_s": 1000}', id="sigma_s=1000")
    yield pytest.param('{"aperture_radius_rho": 100}', id="aperture_radius_rho=100")
    yield pytest.param('{"beam_waist_wb": 1e-6}', id="beam_waist_wb=1e-6")
    yield pytest.param('{"beam_waist_wb": 1e155, "gamma0": 1e300}', id="beam_waist_wb=1e155,gamma0=1e300")


@pytest.mark.parametrize("doc", list(_schema_cases()))
def test_every_config_the_schema_reads_ends_in_a_result_or_one_line(tmp_path, capsys, doc):
    # Any exception, RuntimeWarning included (pytest turns it into an
    # error), fails the run.
    cfg = tmp_path / "config.json"
    cfg.write_text(doc, encoding="utf-8")
    for argv in (["params"], ["optimize", "--scheme", "fixed", "--sth", "0.3"]):
        assert cli.main([*argv, "--config", str(cfg)]) in (0, 1, 2)
        assert capsys.readouterr().err.count("\n") <= 1


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def test_params_baseline(tmp_path):
    code, text = run_cli(tmp_path, "params")
    assert code == 0
    doc = json.loads(text)
    assert doc["eve"]["alpha"] == pytest.approx(6.126110647376661, rel=1e-12)
    assert doc["eve"]["beta_single"] == pytest.approx(5.55337674843494, rel=1e-12)
    assert doc["eve"]["a0"] == pytest.approx(0.0031946446312098383, rel=1e-12, abs=0)
    assert doc["eve"]["xi"] == pytest.approx(0.625523905950736, rel=1e-12, abs=0)
    assert doc["eve"]["beta_aggregate"] == pytest.approx(11.10675349686988, rel=1e-12)
    assert doc["bob"]["xi"] == "inf"  # aligned receiver sentinel
    assert doc["scenario"]["gamma0"] == 3967.6
    assert doc["scenario"]["n_a"] == 2
    assert text.endswith("\n")


def test_an_unwritable_out_path_exits_1(tmp_path, capsys):
    # The OSError of opening --out escaped as a traceback.
    out = tmp_path / "missing" / "params.json"
    assert cli.main(["params", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out: [Errno 2] No such file or directory")
    assert err.count("\n") == 1


def test_fmt_writes_non_finite_values_as_plain_words():
    values = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"), 0.1]
    assert [cli._fmt(x) for x in values] == ["nan", "inf", "-inf", "nan", "-inf", "0.1"]


def _csv_writer_line(axis, value, value2, row):
    """A sweep row as csv.writer writes it, each number through cli._fmt."""
    est_closed, est_mc, ci, sop_val, rel, met = row
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [
            axis,
            cli._fmt(value),
            "" if value2 is None else cli._fmt(value2),
            cli._fmt(est_closed),
            est_mc,
            ci,
            cli._fmt(sop_val),
            cli._fmt(rel),
            "true" if met else "false",
        ]
    )
    return buf.getvalue()


@pytest.mark.parametrize(
    "axis, value, value2, row",
    [
        ("s_th", 0.05, None, (0.1234567891234, "", "", 1e-300, 0.0, True)),
        ("n", 3.0, None, (math.nan, "nan", "inf", math.inf, -math.inf, False)),
        ("sigma_s", np.float64(2.25), None, (np.float64(-0.0), "0.5", "0.001", 5e-324, 1.0, True)),
        ("r_e", 1e-12, None, (np.float64("nan"), "", "", np.float32(0.1), np.float64(1e21), False)),
        ("r_e_x_r_b", 0.1, 6.0, (0.0, "", "", 0.999999999949, np.float64(-math.inf), np.bool_(1))),
        ("r_e_x_r_b", 5.9, np.float64(math.nan), (123456789012.0, "1e-05", "0", 1, 2, False)),
    ],
)
def test_sweep_line_equals_the_csv_writer_rendering(axis, value, value2, row):
    # One %-format string per row writes what csv.writer did with a _fmt call
    # per number: non-finite values, numpy floats, empty Monte-Carlo cells
    # and an empty value2 included.
    assert cli._sweep_line(axis, value, value2, row) == _csv_writer_line(axis, value, value2, row)


def test_params_pointing_free_sentinel(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sigma_s": 0.0}', encoding="utf-8")
    code, text = run_cli(tmp_path, "params", "--config", str(cfg))
    assert code == 0
    assert json.loads(text)["eve"]["xi"] == "inf"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_zero_steps_emits_header_only(tmp_path):
    code, text = run_cli(
        tmp_path, "sweep", "--axis", "r_e", "--min", "0", "--max", "4", "--steps", "0"
    )
    assert code == 0
    assert text == HEADER + "\n"


def test_sweep_zero_steps_with_monte_carlo_makes_no_draw(tmp_path, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a sweep with no rows drew the eavesdropper's channel")

    monkeypatch.setattr(montecarlo, "estimate_sop", draw)
    code, text = run_cli(
        tmp_path, "sweep", "--axis", "r_e", "--min", "0", "--max", "4", "--steps", "0", "--mc"
    )
    assert code == 0
    assert text == HEADER + "\n"


def test_sweep_fixed_scheme_pinned_codeword_rate(tmp_path, baseline):
    code, text = run_cli(
        tmp_path,
        "sweep",
        "--axis",
        "r_e",
        "--scheme",
        "fixed",
        "--rb",
        "3.4",
        "--min",
        "0.5",
        "--max",
        "2.5",
        "--steps",
        "5",
    )
    assert code == 0
    rows = read_rows(text)
    assert len(rows) == 5
    for row in rows:
        r_e = float(row["value"])
        want = secrecy.est_fixed(baseline, RatePair(3.4, r_e), SecrecyConstraint(1.0))
        assert float(row["est_closed"]) == pytest.approx(want, rel=1e-8)
        assert float(row["sop"]) == pytest.approx(secrecy.sop(baseline, r_e)[0], rel=1e-8)
        assert row["est_mc"] == "" and row["ci"] == ""
        assert row["constraint_met"] == "true"
        # locale-proof: every numeric field round-trips through float()
        float(row["reliability_outage"])


def test_sweep_adaptive_gated_plateau(tmp_path, baseline):
    s_th = 0.4
    code, text = run_cli(
        tmp_path,
        "sweep",
        "--axis",
        "r_e",
        "--scheme",
        "adaptive",
        "--cb",
        "4",
        "--sth",
        str(s_th),
        "--min",
        "0",
        "--max",
        "4",
        "--steps",
        "41",
    )
    assert code == 0
    rows = read_rows(text)
    positive = [i for i, row in enumerate(rows) if float(row["est_closed"]) > 0.0]
    # a single contiguous live region: zero plateau where the outage ceiling
    # is breached, then positive throughput until the rate hits the capacity
    assert positive
    assert positive == list(range(positive[0], positive[-1] + 1))
    assert positive[0] > 0
    assert positive[-1] < len(rows) - 1
    first_live = float(rows[positive[0]]["value"])
    assert first_live >= optimize.re_threshold(baseline, s_th) - 0.1 - 1e-9
    for i, row in enumerate(rows):
        met = row["constraint_met"] == "true"
        assert met == (float(row["sop"]) <= s_th)
        if i < positive[0]:
            assert float(row["est_closed"]) == 0.0


def test_sweep_adaptive_rate_rows_past_the_capacity(tmp_path, baseline):
    # past r_e = c_b there is no secrecy rate: est 0, and the sop column and
    # the gate both read the outage at the row's own r_e
    code, text = run_cli(
        tmp_path, "sweep", "--axis", "r_e", "--scheme", "adaptive", "--cb", "2", "--sth", "0.4",
        "--min", "1", "--max", "4", "--steps", "4",
    )
    assert code == 0
    rows = read_rows(text)
    assert [row["value"] for row in rows] == ["1", "2", "3", "4"]
    for row in rows:
        r_e = float(row["value"])
        s = secrecy.sop(baseline, r_e)[0]
        assert row["sop"] == cli._fmt(s)
        assert row["constraint_met"] == ("true" if s <= 0.4 else "false")
        if r_e >= 2.0:
            assert float(row["est_closed"]) == 0.0
    assert rows[-1]["constraint_met"] == "true"


def test_sweep_two_dimensional_interior_maximum(tmp_path):
    code, text = run_cli(
        tmp_path,
        "sweep",
        "--axis",
        "r_e_x_r_b",
        "--scheme",
        "fixed",
        "--min",
        "0.2",
        "--max",
        "5",
        "--steps",
        "25",
    )
    assert code == 0
    rows = read_rows(text)
    assert len(rows) == 25 * 25
    best = max(rows, key=lambda row: float(row["est_closed"]))
    spacing = (5.0 - 0.2) / 24
    assert abs(float(best["value"]) - 1.2558717) <= spacing
    assert abs(float(best["value2"]) - 3.3999996) <= spacing
    # the infeasible triangle is emitted as zero rows
    for row in rows:
        if float(row["value2"]) < float(row["value"]):
            assert float(row["est_closed"]) == 0.0
            assert row["constraint_met"] == "false"


def test_sweep_grid_computes_each_outage_once(tmp_path, monkeypatch):
    # the grid's secrecy outage depends only on r_e and its reliability
    # outage only on r_b: the first run makes one array call of the 4
    # distinct rates each, whatever the row count, and an identical second
    # run finds both in the outage memo and writes the same bytes
    calls = []

    def counted(name, outage):
        def call(sc, rates):
            calls.append((name, np.size(rates)))
            return outage(sc, rates)

        return call

    for name in ("sop", "reliability_outage"):
        monkeypatch.setattr(secrecy, name, counted(name, getattr(secrecy, name)))
    argv = [
        "sweep", "--axis", "r_e_x_r_b", "--min", "0.5", "--max", "3", "--steps", "4",
        "--scheme", "fixed", "--sth", "1.0",
    ]
    for name, want in (
        ("first.csv", [("reliability_outage", 4), ("sop", 4)]),
        ("second.csv", []),
    ):
        calls.clear()
        code, text = run_cli(tmp_path, *argv, name=name)
        assert code == 0
        assert len(read_rows(text)) == 16
        assert sorted(calls) == want
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def _run_figure_sweeps(tmp_path, monkeypatch):
    """One ``scripts/figure_sweeps.py`` pass, writing into ``tmp_path``."""
    script = SRC.parent / "scripts" / "figure_sweeps.py"
    spec = importlib.util.spec_from_file_location("figure_sweeps", script)
    sweeps = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweeps)
    monkeypatch.setattr(sys, "argv", [str(script), "--outdir", str(tmp_path)])
    assert sweeps.main() == 0


def test_figure_sweeps_ask_each_exact_outage_once(tmp_path, monkeypatch):
    # The four est_vs_re files of scripts/figure_sweeps.py ask the exact sop
    # of the baseline link at the same 120 rates: one memo miss and three
    # hits.  Every key misses once, and each key asked again returns the
    # bits of an unmemoized call.
    memo = cli._distinct_outages
    keys = []
    monkeypatch.setattr(cli, "_distinct_outages", lambda *a: keys.append(a) or memo(*a))
    _run_figure_sweeps(tmp_path, monkeypatch)
    info = memo.cache_info()
    assert info.misses == len(set(keys))
    assert info.hits + info.misses == len(keys)
    rate_axis = [key for key in keys if key[0] is secrecy.sop and len(key[2]) == 120]
    assert len(rate_axis) == 4 and len(set(rate_axis)) == 1
    repeated = {key for key in keys if keys.count(key) > 1}
    assert rate_axis[0] in repeated
    for key in repeated:
        got, want = np.array(memo(*key)), np.array(memo.__wrapped__(*key))
        assert got.tobytes() == want.tobytes(), key[0].__name__


def test_figure_sweeps_stay_within_their_surrogate_call_budget(tmp_path, monkeypatch):
    # Each optimum sweep solves its rows as one batch, whose walks share
    # every surrogate call of a round, one per curve and link: the
    # fixed scheme's binding rows solve their codeword rates in one batch
    # too, and the rows' constraint_met reads the outage each solve gated
    # on.  A figure pass makes at most 403 surrogate kernel calls (130 when
    # requests on different links shared gathered calls, 136 when the
    # constraint_met reads took calls of their own, 306 when each
    # binding row solved its codeword rate alone, 913 when each row was
    # solved alone, 1,189 when each cell and stencil also took calls of its
    # own), and its exact outages stay at 23 secrecy and 17 reliability array
    # calls.
    calls = {}
    for module, name in (
        (channel, "ggp_cdf_approx"),
        (secrecy, "sop"),
        (secrecy, "reliability_outage"),
    ):
        kernel = getattr(module, name)
        calls[name] = 0

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(module, name, counted)
    _run_figure_sweeps(tmp_path, monkeypatch)
    assert calls["ggp_cdf_approx"] <= 403
    assert (calls["sop"], calls["reliability_outage"]) == (23, 17)


def _recorded_optima(monkeypatch):
    """A list that gains (scenario, ceiling, optimum) per row of each
    optimum batch solved."""
    solved = []
    for name in ("adaptive_optima", "fixed_optima"):
        batch = getattr(optimize, name)

        def recorded(rows, _batch=batch):
            optima = _batch(rows)
            solved.extend((row[0], row[-1], o) for row, o in zip(rows, optima))
            return optima

        monkeypatch.setattr(optimize, name, recorded)
    return solved


def _assert_rows_meet_by_the_unrounded_exact_outage(rows, solved):
    # The row prints the exact outage at its optimum's r_e (at %.9g), and
    # constraint_met compares that outage, unrounded, with the row's ceiling.
    assert len(rows) == len(solved)
    for row, (sc, s_th, o) in zip(rows, solved):
        s = secrecy.sop(sc, o.rates.r_e)[0]
        assert row["sop"] == cli._fmt(s)
        assert row["est_closed"] == cli._fmt(o.est)
        assert row["constraint_met"] == ("true" if s <= s_th else "false")


def test_figure_sweeps_optimum_rows_meet_their_ceiling_by_the_exact_outage(
    tmp_path, monkeypatch
):
    solved = _recorded_optima(monkeypatch)
    _run_figure_sweeps(tmp_path, monkeypatch)
    assert len(solved) == 70  # 20 ceilings, 6 array sizes and 9 sigma_s, per scheme
    # the files in the order the figure pass solves them
    names = [
        f"est_vs_{axis}_{k}.csv" for k in ("adaptive", "fixed") for axis in ("sth", "n", "sigma")
    ]
    rows = [row for name in names for row in read_rows((tmp_path / name).read_text())]
    _assert_rows_meet_by_the_unrounded_exact_outage(rows, solved)
    # the optimum rows that break their ceiling say so
    assert sum(row["constraint_met"] == "false" for row in rows) == 55


def test_infeasible_ceiling_sweep_rows_read_unmet(tmp_path, monkeypatch):
    # No rate up to c_b = 0.5 meets any ceiling from 0.01 to 0.2: every row
    # sits at r_e = c_b with zero throughput, and its outage, 0.785, breaks
    # its ceiling.
    solved = _recorded_optima(monkeypatch)
    argv = ["--axis", "s_th", "--min", "0.01", "--max", "0.2", "--steps", "4"]
    code, text = run_cli(tmp_path, "sweep", *argv, "--scheme", "adaptive", "--cb", "0.5")
    assert code == 0
    rows = read_rows(text)
    _assert_rows_meet_by_the_unrounded_exact_outage(rows, solved)
    assert [(o.rates.r_e, o.est) for _, _, o in solved] == [(0.5, 0.0)] * 4
    assert [row["constraint_met"] for row in rows] == ["false"] * 4


def test_sweep_ceiling_axis_monotone(tmp_path, baseline):
    code, text = run_cli(
        tmp_path,
        "sweep",
        "--axis",
        "s_th",
        "--scheme",
        "fixed",
        "--min",
        "0.1",
        "--max",
        "1.0",
        "--steps",
        "7",
    )
    assert code == 0
    rows = read_rows(text)
    ests = [float(row["est_closed"]) for row in rows]
    assert all(hi >= lo - 1e-12 for lo, hi in zip(ests, ests[1:]))
    # the axis's own arithmetic, so each ceiling is the sweep's float
    ceilings = [min(0.1 + i * (0.9 / 6), 1.0) for i in range(7)]
    for row, s_th in zip(rows, ceilings):
        s = secrecy.sop(baseline, optimize.fixed_optimal(baseline, s_th).rates.r_e)[0]
        assert row["constraint_met"] == ("true" if s <= s_th else "false")
    assert rows[-1]["constraint_met"] == "true"


def _pinned_monte_carlo(sc, scheme, rates, s_th, sim):
    """The Monte-Carlo throughput at one rate pair from float calls: the
    secrecy outage at r_e and, for the fixed scheme, the reliability outage
    at r_b; the adaptive scheme's reliability outage is an exact zero."""
    sop = montecarlo.estimate_sop(sc, rates.r_e, sim)
    if scheme == "fixed":
        rel = montecarlo.estimate_reliability_outage(sc, rates.r_b, sim)
    else:
        rel = montecarlo.Estimate(mean=0.0, ci_halfwidth=0.0, trials=sim.trials, count=0)
    return montecarlo.est_fixed_from_outages(rates, sop, rel, s_th)


def _ceiling_rows_one_by_one(sc, scheme, ceilings, c_b, sim=None):
    """The CSV of an s_th sweep built row by row from float calls: one
    solve, one exact outage per kind, one surrogate outage and, with
    ``sim``, one Monte-Carlo estimate per ceiling."""
    lines = [HEADER]
    for s_th in ceilings:
        if scheme == "adaptive":
            opt = optimize.adaptive_optimal(sc, c_b, s_th)
            rel = 0.0
        else:
            opt = optimize.fixed_optimal(sc, s_th)
            rel = secrecy.reliability_outage(sc, opt.rates.r_b)[0]
        est_mc = ci = ""
        if sim is not None:
            if scheme == "adaptive":
                est = montecarlo.estimate_est(sc, s_th, sim)
            else:
                est = _pinned_monte_carlo(sc, scheme, opt.rates, s_th, sim)
            est_mc, ci = cli._fmt(est.mean), cli._fmt(est.ci_halfwidth)
        s = secrecy.sop(sc, opt.rates.r_e)[0]
        met = s <= s_th
        cells = [opt.est, est_mc, ci, s, rel]
        cells = [c if isinstance(c, str) else cli._fmt(c) for c in cells]
        lines.append(",".join(["s_th", cli._fmt(s_th), "", *cells, "true" if met else "false"]))
    return "\n".join(lines) + "\n"


# --min 0.05 --max 1 --steps 8: binding and non-binding ceilings, s_th = 1,
# and at c_b 4 threshold rates above the capacity.
CEILING_AXIS = ["--axis", "s_th", "--min", "0.05", "--max", "1", "--steps", "8", "--cb", "4"]


def _ceiling_values():
    # the axis's own arithmetic, so each ceiling is the sweep's float
    step = (1.0 - 0.05) / 7
    return [min(0.05 + i * step, 1.0) for i in range(8)]


@pytest.mark.parametrize("scheme", ["fixed", "adaptive"])
def test_sweep_ceiling_axis_solves_once_and_asks_each_outage_once(
    tmp_path, monkeypatch, baseline, scheme
):
    calls = []
    for name in ("sop", "reliability_outage", "sop_approx"):
        real = getattr(secrecy, name)
        monkeypatch.setattr(
            secrecy,
            name,
            lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
        )
    code, text = run_cli(tmp_path, "sweep", *CEILING_AXIS, "--scheme", scheme)
    assert code == 0
    # The solvers take their surrogate outages from secrecy's names bound in
    # optimize, and constraint_met reads the exact outage the row prints:
    # only the CLI's own exact calls are counted.
    if scheme == "fixed":
        assert sorted(calls) == ["reliability_outage", "sop"]
    else:
        assert calls == ["sop"]
    # Every ceiling's row shares one memoized unconstrained solve.
    unconstrained = {
        "fixed": "_fixed_unconstrained_pair",
        "adaptive": "_adaptive_unconstrained_re",
    }
    assert optimize._MEMO.misses[unconstrained[scheme]] == 1
    assert optimize._MEMO.misses["_re_threshold"] == len(_ceiling_values())
    monkeypatch.undo()
    assert text == _ceiling_rows_one_by_one(baseline, scheme, _ceiling_values(), 4.0)


@pytest.mark.parametrize("scheme", ["fixed", "adaptive"])
def test_sweep_ceiling_axis_monte_carlo_column_equals_the_float_calls(
    tmp_path, monkeypatch, baseline, scheme
):
    calls = []
    for name in ("estimate_est", "estimate_sop", "estimate_reliability_outage"):
        real = getattr(montecarlo, name)
        monkeypatch.setattr(
            montecarlo,
            name,
            lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
        )
    argv = [*CEILING_AXIS, "--scheme", scheme, "--mc", "--trials", "2000", "--seed", "3"]
    code, text = run_cli(tmp_path, "sweep", *argv)
    assert code == 0
    # adaptive: one capacity-averaged estimate over all ceilings; fixed: one
    # eavesdropper draw over the rows' distinct r_e, one Bob draw over their r_b
    if scheme == "fixed":
        assert sorted(calls) == ["estimate_reliability_outage", "estimate_sop"]
    else:
        assert calls == ["estimate_est"]
    monkeypatch.undo()
    sim = montecarlo.SimConfig(trials=2000, seed=3)
    assert text == _ceiling_rows_one_by_one(baseline, scheme, _ceiling_values(), 4.0, sim)


def _rate_rows_one_by_one(sc, scheme, axis, values, c_b, s_th, sim):
    """The CSV of an --mc sweep on the ``r_e`` or ``r_e_x_r_b`` axis built row
    by row from float calls: one exact outage per kind and, where r_b >= r_e,
    one Monte-Carlo estimate per row.  ``c_b`` is the adaptive scheme's
    capacity, or the fixed scheme's pinned r_b on the ``r_e`` axis."""
    if axis == "r_e":
        points = [(v, "", v, max(c_b, v)) for v in values]
    else:
        points = [(v_e, cli._fmt(v_b), v_e, v_b) for v_e in values for v_b in values]
    constraint = SecrecyConstraint(s_th)
    lines = [HEADER]
    for value, value2, r_e, r_b in points:
        s = secrecy.sop(sc, r_e)[0]
        cells = [0.0, "", "", s, 0.0, False]
        if not r_b < r_e:
            if scheme == "fixed":
                t, rates = secrecy.reliability_outage(sc, r_b)[0], RatePair(r_b=r_b, r_e=r_e)
                est = secrecy.est_from_outages(r_b - r_e, t, s, constraint)
            else:
                t, rates = 0.0, RatePair(r_b=max(r_e, c_b), r_e=r_e)
                est = secrecy.est_from_outages(max(c_b - r_e, 0.0), t, s, constraint)
            mc = _pinned_monte_carlo(sc, scheme, rates, s_th, sim)
            est_mc, ci = cli._fmt(mc.mean), cli._fmt(mc.ci_halfwidth)
            cells = [est, est_mc, ci, s, t, s <= s_th]
        met = "true" if cells.pop() else "false"
        cells = [c if isinstance(c, str) else cli._fmt(c) for c in cells]
        lines.append(",".join([axis, cli._fmt(value), value2, *cells, met]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "scheme, axis", [("adaptive", "r_e"), ("fixed", "r_e"), ("fixed", "r_e_x_r_b")]
)
def test_sweep_rate_axis_monte_carlo_column_equals_the_float_calls(
    tmp_path, monkeypatch, baseline, scheme, axis
):
    # --min 0.5 --max 7 --steps 4 at c_b 6 and s_th 0.6: gated rows, rows past
    # the capacity, and on the r_e x r_b grid rows with r_b < r_e, which carry
    # no Monte-Carlo estimate.  The fixed r_e axis pins r_b at 3.4.
    calls = []
    for name in ("estimate_est", "estimate_sop", "estimate_reliability_outage"):
        real = getattr(montecarlo, name)
        monkeypatch.setattr(
            montecarlo,
            name,
            lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
        )
    argv = ["--axis", axis, "--min", "0.5", "--max", "7", "--steps", "4", "--cb", "6"]
    argv += ["--scheme", scheme, "--sth", "0.6", "--rb", "3.4"]
    code, text = run_cli(tmp_path, "sweep", *argv, "--mc", "--trials", "2000", "--seed", "3")
    assert code == 0
    # one eavesdropper draw over the rows' distinct r_e and, for the fixed
    # scheme, one Bob draw over their r_b
    if scheme == "fixed":
        assert sorted(calls) == ["estimate_reliability_outage", "estimate_sop"]
    else:
        assert calls == ["estimate_sop"]
    monkeypatch.undo()
    values = [min(0.5 + i * (6.5 / 3), 7.0) for i in range(4)]
    sim = montecarlo.SimConfig(trials=2000, seed=3)
    c_b = 6.0 if scheme == "adaptive" else 3.4
    want = _rate_rows_one_by_one(baseline, scheme, axis, values, c_b, 0.6, sim)
    assert text == want
    rows = read_rows(text)
    assert any(row["est_mc"] == "" for row in rows) == (axis == "r_e_x_r_b")
    assert any(float(row["est_mc"] or 0.0) > 0.0 for row in rows)


def test_sweep_invalid_ceiling_range_exits_1(tmp_path, capsys):
    code = cli.main(
        ["sweep", "--axis", "s_th", "--min", "0", "--max", "1", "--steps", "3"]
    )
    assert code == 1
    assert "s_th" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["optimize", "--scheme", "adaptive", "--cb", "nan"], "cb: must lie in (0, 1024)"),
        (["optimize", "--scheme", "adaptive", "--cb", "-1"], "cb: must lie in (0, 1024)"),
        (["optimize", "--scheme", "adaptive", "--cb", "0"], "cb: must lie in (0, 1024)"),
        (["optimize", "--scheme", "adaptive", "--cb", "1024"], "cb: must lie in (0, 1024)"),
        (["sweep", "--axis", "r_e", "--min", "0", "--max", "nan", "--steps", "3"],
         "max: must lie in [0, 1024)"),
        (["sweep", "--axis", "r_b", "--min", "0", "--max", "inf", "--steps", "3"],
         "max: must lie in [0, 1024)"),
        (["sweep", "--axis", "r_e", "--min", "0", "--max", "1100", "--steps", "3"],
         "max: must lie in [0, 1024)"),
        (["sweep", "--axis", "r_e_x_r_b", "--min", "-1", "--max", "2", "--steps", "3"],
         "min: must lie in [0, 1024)"),
        (["sweep", "--axis", "r_b", "--min", "1", "--max", "3", "--steps", "3", "--re", "nan"],
         "re: must lie in [0, 1024)"),
        (["sweep", "--axis", "r_e", "--min", "1", "--max", "3", "--steps", "3", "--rb", "-2"],
         "rb: must lie in [0, 1024)"),
        (["sweep", "--axis", "s_th", "--min", "0.2", "--max", "1", "--steps", "2",
          "--scheme", "adaptive", "--cb", "inf"], "cb: must lie in (0, 1024)"),
        # The other axes' bounds: NaN used to label rows, inf and NaN to end
        # in tracebacks, and an s_th past 1 or a reversed range to exit 1
        # after the header or a first row.
        (["sweep", "--axis", "sigma_s", "--min", "0", "--max", "nan", "--steps", "2"],
         "max: must be finite and non-negative on the sigma_s axis"),
        (["sweep", "--axis", "sigma_s", "--min", "0", "--max", "inf", "--steps", "2"],
         "max: must be finite and non-negative on the sigma_s axis"),
        (["sweep", "--axis", "sigma_s", "--min", "-1", "--max", "2", "--steps", "2"],
         "min: must be finite and non-negative on the sigma_s axis"),
        (["sweep", "--axis", "n", "--min", "1", "--max", "nan", "--steps", "2"],
         "max: must be finite and round to at least 1 on the n axis"),
        (["sweep", "--axis", "n", "--min", "0.4", "--max", "2", "--steps", "2"],
         "min: must be finite and round to at least 1 on the n axis"),
        (["sweep", "--axis", "s_th", "--min", "0.1", "--max", "2", "--steps", "2"],
         "max: must lie in (0, 1] on the s_th axis"),
        (["sweep", "--axis", "s_th", "--min", "nan", "--max", "1", "--steps", "2"],
         "min: must lie in (0, 1] on the s_th axis"),
        (["sweep", "--axis", "r_e", "--min", "2", "--max", "1", "--steps", "2"],
         "range: max must be at least min"),
    ],
)
def test_rate_arguments_out_of_range_exit_1(tmp_path, capsys, argv, message):
    code, text = run_cli(tmp_path, *argv)
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_endpoint_stays_inside_the_axis_domain(tmp_path):
    # 0.08 + 3 * ((1 - 0.08) / 3) rounds to 1.0000000000000002; the last row
    # used to end the sweep with exit 1, and now sits at --max itself.
    code, text = run_cli(
        tmp_path, "sweep", "--axis", "s_th", "--min", "0.08", "--max", "1", "--steps", "4"
    )
    assert code == 0
    assert [row["value"] for row in read_rows(text)] == ["0.08", "0.386666667", "0.693333333", "1"]


def test_rate_axis_reaches_just_under_the_rate_limit(tmp_path):
    # every outage is still defined at 1023 bpcu; 2**1024 overflows
    for axis in ("r_e", "r_b"):
        code, text = run_cli(
            tmp_path, "sweep", "--axis", axis, "--min", "0", "--max", "1023", "--steps", "2"
        )
        assert code == 0
        assert [row["value"] for row in read_rows(text)] == ["0", "1023"]


def test_adaptive_sweep_mc_rate_rows_estimate_the_pinned_capacity_value(tmp_path, baseline):
    # On rate rows both columns are (c_b - r_e)(1 - S(r_e)) at the pinned
    # capacity, gated at the ceiling; est_mc reads S from Eve's draw alone.
    for s_th in ("1.0", "0.4"):
        code, text = run_cli(
            tmp_path, "sweep", "--axis", "r_e", "--min", "0.5", "--max", "4", "--steps", "4",
            "--scheme", "adaptive", "--cb", "6", "--sth", s_th, "--mc", "--trials", "100000",
        )
        assert code == 0
        for row in read_rows(text):
            closed, est_mc, ci = float(row["est_closed"]), float(row["est_mc"]), float(row["ci"])
            if row["constraint_met"] == "true":
                assert ci > 0.0
                assert abs(closed - est_mc) <= ci
            else:
                assert closed == est_mc == ci == 0.0


def test_sweep_with_monte_carlo_columns(tmp_path, baseline):
    code, text = run_cli(
        tmp_path,
        "sweep",
        "--axis",
        "r_e",
        "--scheme",
        "fixed",
        "--rb",
        "3.4",
        "--min",
        "1.0",
        "--max",
        "2.0",
        "--steps",
        "3",
        "--mc",
        "--trials",
        "20000",
        "--seed",
        "5",
    )
    assert code == 0
    for row in read_rows(text):
        est_mc, ci = float(row["est_mc"]), float(row["ci"])
        assert ci > 0.0
        assert abs(float(row["est_closed"]) - est_mc) <= ci + 0.02


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_fixed_unconstrained(tmp_path, baseline):
    code, text = run_cli(tmp_path, "optimize", "--scheme", "fixed", "--sth", "1.0")
    assert code == 0
    doc = json.loads(text)
    assert doc["mode"] == "closed_form"
    assert doc["rates"]["r_e"] == pytest.approx(1.2558717107167472, rel=1e-9)
    assert doc["rates"]["r_b"] == pytest.approx(3.399999565912361, rel=1e-9)
    assert doc["method"] == "fixed_point"
    assert doc["hessian_ok"] is True
    assert doc["constraint_active"] is False
    assert doc["oracle"]["gap"] <= 0.02
    pair = RatePair(doc["rates"]["r_b"], doc["rates"]["r_e"])
    want = secrecy.est_fixed(baseline, pair, SecrecyConstraint(1.0))
    assert doc["est_exact_kernel"] == pytest.approx(want, rel=1e-12, abs=0)


def test_optimize_fixed_binding_ceiling(tmp_path, baseline):
    code, text = run_cli(tmp_path, "optimize", "--scheme", "fixed", "--sth", "0.5")
    assert code == 0
    doc = json.loads(text)
    assert doc["constraint_active"] is True
    assert doc["rates"]["r_e"] == pytest.approx(optimize.re_threshold(baseline, 0.5), rel=1e-12)
    assert doc["sop_at_re"] <= 0.5 + 1e-6
    assert doc["method"] == "lambert_w"
    assert doc["oracle"]["gap"] <= 0.02


def test_optimize_adaptive_pinned_capacity(tmp_path, baseline):
    code, text = run_cli(
        tmp_path, "optimize", "--scheme", "adaptive", "--cb", "4", "--sth", "0.4"
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["c_b"] == 4.0
    assert doc["rates"]["r_e"] == pytest.approx(optimize.re_threshold(baseline, 0.4), rel=1e-12)
    assert doc["oracle"]["gap"] <= 0.02
    assert doc["sop_at_re"] <= 0.4 + 1e-6


@pytest.mark.parametrize("scheme", ["fixed", "adaptive"])
def test_optimize_reads_each_exact_outage_once(tmp_path, baseline, monkeypatch, scheme):
    # est_exact_kernel and sop_exact_at_re read the exact outages through the
    # memo of exact outages: one exact call per outage kind, and none when
    # the same run is made again (two sop calls a run when the exact
    # throughput asked its own).
    cli._distinct_outages.cache_clear()
    calls = []
    for name in ("sop", "reliability_outage"):
        real = getattr(secrecy, name)
        monkeypatch.setattr(
            secrecy, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    argv = ["optimize", "--scheme", scheme, "--sth", "0.4"]
    if scheme == "adaptive":
        argv += ["--cb", "4"]
    code, text = run_cli(tmp_path, *argv)
    assert code == 0
    assert sorted(calls) == (["sop"] if scheme == "adaptive" else ["reliability_outage", "sop"])
    calls.clear()
    assert run_cli(tmp_path, *argv, name="again.txt") == (0, text)
    assert calls == []

    doc = json.loads(text)
    pair = RatePair(doc["rates"]["r_b"], doc["rates"]["r_e"])
    if scheme == "adaptive":
        want = secrecy.est_adaptive(baseline, 4.0, pair.r_e, SecrecyConstraint(1.0))
    else:
        want = secrecy.est_fixed(baseline, pair, SecrecyConstraint(1.0))
    assert doc["est_exact_kernel"] == want
    assert doc["sop_exact_at_re"] == secrecy.sop(baseline, pair.r_e)[0]


def test_optimize_adaptive_weak_eavesdropper_link(tmp_path, capsys):
    # At gamma0 1e-3 the eavesdropper's whole rate scale u_e = min(C_e, 1)
    # (8.9e-6 here) lies below 1e-4: the slope scan starts at 1e-4 u_e, so it
    # sees the slope turn from rising to falling and bisects to the root
    cfg = tmp_path / "weak.json"
    cfg.write_text('{"gamma0": 1e-3}', encoding="utf-8")
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "adaptive", "--cb", "4"
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(text)
    assert 0.0 <= doc["rates"]["r_e"] <= 4.0
    assert 0.0 <= doc["sop_at_re"] <= 1.0
    assert 0.0 < doc["est"] <= 4.0
    assert doc["oracle"]["gap"] <= 0.02
    # The stationary root of the scan, not the grid fallback, gave r_e; its
    # throughput is the grid oracle's or more.  The curvature stencil, of
    # step 1e-4 u in Bob's rate scale u (4.5e-6 here), lies inside (0, c_b),
    # so the second-order check is made.
    assert 0.0 < doc["rates"]["r_e"] < 1e-4
    assert doc["est"] > 4.0 - 1e-4
    assert doc["est"] >= doc["oracle"]["est"]
    assert doc["hessian_ok"] is True
    assert doc["method"] == "fixed_point"


def test_optimize_fixed_weak_link_under_ceiling(tmp_path, capsys):
    # At gamma0 1e-3 Bob's rate scale mu is tiny, so exp(1/mu), a factor of
    # the paper's Lambert-W form for r_b, overflows; the solver's residual
    # carries no such factor
    cfg = tmp_path / "weak.json"
    cfg.write_text('{"gamma0": 1e-3}', encoding="utf-8")
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "fixed", "--sth", "0.4"
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(text)
    assert doc["sop_at_re"] <= 0.4 + 1e-6
    assert 0.0 <= doc["rates"]["r_e"] < doc["rates"]["r_b"]


def test_optimize_fixed_oracle_reports_it_does_not_cover_the_optimum(tmp_path):
    # At gamma0 1e-3 the fixed optimum's codeword rate lies below the oracle
    # grid's lowest r_b, so the grid finds nothing and its zero gap is vacuous
    cfg = tmp_path / "weak.json"
    cfg.write_text('{"gamma0": 1e-3}', encoding="utf-8")
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "fixed", "--sth", "0.4"
    )
    assert code == 0
    doc = json.loads(text)
    assert 0.0 < doc["rates"]["r_b"] < optimize.FIXED_ORACLE_RB_MIN
    assert doc["est"] > 0.0
    assert doc["oracle"] == {"covers": False, "est": 0.0, "gap": 0.0}


def test_optimize_fixed_oracle_reports_it_misses_the_feasible_band(tmp_path):
    # At gamma0 1e250 the codeword rate passes 800: 160 nodes over
    # [0, r_b + 3] lie about 5 bits apart, wider than the band where the
    # ceiling admits a positive throughput, so the grid finds none and its
    # gap of 0 says nothing, though r_b lies inside the grid.
    cfg = tmp_path / "strong.json"
    cfg.write_text('{"gamma0": 1e250}', encoding="utf-8")
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "fixed", "--sth", "0.4"
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["rates"]["r_b"] > 800.0
    assert doc["est"] > 0.0
    assert doc["oracle"] == {"covers": False, "est": 0.0, "gap": 0.0}


def test_optimize_oracle_gap_counts_rounding_noise_as_zero(tmp_path):
    # On this scenario the adaptive throughput at c_b 0.5 is rounding noise:
    # the solver's reads 3.6e-18 and the oracle's 6.3e-18, a 42 % gap.  Both
    # lie below 1e-12 c_b, so the gap counts each as 0 and the oracle covers
    # the optimum; the printed throughputs stay as computed.
    cfg = tmp_path / "two_roots.json"
    cfg.write_text(
        json.dumps(
            {"sigma_s": 0, "n_a": 1, "n_b": 3, "n_e": 4, "cn2": 1.4607508285692493e-15,
             "d_b": 2902.842563086293, "d_e": 2252.7318414869633, "gamma0": 1424.0941040463003}
        ),
        encoding="utf-8",
    )
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "adaptive", "--cb", "0.5",
        "--sth", "1.0",
    )
    assert code == 0
    doc = json.loads(text)
    assert 0.0 < doc["est"] < 1.2 * doc["est"] < doc["oracle"]["est"] < 1e-12 * 0.5
    assert (doc["oracle"]["gap"], doc["oracle"]["covers"]) == (0.0, True)


@pytest.mark.parametrize("scheme", ["fixed", "adaptive"])
def test_optimize_oracle_covers_the_baseline_optimum(tmp_path, scheme):
    code, text = run_cli(tmp_path, "optimize", "--scheme", scheme, "--cb", "4", "--sth", "0.4")
    assert code == 0
    doc = json.loads(text)
    assert doc["oracle"]["covers"] is True
    assert doc["oracle"]["est"] > 0.0


@pytest.mark.parametrize(
    ("config", "sth"),
    [
        ('{"cn2": 1e-10}', None),
        ('{"cn2": 1e-10}', "0.4"),
        ('{"epsilon": 0.24}', None),
        ('{"epsilon": 0.24}', "0.4"),
        ('{"cn2": 1e-30}', None),
        (
            '{"sigma_s": 3.79, "n_a": 6, "n_b": 6, "n_e": 5, "cn2": 1.8e-13,'
            ' "d_b": 1440, "d_e": 2541, "gamma0": 6895}',
            "0.34",
        ),
    ],
)
def test_optimize_fixed_at_extreme_surrogate_shapes(tmp_path, capsys, config, sth):
    # Each of these once exited 2 with a raw OverflowError from the rate
    # updates or the threshold inversion, which formed Gamma(k_ap) and
    # exponential integrals by hand; the solver now takes outages and slopes
    # from the surrogate curves.
    cfg = tmp_path / "scenario.json"
    cfg.write_text(config, encoding="utf-8")
    ceiling = ["--sth", sth] if sth else []
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "fixed", *ceiling
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(text)
    assert 0.0 <= doc["rates"]["r_e"] < doc["rates"]["r_b"]
    assert doc["est"] > 0.0
    assert doc["sop_at_re"] <= float(sth or 1.0) + 1e-6
    assert doc["oracle"]["gap"] <= 0.02


def test_optimize_adaptive_under_a_ceiling_at_vanishing_turbulence(tmp_path, capsys):
    # At cn2 1e-10 the eavesdropper's surrogate shape k_ap is about 5,700,
    # where Gamma(k_ap) overflows a double; the threshold rate is a root on
    # the surrogate curve kernel, which works in the log domain.
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"cn2": 1e-10}', encoding="utf-8")
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "adaptive", "--cb", "4",
        "--sth", "0.4",
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(text)
    assert doc["constraint_active"] is True
    assert doc["sop_at_re"] <= 0.4
    assert doc["est"] > 0.0


def test_optimize_ceiling_met_past_a_rounded_inversion_exits_0(tmp_path, capsys):
    # The pointing-free inversion lands at rate 34.1 and the outage there
    # rounds above the ceiling; the threshold lies just above it.
    cfg = tmp_path / "high_rate.json"
    cfg.write_text(
        json.dumps(
            {"sigma_s": 0.0, "n_a": 3, "n_b": 4, "n_e": 3, "cn2": 5.304716812423572e-15,
             "d_b": 2727.692221928623, "d_e": 2732.8255184772124,
             "gamma0": 2050614501111.1985}
        )
    )
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "fixed", "--sth", "0.426"
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert json.loads(text)["sop_at_re"] <= 0.426


@pytest.mark.parametrize("s_th", ["1.0", "0.05"])
def test_optimize_at_the_top_of_the_rate_domain_exits_0(tmp_path, capsys, s_th):
    # Bob's mean capacity lies within 15 of RATE_LIMIT, so the scans, the
    # curvature stencils and the oracle's range all reach the domain's top
    # rate, and none may step past it.  At s_th 0.05 the ceiling binds.
    cfg = tmp_path / "top.json"
    cfg.write_text(json.dumps({"gamma0": 5e307, "n_a": 6, "n_b": 6}))
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "fixed", "--sth", s_th
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(text)
    assert 0.0 < doc["rates"]["r_e"] < doc["rates"]["r_b"] < 1024.0
    assert doc["est"] > 0.0


def test_optimize_ceiling_below_the_outage_floor_exits_2(tmp_path, capsys):
    # 1 - 1e-17 rounds to 1, so no finite rate meets the ceiling.
    code, _ = run_cli(tmp_path, "optimize", "--scheme", "fixed", "--sth", "1e-17")
    assert code == 2
    assert capsys.readouterr().err == (
        "solver error: secrecy ceiling 1e-17 is below the achievable outage floor\n"
    )


def test_a_solver_error_writes_no_output_file(tmp_path, capsys):
    # The --out file was opened before the command ran, so a run that ended
    # in a solver error left an empty file behind.
    out = tmp_path / "opt.json"
    code = cli.main(["optimize", "--scheme", "fixed", "--sth", "1e-17", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("solver error: ")
    assert not out.exists()


def test_optimize_at_the_largest_gamma0_meets_the_ceiling(tmp_path, capsys):
    # gamma0 * n_e overflowed before a0 scaled it back, so Eve's gain read
    # inf, her surrogate outage 1 at every rate, and the run exited 2 with
    # "below the achievable outage floor".
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"gamma0": 1e308}))
    code, text = run_cli(
        tmp_path, "optimize", "--config", str(cfg), "--scheme", "fixed", "--sth", "0.4"
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert json.loads(text)["sop_at_re"] <= 0.4


def test_optimize_adaptive_averaged_mode(tmp_path):
    code, text = run_cli(
        tmp_path,
        "optimize",
        "--scheme",
        "adaptive",
        "--sth",
        "0.4",
        "--trials",
        "50000",
        "--seed",
        "3",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["mode"] == "mc_averaged"
    assert doc["est_mc"] > 0.0
    assert doc["ci_halfwidth"] > 0.0
    assert doc["trials"] == 50000
    assert doc["re_threshold"] == pytest.approx(2.6993223939520092, rel=1e-9)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_draws_the_eavesdropper_once(tmp_path, monkeypatch):
    # The SOP checks and the est_fixed check share one eavesdropper draw.
    calls = []
    draw = cli.montecarlo.sample_eve_irradiance

    def counted(*args):
        calls.append(args[2])
        return draw(*args)

    monkeypatch.setattr(cli.montecarlo, "sample_eve_irradiance", counted)
    code, text = run_cli(tmp_path, "validate", "--trials", "20000", "--stream-count", "4")
    assert code in (0, 3)
    assert "est_fixed r_b=3.4 r_e=1.2558717" in text
    assert calls == [5000] * 4


def test_validate_fails_a_closed_form_off_its_monte_carlo_estimate(tmp_path, monkeypatch):
    # The Monte-Carlo checks' FAIL verdict: each sop line compares a closed
    # form 0.1 too high with an estimate whose margin is about 0.01.
    sop = secrecy.sop

    def raised_sop(sc, r_e):
        s, slope = sop(sc, r_e)
        return s + 0.1, slope

    monkeypatch.setattr(cli.secrecy, "sop", raised_sop)
    code, text = run_cli(tmp_path, "validate", "--trials", "20000", "--seed", "7")
    lines = text.splitlines()
    sop_lines = [line for line in lines if line.split()[1] == "sop"]
    assert [line.split()[0] for line in sop_lines] == ["FAIL"] * 4
    assert code == 3
    n_fail = sum(line.startswith("FAIL ") for line in lines)
    assert lines[-1].startswith(f"result: FAIL (11 checks, {n_fail} failed,")


def test_validate_passes_and_is_deterministic(tmp_path):
    argv = ["validate", "--trials", "200000", "--seed", "42"]
    code1, text1 = run_cli(tmp_path, *argv, name="v1.txt")
    code2, text2 = run_cli(tmp_path, *argv, name="v2.txt")
    code3, text3 = run_cli(tmp_path, *argv, "--jobs", "4", name="v3.txt")
    assert code1 == code2 == code3 == 0
    assert text1 == text2 == text3
    assert "FAIL" not in text1
    assert "result: PASS" in text1
    assert f"trials=200000 seed=42" in text1
    # one verdict line per check in the matrix
    verdicts = [l for l in text1.splitlines() if l.startswith(("PASS", "INCONCLUSIVE"))]
    assert len(verdicts) == 11


@pytest.mark.parametrize("cn2", [1e-15, 1e-30])
def test_validate_weak_turbulence_ends_with_a_verdict(tmp_path, capsys, cn2):
    # shapes near 100 (1e-15) overflowed the series' gamma values, and shapes
    # at the 1e12 cap (1e-30) defeated its pole nudging; the conditioning
    # kernel takes both, so the report ends in PASS or FAIL
    cfg = tmp_path / "weak.json"
    cfg.write_text(json.dumps({"cn2": cn2}), encoding="utf-8")
    code, text = run_cli(tmp_path, "validate", "--config", str(cfg), "--trials", "2000")
    assert code in (0, 3)
    assert capsys.readouterr().err == ""
    assert "result: " in text
    # the surrogate gap is 0.031 (1e-15) and 0.039 (1e-30); at 1e-30 the
    # surrogate outage read 0.0 at r_e 1 to 3, a gap of 0.9999
    gap = next(line for line in text.splitlines() if "surrogate_outage_gap_max" in line)
    assert 0.0 < float(gap.split("lhs=")[1].split()[0]) < 0.05


def test_validate_surrogate_gap_at_cn2_1e_10_fails_the_check(tmp_path, capsys):
    # Gamma(k_ap) at k_ap = 5,714 overflowed in the surrogate's closed form,
    # which ended the run with exit 2 ("math range error"); the log-domain
    # kernel evaluates it, and the surrogate's real gap there (0.039) fails
    # the 0.02 check
    cfg = tmp_path / "weak.json"
    cfg.write_text('{"cn2": 1e-10}', encoding="utf-8")
    code, text = run_cli(tmp_path, "validate", "--config", str(cfg), "--trials", "2000")
    assert code == 3
    assert capsys.readouterr().err == ""
    gap = next(line for line in text.splitlines() if "surrogate_outage_gap_max" in line)
    assert gap.startswith("FAIL")
    assert "lhs=0.039" in gap
    assert "result: " in text


def test_sweep_at_the_shape_cap_exits_0(tmp_path, capsys):
    cfg = tmp_path / "cap.json"
    cfg.write_text('{"cn2": 1e-30}', encoding="utf-8")
    code, text = run_cli(
        tmp_path, "sweep", "--config", str(cfg), "--axis", "r_e", "--min", "0.5", "--max", "4",
        "--steps", "4", "--rb", "3.4",
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = read_rows(text)
    assert len(rows) == 4
    for row in rows:
        assert 0.0 <= float(row["sop"]) <= 1.0
        assert 0.0 <= float(row["reliability_outage"]) <= 1.0


def test_cli_does_not_import_scipy_integrate():
    # scipy.integrate was the largest share of the CLI's import time; no
    # module of the package needs it any more
    code = (
        "import sys\n"
        "from fso_secrecy import cli\n"
        "assert cli.main(['params']) == 0\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_a_reader_that_closes_stdout_early_ends_the_command_with_exit_141():
    # 10,000 CSV rows, far more than a pipe holds, so the command is still
    # writing when its reader closes the pipe after the header line.
    argv = ["sweep", "--axis", "r_e_x_r_b", "--min", "0.1", "--max", "6", "--steps", "100"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fso_secrecy.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"axis,value,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_validate_low_power_is_inconclusive_not_failed(tmp_path):
    code, text = run_cli(tmp_path, "validate", "--trials", "100", "--seed", "1")
    assert code == 0
    assert "FAIL" not in text
    assert "INCONCLUSIVE" in text


def test_validate_with_more_streams_than_trials_reports_as_many_streams_as_trials(tmp_path):
    # Only the first 100 of the 1e20 streams hold a trial, and only they are
    # spawned: the report is the one of 100 streams but for its header.
    code, text = run_cli(
        tmp_path, "validate", "--trials", "100", "--stream-count", str(10**20), name="huge.txt"
    )
    assert code == 0
    code_100, text_100 = run_cli(
        tmp_path, "validate", "--trials", "100", "--stream-count", "100", name="equal.txt"
    )
    assert code_100 == 0
    lines, lines_100 = text.splitlines(), text_100.splitlines()
    assert lines[1] == f"trials=100 seed=0 streams={10**20} generator=SFC64"
    assert lines[0] == lines_100[0] and lines[2:] == lines_100[2:]


@pytest.mark.parametrize(
    "trials, seed", [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (4, 2), (5, 2)]
)
def test_validate_est_fixed_at_tiny_trial_counts_is_inconclusive(tmp_path, trials, seed):
    # Every trial in secrecy outage (and, at (1, 1), in reliability outage
    # too) left the throughput estimate a zero halfwidth, and the check
    # failed at margin 1e-4 with no power behind it.  The sampler-mean check
    # takes its halfwidth 3 / sqrt(k n) from the known variance of the
    # gamma draws, not from their spread: two draws close together made the
    # sample spread tiny and failed the check at (2, 2).
    code, text = run_cli(tmp_path, "validate", "--trials", str(trials), "--seed", str(seed))
    lines = {line.split()[1]: line.split()[0] for line in text.splitlines()[2:-1]}
    assert code == 0
    assert "FAIL" not in lines.values()
    assert lines["est_fixed"] == "INCONCLUSIVE"
    assert lines["gamma_sampler_mean_rel"] == "INCONCLUSIVE"


def test_sweep_fixed_scheme_past_the_rate_ceiling_exits_0(tmp_path):
    # the constrained codeword rate far past Bob's capacity; every r_b there
    # is in outage, so the throughput is 0
    code, text = run_cli(
        tmp_path, "sweep", "--axis", "r_e", "--min", "100", "--max", "1023", "--steps", "2",
        "--scheme", "fixed",
    )
    assert code == 0
    assert [(row["value"], row["est_closed"]) for row in read_rows(text)] == [
        ("100", "0"),
        ("1023", "0"),
    ]


def test_sweep_at_thresholds_past_the_double_range_exits_0(tmp_path):
    # At gamma0 0.1 the SNR gains are below 1, so at r_e = 1023.9 the
    # threshold (2**r - 1) / gain passes the double range: it is inf, the
    # secrecy outage 0 and the reliability outage 1, with no warning (the
    # suite turns a RuntimeWarning into an error).
    cfg = tmp_path / "weak.json"
    cfg.write_text('{"gamma0": 0.1}', encoding="utf-8")
    code, text = run_cli(
        tmp_path, "sweep", "--config", str(cfg), "--axis", "r_e", "--min", "1000",
        "--max", "1023.9", "--steps", "2", "--scheme", "fixed",
    )
    assert code == 0
    columns = ("value", "est_closed", "sop", "reliability_outage", "constraint_met")
    assert [tuple(row[c] for c in columns) for row in read_rows(text)] == [
        ("1000", "0", "0", "1", "true"),
        ("1023.9", "0", "0", "1", "true"),
    ]


def test_cached_parser_carries_nothing_between_calls(tmp_path):
    # One process, one parser: each run must print what a run with a freshly
    # built parser prints.  The last run leaves --cb unset, so the optimize
    # subcommand's own default (None: the MC-averaged mode) must survive the
    # --cb 4 run before it.
    runs = [
        ["optimize"],
        ["validate", "--trials", "1000"],
        ["optimize", "--scheme", "adaptive", "--cb", "4"],
        ["optimize", "--scheme", "adaptive", "--trials", "1000"],
    ]
    assert cli._build_parser() is cli._build_parser()
    cached = [run_cli(tmp_path, *argv, name=f"cached{i}.txt") for i, argv in enumerate(runs)]
    fresh = []
    for i, argv in enumerate(runs):
        cli._build_parser.cache_clear()
        fresh.append(run_cli(tmp_path, *argv, name=f"fresh{i}.txt"))
    assert cached == fresh
    assert json.loads(cached[3][1])["mode"] == "mc_averaged"
    assert cli._build_parser().parse_args(["optimize"]).cb is None
