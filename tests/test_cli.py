"""End-to-end command-line tests: output formats, exit codes, determinism.

Every test drives ``cli.main`` exactly as a shell user would, with ``--out``
pointed at a temp file, and parses the emitted JSON/CSV back.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fso_secrecy import cli, optimize, secrecy
from fso_secrecy.cli import ConfigError, scenario_from_dict
from fso_secrecy.secrecy import RatePair, SecrecyConstraint

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


def test_flag_validation_exits_1(tmp_path, capsys):
    assert cli.main(["optimize", "--sth", "0"]) == 1
    assert "sth" in capsys.readouterr().err
    assert cli.main(["validate", "--trials", "0"]) == 1
    assert "trials" in capsys.readouterr().err
    for flag, value in (("--stream-count", "0"), ("--jobs", "0"), ("--jobs", "-2")):
        assert cli.main(["validate", "--trials", "100", flag, value]) == 1
        assert capsys.readouterr().err == f"error: {flag[2:]}: must be at least 1\n"


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


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def test_params_baseline(tmp_path):
    code, text = run_cli(tmp_path, "params")
    assert code == 0
    doc = json.loads(text)
    assert doc["eve"]["alpha"] == pytest.approx(6.126110647376661, rel=1e-12)
    assert doc["eve"]["beta_single"] == pytest.approx(5.55337674843494, rel=1e-12)
    assert doc["eve"]["a0"] == pytest.approx(0.0031946446312098383, rel=1e-12)
    assert doc["eve"]["xi"] == pytest.approx(0.625523905950736, rel=1e-12)
    assert doc["eve"]["beta_aggregate"] == pytest.approx(11.10675349686988, rel=1e-12)
    assert doc["bob"]["xi"] == "inf"  # aligned receiver sentinel
    assert doc["scenario"]["gamma0"] == 3967.6
    assert doc["scenario"]["n_a"] == 2
    assert text.endswith("\n")


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
        assert float(row["est_closed"]) == pytest.approx(want.est, rel=1e-8)
        assert float(row["sop"]) == pytest.approx(secrecy.sop(baseline, r_e), rel=1e-8)
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


def test_sweep_grid_computes_each_outage_once(tmp_path):
    # the grid's secrecy outage depends only on r_e and its reliability
    # outage only on r_b: 4 distinct values each, whatever the row count
    secrecy.sop.cache_clear()
    secrecy.reliability_outage.cache_clear()
    argv = [
        "sweep", "--axis", "r_e_x_r_b", "--min", "0.5", "--max", "3", "--steps", "4",
        "--scheme", "fixed", "--sth", "1.0",
    ]
    code, _ = run_cli(tmp_path, *argv, name="first.csv")
    assert code == 0
    assert secrecy.sop.cache_info().misses == 4
    assert secrecy.reliability_outage.cache_info().misses == 4
    code, _ = run_cli(tmp_path, *argv, name="second.csv")
    assert code == 0
    assert secrecy.sop.cache_info().misses == 4
    assert secrecy.reliability_outage.cache_info().misses == 4
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def test_sweep_ceiling_axis_monotone(tmp_path):
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
    assert all(row["constraint_met"] == "true" for row in rows)


def test_sweep_invalid_ceiling_range_exits_1(tmp_path, capsys):
    code = cli.main(
        ["sweep", "--axis", "s_th", "--min", "0", "--max", "1", "--steps", "3"]
    )
    assert code == 1
    assert "s_th" in capsys.readouterr().err


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
    want = secrecy.est_fixed(baseline, pair, SecrecyConstraint(1.0)).est
    assert doc["est_exact_kernel"] == pytest.approx(want, rel=1e-12)


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


def test_optimize_adaptive_weak_eavesdropper_link(tmp_path, capsys):
    # gamma0 1e-3 underflows the surrogate tail in the adaptive stationarity
    # map; the solver falls back to its sign-scan and still returns an optimum
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
    assert doc["re_threshold"] == pytest.approx(2.6993223940249464, rel=1e-9)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


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


def test_validate_low_power_is_inconclusive_not_failed(tmp_path):
    code, text = run_cli(tmp_path, "validate", "--trials", "100", "--seed", "1")
    assert code == 0
    assert "FAIL" not in text
    assert "INCONCLUSIVE" in text
