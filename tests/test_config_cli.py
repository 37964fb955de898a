"""Config parsing, CLI runs, manifests, exit codes and point isolation."""

import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from lasercond import cli, condensation
from lasercond.config import (
    _KEYS_BY_COMMAND,
    COMMANDS,
    ConfigError,
    RunConfig,
    parse_config_text,
)

SWEEP_CFG = """
ladder.source = analytic
ladder.r     = 5        # half-integers also accepted, e.g. 2.5
ladder.omega = 1.0
ladder.kappa = 0.1
ladder.c_ref = 100.0
bath.beta = 1.0
bath.phi  = 1.0
bath.chi  = 0.1
pump.s_min = 0.0
pump.s_max = 50.0
pump.points = 12
pump.grid = log
"""

SPECTRUM_CFG = """
spectrum.r = 0.5
spectrum.c = 0.5
spectrum.kappa = 1.0
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_spectrum_config():
    config = parse_config_text(SPECTRUM_CFG, "spectrum")
    assert config.block_index.two_r == 1
    assert config.block_index.two_c == 1


def test_parse_sweep_config_grid():
    config = parse_config_text(SWEEP_CFG, "sweep")
    assert config.s_grid[0] == 0.0
    assert len(config.s_grid) == 12
    assert config.ladder.n_levels == 11
    assert config.bath.chi == 0.1


def test_parse_collects_every_problem():
    bad = """
    spectrum.r = 1
    spectrum.kappa = -2
    bogus.key = 3
    spectrum.r = 2
    """
    with pytest.raises(ConfigError) as info:
        parse_config_text(bad, "spectrum")
    text = str(info.value)
    assert "must be > 0" in text
    assert "unknown key" in text
    assert "duplicate key" in text
    assert "missing required key 'spectrum.c'" in text
    assert len(info.value.problems) == 4


def test_parse_rejects_c_below_minus_r():
    with pytest.raises(ConfigError, match="below -r"):
        parse_config_text("spectrum.r=1\nspectrum.c=-9\nspectrum.kappa=1", "spectrum")


def test_parse_rejects_unordered_sweep():
    bad = SWEEP_CFG.replace("pump.s_min = 0.0", "pump.s_min = 60.0")
    with pytest.raises(ConfigError, match="must exceed"):
        parse_config_text(bad, "sweep")


def test_parse_rejects_degenerate_ladder_with_chi():
    bad = SWEEP_CFG.replace("ladder.kappa = 0.1", "ladder.kappa = 0.0")
    with pytest.raises(ConfigError, match="degenerate"):
        parse_config_text(bad, "sweep")


def test_parse_rejects_non_half_integer_r():
    with pytest.raises(ConfigError, match="half-integer"):
        parse_config_text("spectrum.r=1.3\nspectrum.c=1\nspectrum.kappa=1", "spectrum")


# ---------------------------------------------------------------------------
# CLI runs
# ---------------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def test_cli_spectrum_outputs(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SPECTRUM_CFG)
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    spectrum_csv = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum_csv[0] == "r,c,kappa,k,lambda,n0,sigma2"
    assert len(spectrum_csv) == 1 + 2  # doublet block
    distribution = (out / "ground_distribution.csv").read_text().splitlines()
    assert distribution[0] == "n,p_n"
    manifest = _manifest(out)
    names = {entry["name"] for entry in manifest["files"]}
    assert names == {"spectrum.csv", "ground_distribution.csv", "spectrum_summary.txt"}


def test_cli_thermal_oracle_columns(tmp_path):
    cfg = _write(tmp_path, "run.cfg", "thermal.n = 20\nthermal.beta = 0.5, 1.0\n")
    out = tmp_path / "out"
    assert cli.main(["thermal", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "thermal.csv").read_text().splitlines()
    assert rows[0].startswith("N,beta,m_mean,m_var,r2_mean,r2_var,sigma_r2,oracle_")
    # N = 20 is beyond the enumeration limit: oracle columns stay empty
    assert rows[1].endswith(",,,,")

    cfg_small = _write(tmp_path, "small.cfg", "thermal.n = 8\nthermal.beta = 0.5\n")
    out_small = tmp_path / "out_small"
    assert cli.main(["thermal", "--config", cfg_small, "--out", str(out_small)]) == 0
    row = (out_small / "thermal.csv").read_text().splitlines()[1]
    assert not row.endswith(",,,,")


STEADY_CFG = (
    "ladder.r = 3\nladder.omega = 1.0\nladder.kappa = 0.1\nladder.c_ref = 100\n"
    "bath.beta = 1.0\nbath.phi = 1.0\nbath.chi = 0.05\npump.s = 2.0\n"
)


def test_cli_steady_state_outputs(tmp_path):
    cfg = _write(tmp_path, "run.cfg", STEADY_CFG)
    out = tmp_path / "out"
    assert cli.main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "steady_state.csv").read_text().splitlines()
    assert rows[0] == cli.SWEEP_HEADER
    assert rows[1].endswith(",ok")
    occupations = (out / "occupations.csv").read_text().splitlines()
    assert occupations[0] == "j,omega,occupation"
    assert len(occupations) == 1 + 7


def test_cli_not_converged_points_are_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(condensation.SteadyStateSolution, "converged", lambda self: False)
    cfg = _write(tmp_path, "point.cfg", STEADY_CFG)
    out = tmp_path / "point"
    assert cli.main(["steady-state", "--config", cfg, "--out", str(out)]) == 2
    assert (out / "steady_state.csv").read_text().splitlines()[1].endswith(",not-converged")
    manifest = _manifest(out)
    assert len(manifest["flags"]) == 1 and "did not converge" in manifest["flags"][0]
    assert manifest["exit_status"] == 2

    cfg = _write(tmp_path, "sweep.cfg", SWEEP_CFG)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    flags = _manifest(out)["flags"]
    assert len(flags) == 12 and all("did not converge" in flag for flag in flags)


def test_readme_example_sweep_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    cfg = _write(tmp_path, "readme.cfg", example)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 60


def test_cli_sweep_deterministic(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SWEEP_CFG)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_cli_sweep_workers_match_serial(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SWEEP_CFG)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(parallel), "--workers", "3"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


def test_cli_manifest_checksums(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SWEEP_CFG)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["command"] == "sweep"
    assert manifest["config"]["pump.points"] == 12
    assert manifest["config"]["ladder.r"] == 5  # as written, not the doubled 10
    assert isinstance(manifest["config"]["ladder.r"], int)
    assert manifest["residuals"]["max"] >= manifest["residuals"]["min"]
    assert manifest["versions"]["scipy"] == scipy.__version__
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def test_cli_manifest_is_strict_json(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "thermal.cfg", "thermal.n = 8\nthermal.beta = 0.5, inf\n")
    out = tmp_path / "thermal"
    assert cli.main(["thermal", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "manifest.json").read_text()
    config = json.loads(text, parse_constant=_reject_constant)["config"]
    assert config["thermal.beta"] == [0.5, "inf"]

    original = condensation.solve_steady_state

    def nan_residual(ladder, bath, pump):
        solution = original(ladder, bath, pump)
        if abs(pump.s - 50.0) < 1e-9:
            return dataclasses.replace(solution, max_residual=math.nan)
        return solution

    monkeypatch.setattr(cli.condensation, "solve_steady_state", nan_residual)
    cfg = _write(tmp_path, "sweep.cfg", SWEEP_CFG)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text, parse_constant=_reject_constant)
    assert manifest["residuals"] == {"min": None, "max": None}
    assert manifest["flags"] == ["point s=50 did not converge"]


def test_cli_sweep_on_a_linear_grid(tmp_path):
    cfg = _write(tmp_path, "run.cfg", _set(SWEEP_CFG, "pump.grid", "linear"))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok"] * 12
    assert np.array_equal([float(row[0]) for row in rows], np.linspace(0.0, 50.0, 12))


def test_cli_manifest_echoes_half_integers_as_written(tmp_path):
    cfg = _write(tmp_path, "run.cfg", "spectrum.r = 2.5\nspectrum.c = 100.5\nspectrum.kappa = 1\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    config = _manifest(out)["config"]
    assert (config["spectrum.r"], config["spectrum.c"]) == (2.5, 100.5)


def test_cli_threshold_report(tmp_path):
    cfg = _write(
        tmp_path,
        "run.cfg",
        "ladder.r = 5\nladder.omega = 1.0\nladder.kappa = 0.1\nladder.c_ref = 100\n"
        "bath.beta = 1.0\nbath.phi = 1.0\nbath.chi = 0.1\n"
        "pump.s_min = 0\npump.s_max = 4000\npump.points = 40\npump.grid = log\n",
    )
    out = tmp_path / "out"
    assert cli.main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    report = dict(
        line.split(" = ", 1)
        for line in (out / "threshold_report.txt").read_text().splitlines()
    )
    assert float(report["s0"]) > 0.0
    assert float(report["B"]) > 0.0
    assert float(report["eta_T"]) > 0.0
    assert 1.0 / 3.0 < float(report["knee_over_s0"]) ** -1 < 3.0
    assert (out / "sweep.csv").exists()


def test_cli_threshold_default_grid(tmp_path):
    # without pump keys the command sweeps two decades around its own s0
    cfg = _write(
        tmp_path,
        "run.cfg",
        "ladder.r = 5\nladder.omega = 1.0\nladder.kappa = 0.1\nladder.c_ref = 100\n"
        "bath.beta = 1.0\nbath.phi = 1.0\nbath.chi = 0.1\n",
    )
    out = tmp_path / "out"
    assert cli.main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 60
    report = dict(
        line.split(" = ", 1)
        for line in (out / "threshold_report.txt").read_text().splitlines()
    )
    assert float(report["knee"]) > 0.0


def _report(out_dir):
    text = (out_dir / "threshold_report.txt").read_text()
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _s_column(out_dir):
    rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
    return np.array([float(row.split(",")[0]) for row in rows])


HOT_THRESHOLD_CFG = (
    "ladder.r = 5\nladder.omega = 1.0\nladder.kappa = 0.17\nladder.c_ref = 1\n"
    "bath.beta = 800\nbath.phi = 1.0\nbath.chi = 0.1\n"
)


def test_cli_threshold_where_planck_factors_overflow(tmp_path):
    # omega_bar beta = 800 > 709.78: e^(omega beta) overflows, so eta_T_effective
    # and the top levels' share of B read 0 instead of ending the run
    cfg = _write(tmp_path, "run.cfg", HOT_THRESHOLD_CFG)
    out = tmp_path / "out"
    assert cli.main(["threshold", "--config", cfg, "--out", str(out)]) == 2
    assert (out / "manifest.json").exists()
    report = _report(out)
    assert report["eta_T_effective"] == "0"
    assert report["immediate_condensation"] == "true"
    flags = _manifest(out)["flags"]
    assert any(flag.startswith("threshold: knee detection failed") for flag in flags)


def test_cli_threshold_immediate_condensation(tmp_path):
    # 2B <= eta_T: s0 is reported unclamped and the default grid sweeps around s = 1
    cfg = _write(
        tmp_path,
        "run.cfg",
        "ladder.r = 0.5\nladder.omega = 1.0\nladder.kappa = 1\nladder.c_ref = 1\n"
        "bath.beta = 0.01\nbath.phi = 1.0\nbath.chi = 0.1\n",
    )
    out = tmp_path / "out"
    assert cli.main(["threshold", "--config", cfg, "--out", str(out)]) == 2
    assert any("2B <= eta_T" in flag for flag in _manifest(out)["flags"])
    report = _report(out)
    assert report["s0"] == "-0.26983063753988468"
    assert report["immediate_condensation"] == "true"
    assert report["knee_over_s0"] == "nan"
    expected = np.concatenate([[0.0], np.geomspace(1e-2, 1e2, 59)])
    assert np.array_equal(_s_column(out), expected)


def test_cli_two_point_log_grid_from_zero_ends_at_s_max(tmp_path):
    text = _set(_set(SWEEP_CFG, "pump.s_max", "1000"), "pump.points", "2")
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert np.array_equal(_s_column(out), [0.0, 1000.0])


def test_cli_config_errors_exit_one(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "spectrum.r = 1\nspectrum.c = -9\nspectrum.kappa = 1\n")
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "below -r" in capsys.readouterr().err


def test_cli_missing_config_exit_one(tmp_path, capsys):
    assert cli.main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cli_workers_below_one_exit_one(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", SWEEP_CFG)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path), "--workers", "0"]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    cfg_key = _write(tmp_path, "key.cfg", SWEEP_CFG + "workers = 2\n")
    assert cli.main(["sweep", "--config", cfg_key, "--out", str(tmp_path)]) == 1
    assert "unknown key 'workers'" in capsys.readouterr().err


# chi S / phi^2 falls below machine epsilon at this temperature
POLE_CFG = """
ladder.r = 1
ladder.omega = 1
ladder.kappa = 0.1
ladder.c_ref = 100
bath.beta = 100
bath.phi = 1
bath.chi = 0.1
"""


def test_cli_unresolvable_pole_is_a_named_error(tmp_path, capsys):
    cfg = _write(tmp_path, "point.cfg", POLE_CFG + "pump.s = 1\n")
    assert cli.main(["steady-state", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "below machine epsilon" in err

    cfg = _write(
        tmp_path, "sweep.cfg", POLE_CFG + "pump.s_min = 1\npump.s_max = 10\npump.points = 3\n"
    )
    out = tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",failed") for row in rows)
    flags = _manifest(out)["flags"]
    assert len(flags) == 3 and all("below machine epsilon" in flag for flag in flags)


def test_cli_underflowing_occupations_are_a_named_error(tmp_path, capsys):
    # omega_-r beta = 990: at s = 0 every occupation underflows to 0
    cold = POLE_CFG.replace("bath.beta = 100", "bath.beta = 1000")
    cfg = _write(tmp_path, "point.cfg", cold + "pump.s = 0\n")
    assert cli.main(["steady-state", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "every occupation underflows" in err

    cfg = _write(
        tmp_path, "sweep.cfg", cold + "pump.s_min = 0\npump.s_max = 10\npump.points = 5\n"
    )
    out = tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and rows[0].startswith("0,") and rows[0].endswith(",failed")
    assert "every occupation underflows" in _manifest(out)["flags"][0]


@pytest.mark.parametrize("workers", [[], ["--workers", "2"]], ids=["default", "workers2"])
def test_cli_failed_point_isolated(tmp_path, monkeypatch, workers):
    cfg = _write(tmp_path, "run.cfg", SWEEP_CFG)
    out = tmp_path / "out"
    original = condensation.solve_steady_state

    def sabotage(ladder, bath, pump):
        if abs(pump.s - 50.0) < 1e-9:
            raise condensation.ConvergenceError("injected failure")
        return original(ladder, bath, pump)

    monkeypatch.setattr(cli.condensation, "solve_steady_state", sabotage)
    status = cli.main(["sweep", "--config", cfg, "--out", str(out), *workers])
    assert status == 2  # computed, but flagged
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 12  # no truncation
    failed = [row for row in rows[1:] if row.endswith(",failed")]
    assert len(failed) == 1
    assert failed[0].startswith("50,")
    manifest = _manifest(out)
    assert any("injected failure" in flag for flag in manifest["flags"])
    assert manifest["exit_status"] == 2


# ---------------------------------------------------------------------------
# every setting is checked by the parser, before a run starts
# ---------------------------------------------------------------------------

def _set(text, key, value):
    """``text`` with the line of ``key`` replaced (appended when absent)."""
    text, count = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M)
    return text if count else text + f"{key} = {value}\n"


@pytest.mark.parametrize(
    ("command", "base", "key"),
    [
        ("spectrum", SPECTRUM_CFG, "spectrum.r"),
        ("steady-state", STEADY_CFG, "pump.s"),
        ("sweep", SWEEP_CFG, "bath.beta"),
        ("sweep", SWEEP_CFG, "bath.phi"),
        ("sweep", SWEEP_CFG, "ladder.omega"),
    ],
    ids=["spectrum.r", "pump.s", "bath.beta", "bath.phi", "ladder.omega"],
)
def test_cli_non_finite_numbers_are_config_errors(tmp_path, capsys, command, base, key):
    cfg = _write(tmp_path, "run.cfg", _set(base, key, "inf"))
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{key}: must be finite" in err
    assert not out.exists()


THRESHOLD_CFG = "".join(
    line + "\n" for line in SWEEP_CFG.splitlines() if not line.startswith("pump.")
)


@pytest.mark.parametrize(
    ("command", "text", "message"),
    [
        (
            "threshold",
            THRESHOLD_CFG + "pump.s_min = 0\n",
            "pump: pump.s_min, pump.s_max and pump.points go together",
        ),
        ("threshold", _set(THRESHOLD_CFG, "bath.chi", "0"), "threshold: bath.chi must be > 0"),
        ("sweep", SWEEP_CFG + "output.dir = x\n", "unknown key 'output.dir'"),
        ("threshold", _set(THRESHOLD_CFG, "ladder.r", "0"), "threshold: ladder.r must be >= 1/2"),
    ],
    ids=["partial-grid", "threshold-chi-zero", "output-dir", "threshold-one-level"],
)
def test_cli_rejected_settings_leave_no_output(tmp_path, capsys, command, text, message):
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_cli_out_at_a_file_is_a_named_error(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", SPECTRUM_CFG)
    assert cli.main(["spectrum", "--config", cfg, "--out", cfg]) == 1
    assert capsys.readouterr().err.startswith("cannot create output directory: ")


# A few valid values per key, None meaning the key is left out; a ladder is
# solved at parse time, so half-integers stay at 10 or below and
# pump.points at 12 or below.  A spoiled key takes an INVALID value or none.
VALID = {
    "spectrum.r": ["0.5", "2", "10"],
    "spectrum.c": ["0", "-0.5", "3", "10"],
    "spectrum.kappa": ["0.05", "1", "3"],
    "thermal.n": ["1", "8", "14"],
    "thermal.beta": ["0.5", "1, 2", "inf", "0.5, inf"],
    "ladder.source": [None, "analytic", "spectral"],
    "ladder.r": ["0", "0.5", "5", "10"],
    "ladder.omega": ["0.5", "1", "3"],
    "ladder.kappa": [None, "0", "0.1", "0.5"],
    "ladder.c_ref": ["1", "100"],
    "ladder.c": [None, "-0.5", "0", "5", "10"],
    "bath.beta": ["0.1", "1", "100"],
    "bath.phi": ["0.01", "1", "10"],
    "bath.chi": ["0", "0.1", "10"],
    "pump.s": [None, "0", "2", "1e4"],
    "pump.p": [None, "0", "3.5"],
    "pump.q": [None, "0", "1.25", "5"],
    "pump.s_min": ["0", "1", "60"],
    "pump.s_max": ["50", "1000"],
    "pump.points": ["2", "12"],
    "pump.grid": [None, "log", "linear"],
}
INVALID = [None, "inf", "-inf", "nan", "-1", "abc", "1e400"]


def test_vocabulary_covers_every_key():
    assert set(VALID) == set().union(*_KEYS_BY_COMMAND.values())


@st.composite
def config_texts(draw):
    command = draw(st.sampled_from(COMMANDS))
    keys = list(_KEYS_BY_COMMAND[command])
    spoiled = draw(st.just(set()) | st.sets(st.sampled_from(keys), max_size=2))
    lines = []
    for key in keys:
        value = draw(st.sampled_from(INVALID if key in spoiled else VALID[key]))
        if value is not None:
            lines.append(f"{key} = {value}")
    return command, "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(config_texts())
def test_parser_returns_a_config_or_a_config_error(case):
    command, text = case
    try:
        config = parse_config_text(text, command)
    except ConfigError:
        return
    assert isinstance(config, RunConfig) and config.command == command


def test_cli_sweep_on_a_spectral_ladder(tmp_path):
    text = (
        "ladder.source = spectral\nladder.r = 5\nladder.c = 10\nladder.omega = 1\n"
        "ladder.kappa = 0.5\nbath.beta = 1\nbath.phi = 1\nbath.chi = 0.1\n"
        "pump.s_min = 0\npump.s_max = 50\npump.points = 12\n"
    )
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 12 and all(row.endswith(",ok") for row in rows[1:])
    config = _manifest(out)["config"]
    assert (config["ladder.source"], config["ladder.c"]) == ("spectral", 10)
    # the analytic ladder would give 11.91 here
    ladder = condensation.ladder_from_spectrum(10, 20, 0.5, 1.0)
    eta_t = condensation.eta_thermal(ladder, condensation.BathParams(1.0, 1.0, 0.1))
    assert float(rows[1].split(",")[1]) == eta_t == 10.600938348866421
