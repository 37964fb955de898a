"""Config parsing, CLI runs, manifests, exit codes and point isolation."""

import hashlib
import json

import numpy as np
import pytest
import scipy

from lasercond import cli, condensation
from lasercond.config import ConfigError, parse_config_text

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


def test_cli_steady_state_outputs(tmp_path):
    cfg = _write(
        tmp_path,
        "run.cfg",
        "ladder.r = 3\nladder.omega = 1.0\nladder.kappa = 0.1\nladder.c_ref = 100\n"
        "bath.beta = 1.0\nbath.phi = 1.0\nbath.chi = 0.05\npump.s = 2.0\n",
    )
    out = tmp_path / "out"
    assert cli.main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "steady_state.csv").read_text().splitlines()
    assert rows[0] == cli.SWEEP_HEADER
    assert rows[1].endswith(",ok")
    occupations = (out / "occupations.csv").read_text().splitlines()
    assert occupations[0] == "j,omega,occupation"
    assert len(occupations) == 1 + 7


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
    cfg_zero = _write(tmp_path, "zero.cfg", SWEEP_CFG + "workers = 0\n")
    assert cli.main(["sweep", "--config", cfg_zero, "--out", str(tmp_path)]) == 1
    assert "workers: must be >= 1" in capsys.readouterr().err


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
