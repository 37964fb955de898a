"""Config parsing, CLI runs, manifests, exit codes and point isolation."""

import datetime
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import lasercond
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lasercond import cli, condensation, spectrum
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

SPECTRAL_SWEEP_CFG = (
    "ladder.source = spectral\nladder.r = 5\nladder.c = 10\nladder.omega = 1\n"
    "ladder.kappa = 0.5\nbath.beta = 1\nbath.phi = 1\nbath.chi = 0.1\n"
    "pump.s_min = 0\npump.s_max = 50\npump.points = 12\n"
)


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


def test_parse_rejects_an_unknown_command():
    # the CLI's argument parser admits only COMMANDS; an in-process caller may not
    with pytest.raises(ConfigError) as info:
        parse_config_text(SPECTRUM_CFG, "spectra")
    assert info.value.problems == ["unknown command 'spectra'"]


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


def test_cli_spectrum_flags_a_variance_formula_out_of_regime(tmp_path, monkeypatch):
    # no block scanned (r <= 20, c from -r to 3r + 1, kappa 1e-3..10) leaves
    # the formula's regime, so its ValueError is injected
    def out_of_regime(index, n0):
        raise ValueError("injected: outside the regime")

    monkeypatch.setattr(spectrum, "predicted_ground_variance", out_of_regime)
    cfg = _write(tmp_path, "run.cfg", SPECTRUM_CFG)
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    summary = (out / "spectrum_summary.txt").read_text().splitlines()
    assert "predicted_sigma2 = unavailable (injected: outside the regime)" in summary
    manifest = _manifest(out)
    assert manifest["flags"] == [
        "spectrum: variance formula out of regime: injected: outside the regime"
    ]
    assert manifest["exit_status"] == 2


@pytest.mark.installed
@pytest.mark.parametrize(
    "r,c,kappa",
    [(3, 7, 0.7), (10, 2, 1.3), (0.5, -0.5, 1.0), (3.5, 5.5, 1.0)],
    ids=["complete", "truncated", "dim1", "even"],
)
def test_cli_spectrum_rows_are_the_per_state_statistics(tmp_path, r, c, kappa):
    cfg = _write(tmp_path, "run.cfg", f"spectrum.r = {r}\nspectrum.c = {c}\nspectrum.kappa = {kappa}\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0

    index = spectrum.BlockIndex(round(2 * r), round(2 * c), kappa)
    solution = spectrum.diagonalize(spectrum.build_block(index))
    stats = [spectrum.photon_statistics(solution, k) for k in range(solution.dim)]
    assert solution.dim == len(stats[0].n_values) == min(round(2 * r), round(r + c)) + 1
    rows = ["r,c,kappa,k,lambda,n0,sigma2"] + [
        ",".join(
            map(cli._fmt, (index.r, index.c, kappa, k, solution.eigenvalues[k], one.n0, one.sigma2))
        )
        for k, one in enumerate(stats)
    ]
    assert (out / "spectrum.csv").read_text() == "\n".join(rows) + "\n"
    ground = ["n,p_n"] + [
        f"{cli._fmt(n)},{cli._fmt(p)}"
        for n, p in zip(stats[0].n_values, stats[0].distribution)
    ]
    assert (out / "ground_distribution.csv").read_text() == "\n".join(ground) + "\n"


@pytest.mark.installed
def test_cli_thermal_oracle_columns(tmp_path):
    cfg = _write(tmp_path, "run.cfg", "thermal.n = 20\nthermal.beta = 0.5, 1.0\n")
    out = tmp_path / "out"
    assert cli.main(["thermal", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "thermal.csv").read_text().splitlines()
    assert rows[0].startswith("N,beta,m_mean,m_var,r2_mean,r2_var,sigma_r2,oracle_")
    header = rows[0].split(",")
    oracle = [i for i, name in enumerate(header) if name.startswith("oracle_")]
    assert len(oracle) == 5 and header[-1] == "r2_var_exact"
    # N = 20 is beyond the enumeration limit: oracle columns stay empty, and
    # the exact r(r+1) variance, a closed form, is written for every N
    cells = rows[1].split(",")
    assert [cells[i] for i in oracle] == [""] * 5 and cells[-1] != ""

    cfg_small = _write(tmp_path, "small.cfg", "thermal.n = 8\nthermal.beta = 0.5\n")
    out_small = tmp_path / "out_small"
    assert cli.main(["thermal", "--config", cfg_small, "--out", str(out_small)]) == 0
    cells = (out_small / "thermal.csv").read_text().splitlines()[1].split(",")
    assert all(cells[i] != "" for i in oracle) and cells[-1] != ""

    # Var(m) = (N/4) sech^2(beta/2) is 1.93e-21 at N = 10, beta = 50, not 0;
    # at beta = inf m_mean and its oracle read -N/2 = -3 at N = 6
    last = {}
    for name, text in [("cold", "thermal.n = 10\nthermal.beta = 50\n"),
                       ("frozen", "thermal.n = 6\nthermal.beta = 0.5, inf\n")]:
        assert cli.main(["thermal", "--config", _write(tmp_path, name + ".cfg", text),
                         "--out", str(tmp_path / name)]) == 0
        cells = (tmp_path / name / "thermal.csv").read_text().splitlines()[-1].split(",")
        last[name] = dict(zip(header, cells))
    assert [header[i] for i in (1, 2, 7)] == ["beta", "m_mean", "oracle_m_mean"]
    assert last["cold"]["m_var"] != "0"
    frozen = last["frozen"]
    assert (frozen["beta"], frozen["m_mean"], frozen["oracle_m_mean"]) == ("inf", "-3", "-3")


STEADY_CFG = (
    "ladder.r = 3\nladder.omega = 1.0\nladder.kappa = 0.1\nladder.c_ref = 100\n"
    "bath.beta = 1.0\nbath.phi = 1.0\nbath.chi = 0.05\npump.s = 2.0\n"
)


@pytest.mark.installed
def test_cli_steady_state_outputs(tmp_path):
    # the point given by its supply s, and by a pump p and a loss q
    rates = STEADY_CFG.replace("pump.s = 2.0\n", "pump.p = 3.5\npump.q = 1.25\n")
    for name, text in [("supply", STEADY_CFG), ("rates", rates)]:
        cfg = _write(tmp_path, name + ".cfg", text)
        out = tmp_path / name
        assert cli.main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "steady_state.csv").read_text().splitlines()
        assert rows[0] == cli.SWEEP_HEADER
        assert len(rows) == 1 + 1 and rows[1].endswith(",ok"), name
        occupations = (out / "occupations.csv").read_text().splitlines()
        assert occupations[0] == "j,omega,occupation"
        assert len(occupations) == 1 + 7


def test_cli_not_converged_points_are_flagged(tmp_path, monkeypatch):
    def never(self):
        return np.zeros(self.s.shape, dtype=bool)

    monkeypatch.setattr(condensation.SteadyStateGrid, "converged", never)
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


@pytest.mark.installed
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
    assert manifest["versions"]["numpy"] == np.__version__
    assert set(manifest["versions"]) == {"python", "numpy"}
    # the hashes are taken from the bytes written: each must match the file
    threshold = _write(tmp_path, "threshold.cfg", SWEEP_CFG)
    spectrum = _write(tmp_path, "spectrum.cfg", SPECTRUM_CFG)
    runs = [(out, "sweep"), (tmp_path / "t", "threshold"), (tmp_path / "s", "spectrum")]
    # this grid ends at s = 50, below s0 = 365.8, so its knee (knee/s0 = 0.069)
    # is flagged: computed, exit 2
    assert cli.main(["threshold", "--config", threshold, "--out", str(runs[1][0])]) == 2
    assert _manifest(runs[1][0])["flags"][0].startswith("threshold: knee/s0 = 0.069")
    assert cli.main(["spectrum", "--config", spectrum, "--out", str(runs[2][0])]) == 0
    for out_dir, command in runs:
        entries = _manifest(out_dir)["files"]
        written = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
        assert sorted(entry["name"] for entry in entries) == sorted(written), command
        for entry in entries:
            digest = hashlib.sha256((out_dir / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]


# one cell strategy per CSV column: the floats _fmt must render (nan, +-inf,
# -0, subnormals, 1e+-300), Python and numpy ints, bools, and strings down to
# the empty oracle cell, with '%' and ',' among them
_CELL_KINDS = (
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -1e-310, 1e300, -1e-300]),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.sampled_from(["", "ok", "not-converged", "failed", "%", "%s,%d", "100%", ",", "a,b"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
)


@st.composite
def _csv_columns(draw):
    """Equal-length columns, each of one cell kind; float and int columns
    are sometimes numpy arrays, which the writer reads through ``tolist``."""
    rows = draw(st.integers(0, 6))
    columns = []
    for kind in draw(st.lists(st.sampled_from(_CELL_KINDS), min_size=1, max_size=12)):
        column = draw(st.lists(kind, min_size=rows, max_size=rows))
        if column and isinstance(column[0], (np.float64, np.int64)) and draw(st.booleans()):
            column = np.array(column)
        columns.append(column)
    return columns


@settings(derandomize=True, deadline=None, max_examples=150)
@given(columns=_csv_columns())
@example(columns=[[]])  # zero rows: the header alone
@example(columns=[[], []])
@example(columns=[[1.5], ["a%,b"], [7]])  # one row, a string holding % and ,
def test_write_csv_renders_every_cell_by_the_fmt_rule(tmp_path_factory, columns):
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    expected = [",".join(x if isinstance(x, str) else cli._fmt(x) for x in row) for row in zip(*cells)]
    path = cli.Run(None, tmp_path_factory.getbasetemp()).write_csv("rows.csv", "h", columns)
    assert path.read_bytes().decode("utf-8") == "\n".join(["h", *expected]) + "\n"


def test_cli_calls_in_a_row_get_independent_options(tmp_path, monkeypatch):
    # the parser is built once; each call must still see only its own argv
    assert cli._parser() is cli._parser()
    sweep = _write(tmp_path, "sweep.cfg", SWEEP_CFG)
    thermal = _write(tmp_path, "thermal.cfg", "thermal.n = 8\nthermal.beta = 0.5\n")
    here = tmp_path / "cwd"
    here.mkdir()
    monkeypatch.chdir(here)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", sweep, "--out", str(out), "--workers", "2"]) == 0
    assert cli.main(["thermal", "--config", thermal]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]
    assert sorted(p.name for p in here.iterdir()) == ["manifest.json", "thermal.csv"]
    assert _manifest(here)["command"] == "thermal"
    args = cli._parser().parse_args(["steady-state", "--config", "a.cfg"])
    assert (args.command, args.config, args.out, args.workers) == (
        "steady-state", "a.cfg", None, None
    )
    for bad in (["sweep"], ["no-such-command", "--config", sweep], ["thermal", "--workers", "x"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
    assert cli.main(["sweep", "--config", sweep, "--out", str(tmp_path / "again")]) == 0


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def test_cli_manifest_is_strict_json(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "thermal.cfg", "thermal.n = 8\nthermal.beta = 0.5, inf\n")
    out = tmp_path / "thermal"
    assert cli.main(["thermal", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "manifest.json").read_text()
    config = json.loads(text, parse_constant=_reject_constant)["config"]
    assert config["thermal.beta"] == [0.5, "inf"]

    original = condensation.solve_supply_grid

    def nan_residual(ladder, bath, supplies, **kwargs):
        grid = original(ladder, bath, supplies, **kwargs)
        at_50 = np.abs(grid.s - 50.0) < 1e-9
        return grid._replace(max_residual=np.where(at_50, math.nan, grid.max_residual))

    monkeypatch.setattr(condensation, "solve_supply_grid", nan_residual)
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


@pytest.mark.installed
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
    # omega_bar beta = 800 > 744.4: e^(-omega beta) underflows, so eta_T_effective
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


# a wide ladder at high temperature with weak transfer (2r = 72, beta = 0.37,
# phi/chi = 1700): the default grid's knee sits at 0.312 s0
KNEE_CFG = (
    "ladder.r = 36\nladder.omega = 1.0\nladder.kappa = 0.1\nladder.c_ref = 100\n"
    "bath.beta = 0.37\nbath.phi = 17\nbath.chi = 0.01\n"
)


def test_cli_threshold_flags_a_knee_far_from_s0(tmp_path):
    # the knee lies below the s0/3 that acceptance 8 allows, so the run is
    # computed but flagged
    cfg = _write(tmp_path, "run.cfg", KNEE_CFG)
    out = tmp_path / "out"
    assert cli.main(["threshold", "--config", cfg, "--out", str(out)]) == 2
    ratio = float(_report(out)["knee_over_s0"])
    assert 0.3 < ratio < 1.0 / 3.0
    assert _manifest(out)["flags"] == [
        f"threshold: knee/s0 = {cli._fmt(ratio)} is outside (1/3, 3): the sweep's "
        "condensation knee and the closed-form s0 disagree"
    ]
    assert all(row.endswith(",ok") for row in (out / "sweep.csv").read_text().splitlines()[1:])


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


# omega_-r beta = 990 > 744.4: e^(-omega beta), and every occupation, underflows to 0
COLD_CFG = """
ladder.r = 1
ladder.omega = 1
ladder.kappa = 0.1
ladder.c_ref = 100
bath.beta = 1000
bath.phi = 1
bath.chi = 0.1
"""


def test_cli_underflowing_occupations_are_a_named_error(tmp_path, capsys):
    # omega_-r beta = 990: at s = 0 every occupation underflows to 0
    cfg = _write(tmp_path, "point.cfg", COLD_CFG + "pump.s = 0\n")
    assert cli.main(["steady-state", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "every occupation underflows" in line

    cfg = _write(
        tmp_path, "sweep.cfg", COLD_CFG + "pump.s_min = 0\npump.s_max = 10\npump.points = 5\n"
    )
    out = tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and rows[0].startswith("0,")
    assert all(row.endswith(",failed") for row in rows)
    flags = _manifest(out)["flags"]
    assert len(flags) == 5 and all("every occupation underflows" in flag for flag in flags)


@pytest.mark.installed
def test_cli_unresolvable_pole_is_a_named_error(tmp_path, capsys):
    # at s > 0, chi S < phi^2 eps takes the closed form; at omega_-r beta =
    # 990 its occupations all underflow, and the point is one error line
    cfg = _write(tmp_path, "point.cfg", COLD_CFG + "pump.s = 1\n")
    assert cli.main(["steady-state", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "every occupation underflows" in line

    cfg = _write(
        tmp_path, "sweep.cfg", COLD_CFG + "pump.s_min = 1\npump.s_max = 10\npump.points = 3\n"
    )
    out = tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",failed") for row in rows)
    flags = _manifest(out)["flags"]
    assert len(flags) == 3 and all("every occupation underflows" in flag for flag in flags)


@pytest.mark.parametrize(("chi", "s"), [("0.1", "0"), ("0", "1"), ("0", "0")])
def test_cli_exact_point_past_the_exp_overflow_reads_ok(tmp_path, chi, s):
    # omega beta runs 704.9, 712, 719.1: the two upper occupations are the
    # subnormals k e^(-omega beta), and the exact point reads ok with a
    # finite resid_max
    text = _set(_set(COLD_CFG, "bath.beta", "712"), "bath.chi", chi) + f"pump.s = {s}\n"
    cfg = _write(tmp_path, "point.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
    header, row = (out / "steady_state.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["status"] == "ok" and math.isfinite(float(cells["resid_max"]))
    manifest = _manifest(out)
    assert manifest["flags"] == [] and math.isfinite(manifest["residuals"]["max"])


def test_cli_sweep_refuses_a_supply_whose_transfer_overflows(tmp_path, capsys):
    # s up to 1.7e308 at phi = chi = 1e-3: the three points below 1e304 take
    # the near-pole closed form and are flagged (the float residual cancels),
    # the next two are refused because their near-pole eta overflows, and at
    # the top one S = s sum_j e^(-omega_j beta) overflows and is refused by
    # name; no numpy warning is printed (pytest turns a RuntimeWarning into
    # an error)
    text = (
        "ladder.r = 3\nladder.omega = 1\nladder.kappa = 0.1\nladder.c_ref = 100\n"
        "bath.beta = 1\nbath.phi = 1e-3\nbath.chi = 1e-3\n"
        "pump.s_min = 1e300\npump.s_max = 1.7e308\npump.points = 6\npump.grid = log\n"
    )
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", text)
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["not-converged"] * 3 + ["failed"] * 3
    flags = _manifest(out)["flags"]
    assert len(flags) == 6
    assert flags[-1].startswith("point s=1.6999999999999999e+308 failed: the supply-side")
    assert "transfer S" in flags[-1] and "overflows at s = 1.7e+308" in flags[-1]
    assert capsys.readouterr().err == ""


def test_cli_sweep_at_supplies_near_the_pole_prints_no_warning(tmp_path, capsys):
    # s = 1e150 to 1e200 at r = 1: each root lies below the gap bracket's low
    # end and takes the near-pole closed form; the residual cancels, so the
    # points are flagged, and nothing reaches stderr
    text = COLD_CFG.replace("bath.beta = 1000", "bath.beta = 1") + (
        "pump.s_min = 1e150\npump.s_max = 1e200\npump.points = 3\npump.grid = log\n"
    )
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", _write(tmp_path, "run.cfg", text), "--out", str(out)]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["not-converged"] * 3
    assert capsys.readouterr().err == ""


def test_cli_steady_state_where_upper_levels_pass_the_exp_overflow_prints_no_warning(
    tmp_path, capsys
):
    # beta = 700 at r = 5: the top levels' omega beta reaches 735 > 709.78, where
    # expm1 overflows and their occupations are k e^(-omega beta); the point reads
    # ok, silently
    text = _set(_set(STEADY_CFG, "ladder.r", "5"), "bath.chi", "0.1")
    text = _set(_set(text, "bath.beta", "700"), "pump.s", "1e290")
    out = tmp_path / "out"
    cfg = _write(tmp_path, "point.cfg", text)
    assert cli.main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "steady_state.csv").read_text().splitlines()[1].endswith(",ok")
    assert capsys.readouterr().err == ""


@pytest.mark.installed
def test_cli_sweep_refuses_a_chi_zero_supply_whose_occupations_overflow(tmp_path, capsys):
    # at chi = 0 and phi = 1e-3 the closed-form occupations (1 + s/phi) /
    # (e^(omega beta) - 1) overflow from s = 8.67e304 on, below the s where S
    # does: those points are refused by name, with no numpy warning, and the
    # three below them keep their closed-form rows, which pass the gate
    text = (
        "ladder.r = 3\nladder.omega = 1\nladder.kappa = 0.1\nladder.c_ref = 100\n"
        "bath.beta = 1\nbath.phi = 1e-3\nbath.chi = 0\n"
        "pump.s_min = 1e300\npump.s_max = 1.7e308\npump.points = 6\n"
    )
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", text)
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["ok"] * 3 + ["failed"] * 3
    assert rows[0].startswith("1.0000000000000001e+300,4.0766281226208102e+303,1,0,")
    flags = _manifest(out)["flags"]
    assert flags[0] == (
        "point s=8.6749973905573388e+304 failed: the closed-form occupations (1 + s/phi) "
        "/ (e^(omega beta) - 1) overflow at s = 8.674997390557339e+304: the supply is "
        "beyond the double range"
    )
    assert "occupations" in flags[1] and "transfer S" in flags[2]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("workers", [[], ["--workers", "2"]], ids=["default", "workers2"])
def test_cli_failed_point_isolated(tmp_path, monkeypatch, workers):
    cfg = _write(tmp_path, "run.cfg", SWEEP_CFG)
    out = tmp_path / "out"
    original = condensation.solve_supply_grid

    def sabotage(ladder, bath, supplies, **kwargs):
        grid = original(ladder, bath, supplies, **kwargs)
        errors = [
            condensation.ConvergenceError("injected failure") if abs(s - 50.0) < 1e-9 else error
            for s, error in zip(grid.s, grid.errors)
        ]
        return grid._replace(errors=tuple(errors))

    monkeypatch.setattr(condensation, "solve_supply_grid", sabotage)
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


def test_cli_sweep_columns_follow_the_point_rule(tmp_path, monkeypatch):
    # one sweep with an s = 0 row, two not-converged rows and a failed one
    # between them: omega_bar_fit is fit_mean_frequency's value to the bit
    # wherever it accepts the point and nan elsewhere, and the status column,
    # the flags (in point order) and the residual summary follow each point
    original_solve = condensation.solve_supply_grid
    original_converged = condensation.SteadyStateGrid.converged
    solved = []

    def sabotage(ladder, bath, supplies, **kwargs):
        grid = original_solve(ladder, bath, supplies, **kwargs)
        errors = list(grid.errors)
        errors[5] = condensation.ConvergenceError("injected failure")
        # the row blanked as the solver blanks a failed point
        blank = {}
        for name in condensation._COLUMNS:
            if name not in ("s", "scale"):
                blank[name] = getattr(grid, name).copy()
                blank[name][5] = math.nan
        solved.append(grid._replace(errors=tuple(errors), **blank))
        return solved[-1]

    def converged(self):
        ok = original_converged(self)
        ok[[2, 9]] = False
        return ok

    monkeypatch.setattr(condensation, "solve_supply_grid", sabotage)
    monkeypatch.setattr(condensation.SteadyStateGrid, "converged", converged)
    # phi and beta away from 1, so a reordered ratio shows in the last bits
    text = _set(_set(SWEEP_CFG, "bath.phi", 0.7), "bath.beta", 1.3)
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    [grid] = solved
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    s = [cli._fmt(x) for x in grid.s]
    assert len(rows) == 12 and s[0] == "0"

    eta_t = condensation.eta_thermal(grid.ladder, grid.bath)
    fitted = 0
    for i, row in enumerate(rows):
        point_s, eta = float(grid.s[i]), float(grid.eta[i])
        if i != 5 and point_s > 0.0 and eta > eta_t:
            expected = condensation.fit_mean_frequency(point_s, eta, eta_t, grid.ladder, grid.bath)
            assert row["omega_bar_fit"] == cli._fmt(expected), i  # 17 digits: the same bits
            fitted += 1
        else:
            assert row["omega_bar_fit"] == "nan", i
    assert fitted == 10

    status = ["ok"] * 12
    status[2] = status[9] = "not-converged"
    status[5] = "failed"
    assert [row["status"] for row in rows] == status
    assert lines[5] == f"{s[5]}," + "nan," * 10 + "failed"
    manifest = _manifest(out)
    assert manifest["flags"] == [
        f"point s={s[2]} did not converge",
        f"point s={s[5]} failed: injected failure",
        f"point s={s[9]} did not converge",
    ]
    residuals = [float(r) for i, r in enumerate(grid.max_residual) if i != 5]
    assert manifest["residuals"] == {"min": min(residuals), "max": max(residuals)}


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


REPO = Path(__file__).resolve().parents[1]


def _fresh_env():
    """The environment of a fresh interpreter that imports the lasercond this
    process imported: ``src/`` in a checkout, site-packages when installed."""
    root = str(Path(lasercond.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.installed
def test_fresh_interpreters_import_the_lasercond_under_test():
    result = subprocess.run(
        [sys.executable, "-c", "import lasercond; print(lasercond.__file__)"],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == lasercond.__file__ + "\n"


def _cli_in_a_fresh_interpreter(*argv):
    """``python -m lasercond.cli *argv``, so exit status and stderr are what a user sees."""
    return subprocess.run(
        [sys.executable, "-m", "lasercond.cli", *argv],
        env=_fresh_env(),
        capture_output=True,
        text=True,
    )


def _threshold_config(beta, phi="1.0"):
    """The acceptance ladder's threshold config at ``bath.beta = beta``, ``bath.phi = phi``."""
    return _set(_set(THRESHOLD_CFG, "bath.beta", beta), "bath.phi", phi)


def _threshold_in_a_fresh_interpreter(tmp_path, beta, phi="1.0"):
    """``lasercond threshold`` on ``_threshold_config(beta, phi)``."""
    cfg = _write(tmp_path, "run.cfg", _threshold_config(beta, phi))
    return _cli_in_a_fresh_interpreter("threshold", "--config", cfg, "--out", str(tmp_path / "out"))


@pytest.mark.parametrize("beta", ["371.5", "380", "400", "745"])
def test_cli_threshold_names_an_overflowing_supply(tmp_path, beta):
    # the acceptance ladder, omega_-r beta = 0.95 beta: the default grid's top end
    # 1e2 s0 overflows (371.5), or s0 itself does (380, 400, 745); from 746,
    # eta_T is below DBL_MIN and is named first
    result = _threshold_in_a_fresh_interpreter(tmp_path, beta)
    assert result.returncode == 1
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and "overflows" in line
    assert "Traceback" not in result.stderr and "Warning" not in result.stderr


def test_cli_threshold_names_an_underflowing_equilibrium_occupancy(tmp_path):
    # omega_-r beta = 0.95 * 760 = 722: eta_T = 2.75e-314 is a subnormal of a
    # few digits, below DBL_MIN, and no threshold is formed from it
    result = _threshold_in_a_fresh_interpreter(tmp_path, "760")
    assert result.returncode == 1
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and "eta_T = 2.7517e-314" in line
    assert "bath.beta = 760" in line and "below DBL_MIN = 2.22507e-308" in line
    assert "Traceback" not in result.stderr and "Warning" not in result.stderr


def test_cli_threshold_refuses_a_default_grid_past_the_double_range(tmp_path, capsys):
    # phi = 1e102, chi = 1e-102 on the acceptance ladder: s0 = 2.77e307 is
    # finite, but the default grid's top end 1e2 s0 is not
    text = _set(_set(THRESHOLD_CFG, "bath.phi", "1e102"), "bath.chi", "1e-102")
    cfg = _write(tmp_path, "run.cfg", text)
    assert cli.main(["threshold", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: threshold: the default grid's top end 1e2 s0 overflows")
    # (phi/eta_T)(1 + 2 phi/(chi eta_T))(2B - eta_T), 1.8e-17 from its 50-digit value
    assert "s0 = 2.7696068585310088e+307" in line


@pytest.mark.parametrize(
    ("beta", "phi"),
    [("1e-200", "1.0"), ("1e-300", "1.0"), ("412", "1e-200")],
    ids=["1e-200", "1e-300", "412-phi-1e-200"],
)
def test_cli_threshold_at_a_tiny_beta(tmp_path, beta, phi):
    # eta_T ~ (2r+1)/(omega beta) squares past the double range (a tiny beta),
    # or eta_T = 1.06e-170 squares to 0 (beta = 412), but s0 is finite: the
    # run reports it and flags the grid points it cannot solve
    result = _threshold_in_a_fresh_interpreter(tmp_path, beta, phi)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    config = parse_config_text(_threshold_config(beta, phi), "threshold")
    bath = config.bath
    with mpmath.workdps(40):
        omegas = [mpmath.mpf(float(w)) for w in config.ladder.omegas]
        b = mpmath.mpf(bath.beta)
        eta_t = sum(1 / mpmath.expm1(w * b) for w in omegas)
        b_sum = sum(1 / mpmath.expm1((w - omegas[0]) * b) for w in omegas[1:])
        s0 = (bath.phi / eta_t**2) * (eta_t + 2 * bath.phi / bath.chi) * (2 * b_sum - eta_t)
        error = abs(float(_report(tmp_path / "out")["s0"]) / s0 - 1)
    assert error < 1e-14


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
        ("sweep", SWEEP_CFG + "pump.s_max 60\n", "expected key = value, got 'pump.s_max 60'"),
        ("thermal", "thermal.n = 8\nthermal.beta = ,\n", "line 2: thermal.beta: empty list"),
        # a key the run would ignore
        ("sweep", SWEEP_CFG + "ladder.c = 10\n",
         "ladder: ladder.c applies to a spectral ladder only"),
        ("sweep", _set(_set(SWEEP_CFG, "ladder.source", "spectral"), "ladder.c", "5"),
         "ladder: ladder.c_ref applies to an analytic ladder only"),
        ("threshold", THRESHOLD_CFG + "pump.grid = linear\n",
         "pump: pump.grid applies only with pump.s_min, pump.s_max and pump.points"),
        ("sweep", _set(SPECTRAL_SWEEP_CFG, "ladder.kappa", "0"),
         "ladder: spectral ladder needs ladder.kappa > 0"),
        ("sweep", _set(SWEEP_CFG, "pump.points", "1"), "pump: pump.points must be >= 2, got 1"),
        # mu_j(c+1) - mu_j(c) < -1 at this coupling
        ("sweep", _set(_set(SPECTRAL_SWEEP_CFG, "ladder.c", "5"), "ladder.kappa", "2"),
         "ladder: spectral ladder produced a non-positive level energy"),
    ],
    ids=[
        "partial-grid", "threshold-chi-zero", "output-dir", "threshold-one-level",
        "no-equals-sign", "thermal-beta-empty", "analytic-ladder-c", "spectral-ladder-c-ref",
        "threshold-grid-mode-alone", "spectral-ladder-kappa-zero", "one-grid-point",
        "spectral-ladder-nonpositive-level",
    ],
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
    # a read-only record
    assert isinstance(config, tuple)
    with pytest.raises(AttributeError):
        config.ladder = None


@pytest.mark.installed
def test_cli_sweep_on_a_spectral_ladder(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SPECTRAL_SWEEP_CFG)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 12 and all(row.endswith(",ok") for row in rows[1:])
    config = _manifest(out)["config"]
    assert (config["ladder.source"], config["ladder.c"]) == ("spectral", 10)
    # the analytic ladder would give 11.91 here; 40-digit mpmath levels give
    # 10.6009383488664161
    ladder = condensation.ladder_from_spectrum(10, 20, 0.5, 1.0)
    eta_t = condensation.eta_thermal(ladder, condensation.BathParams(1.0, 1.0, 0.1))
    assert float(rows[1].split(",")[1]) == eta_t == 10.600938348866384
    assert abs(eta_t - 10.6009383488664161) < 5e-14


@pytest.mark.parametrize(
    ("command", "text", "written", "doubled"),
    [
        ("spectrum", _set(SPECTRUM_CFG, "spectrum.r", "-1"), ["r = -1"], "-2"),
        ("sweep", _set(SPECTRAL_SWEEP_CFG, "ladder.r", "-1"), ["r = -1"], "-2"),
        ("sweep", _set(SWEEP_CFG, "ladder.r", "-1"), ["r = -1"], "-2"),
        ("spectrum", _set(_set(SPECTRUM_CFG, "spectrum.r", "1"), "spectrum.c", "0.5"),
         ["r = 1", "c = 0.5"], "2"),
    ],
    ids=["spectrum-r", "spectral-ladder-r", "analytic-ladder-r", "parity"],
)
def test_parse_errors_give_r_and_c_as_written(command, text, written, doubled):
    # r and c are carried doubled; an error names them as the config gives them
    with pytest.raises(ConfigError) as info:
        parse_config_text(text, command)
    [problem] = info.value.problems
    for value in written:
        assert value in problem
    assert not re.search(rf"(?<![\d.]){doubled}(?![\d.])", problem), problem
    assert "two_" not in problem


# one run of each command, the spectral sweep apart from the analytic one
_EVERY_COMMAND = {
    "spectrum": ("spectrum", SPECTRUM_CFG),
    "thermal": ("thermal", "thermal.n = 8\nthermal.beta = 0.5, 1.0\n"),
    "steady": ("steady-state", STEADY_CFG),
    "sweep": ("sweep", SWEEP_CFG),
    "spectral": ("sweep", SPECTRAL_SWEEP_CFG),
    "threshold": ("threshold", THRESHOLD_CFG),
}


def _every_command_in_one_interpreter(
    tmp_path, prelude, epilogue, names=tuple(_EVERY_COMMAND), commands=_EVERY_COMMAND
):
    """Lines a fresh interpreter prints: it runs ``prelude``, imports
    lasercond.cli, prints the exit status of an in-process ``cli.main`` run
    of each of ``commands`` named in ``names`` (output in ``tmp_path /
    name``), then runs ``epilogue``."""
    argvs = [
        f"{command} --config {_write(tmp_path, name + '.cfg', text)} --out {tmp_path / name}"
        for name, (command, text) in commands.items()
        if name in names
    ]
    code = (
        f"import sys\n{prelude}\n"
        "from lasercond import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    print(cli.main(argv.split()))\n"
        f"{epilogue}\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argvs],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()


@pytest.mark.installed
def test_cli_runs_every_command_without_scipy(tmp_path):
    # a fresh interpreter in which every import of scipy or of a scipy
    # module fails, as where only the runtime dependency numpy is installed:
    # the import and a run of each command succeed, and each manifest names
    # the versions of python and numpy only (thermal's of python only)
    lines = _every_command_in_one_interpreter(
        tmp_path,
        "sys.modules['scipy'] = None",
        "print(*sorted(m for m in sys.modules if m.startswith('scipy')))",
    )
    assert lines == ["0"] * len(_EVERY_COMMAND) + ["scipy"]
    for name in _EVERY_COMMAND:
        expected = {"python"} if name == "thermal" else {"python", "numpy"}
        assert set(_manifest(tmp_path / name)["versions"]) == expected, name


@pytest.mark.installed
def test_cli_runs_load_no_dataclasses_fractions_or_decimal(tmp_path):
    # the CLI's start-up cost stays off: records are named tuples and only the
    # test reference fixed_m_enumeration needs fractions (and its decimal);
    # running every command also shows that no command imports one late
    lines = _every_command_in_one_interpreter(
        tmp_path, "", "print(*[m for m in ('dataclasses', 'fractions', 'decimal') if m in sys.modules])"
    )
    assert lines == ["0"] * len(_EVERY_COMMAND) + [""]


@pytest.mark.installed
def test_cli_thermal_runs_without_numpy(tmp_path):
    # every import of numpy fails: the CLI imports and a thermal run exits 0,
    # loading no numerical layer, and its manifest names python alone
    lines = _every_command_in_one_interpreter(
        tmp_path,
        "sys.modules['numpy'] = None",
        "print(*sorted(m for m in sys.modules if m.startswith('lasercond')))",
        names=("thermal",),
    )
    assert lines == ["0", "lasercond lasercond.cli lasercond.config lasercond.thermal"]
    assert _manifest(tmp_path / "thermal")["versions"] == {"python": platform.python_version()}


@pytest.mark.installed
def test_cli_numeric_runs_load_no_thermal(tmp_path):
    # only the thermal command imports the thermal layer
    lines = _every_command_in_one_interpreter(
        tmp_path, "", "print('lasercond.thermal' in sys.modules)",
        names=("spectrum", "steady", "sweep", "spectral", "threshold"),
    )
    assert lines == ["0"] * 5 + ["False"]


@pytest.mark.installed
def test_cli_spectrum_run_loads_no_condensation(tmp_path):
    lines = _every_command_in_one_interpreter(
        tmp_path, "", "print('lasercond.condensation' in sys.modules)", names=("spectrum",)
    )
    assert lines == ["0", "False"]


@pytest.mark.installed
def test_cli_analytic_runs_load_no_spectrum(tmp_path):
    # an analytic ladder needs no block spectrum: steady-state, sweep and
    # threshold at a half-integer r run, and echo r = 14.5, without loading it
    half_r = {
        name: (command, _set(text, "ladder.r", 14.5))
        for name, (command, text) in _EVERY_COMMAND.items()
        if name in ("steady", "sweep", "threshold")
    }
    lines = _every_command_in_one_interpreter(
        tmp_path, "", "print('lasercond.spectrum' in sys.modules)",
        names=tuple(half_r), commands=half_r,
    )
    assert lines == ["0", "0", "0", "False"]
    for name in half_r:
        assert _manifest(tmp_path / name)["config"]["ladder.r"] == 14.5


@pytest.mark.installed
def test_cli_import_loads_no_platform_or_datetime():
    # the manifest takes the python version from sys.version and the
    # timestamp from time, so importing the CLI loads neither module
    code = "import sys, lasercond.cli; print([m for m in ('platform', 'datetime') if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


def test_cli_manifest_names_the_python_version_and_a_utc_timestamp(tmp_path):
    for name, (command, text) in _EVERY_COMMAND.items():
        out = tmp_path / name
        before = datetime.datetime.now(datetime.timezone.utc)
        assert cli.main([command, "--config", _write(tmp_path, name + ".cfg", text),
                         "--out", str(out)]) == 0, name
        after = datetime.datetime.now(datetime.timezone.utc)
        manifest = _manifest(out)
        assert manifest["versions"]["python"] == platform.python_version(), name
        stamp = datetime.datetime.fromisoformat(manifest["timestamp"])
        assert stamp.utcoffset() == datetime.timedelta(0), name
        assert before - datetime.timedelta(microseconds=1) <= stamp <= after, name


@pytest.mark.installed
@pytest.mark.parametrize(
    ("command", "text", "status"),
    [(*_EVERY_COMMAND["thermal"], 0), ("threshold", KNEE_CFG, 2)],
    ids=["thermal", "flagged-threshold"],
)
def test_cli_process_ends_after_its_outputs_are_written(tmp_path, command, text, status):
    # a process ends through cli.entry, which skips the interpreter's teardown:
    # it exits with main()'s status, and every file its manifest lists is on
    # disk with the listed checksum
    out = tmp_path / "out"
    result = _cli_in_a_fresh_interpreter(
        command, "--config", _write(tmp_path, "run.cfg", text), "--out", str(out)
    )
    assert result.returncode == status
    assert result.stdout == "" and result.stderr == ""
    manifest = _manifest(out)
    assert manifest["exit_status"] == status
    assert manifest["files"]
    for entry in manifest["files"]:
        assert hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest() == entry["sha256"]


def test_console_script_goes_through_entry():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^lasercond = "lasercond\.cli:entry"$', text, re.MULTILINE)


def test_deck_identity_finds_no_difference_between_a_checkout_and_itself():
    # both sides are this checkout: the small_runs deck at seed 1 runs twice in
    # one interpreter, and every exit code, stderr and output byte must agree
    argv = [
        sys.executable, str(REPO / "scripts" / "deck_identity.py"), "--parent", str(REPO),
        "--change", str(REPO), "--seeds", "1", "--seconds", "4", "--workloads", "small_runs",
    ]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert report["differences"] == []
    assert report["jobs"] == 4 and report["files"] > 0


def test_deck_identity_solver_calls_find_no_difference_between_a_checkout_and_itself():
    # seeded solve_supply_grid calls only (no deck), this checkout on both sides:
    # every column's bits, error and warning must agree
    argv = [
        sys.executable, str(REPO / "scripts" / "deck_identity.py"), "--parent", str(REPO),
        "--change", str(REPO), "--seeds", "1", "--workloads", "", "--solver-calls", "60",
    ]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert report["jobs"] == 0 and report["differences"] == []
    assert report["solver"]["calls"] == 60 and report["solver"]["points"] == 120
    assert report["solver_differences"] == []
