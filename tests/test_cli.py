"""Command-line interface: CSV output, sentinels, exit codes, determinism."""

import argparse
import contextlib
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exact
from superbroadcast import analysis, channels, cli
from superbroadcast.analysis import _f_n, scaling_profile
from superbroadcast.cli import (
    RunConfig,
    figure3_rows,
    mstar_rows,
    optimal_map_rows,
    scaling_rows,
    threshold_rows,
    verify_lines,
)
from superbroadcast.thresholds import r_star


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    # the child imports this checkout's package, installed or not
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "superbroadcast.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_scaling_rows_shape():
    config = RunConfig("scaling", n_in=4, m_out=5, steps=11)
    rows = scaling_rows(config)
    assert rows[0] == ["n", "m", "r", "r_prime", "p"]
    assert len(rows) == 12
    assert rows[1][:3] == ["4", "5", "0"]
    assert rows[-1][2] == "1"
    # an m range stacks one block per output count
    config = RunConfig("scaling", n_in=4, m_range=(5, 7), steps=5)
    assert len(scaling_rows(config)) == 1 + 3 * 5


def test_scaling_rows_evaluate_f_n_once_per_curve(monkeypatch):
    # on the F_N route p divides the r' in hand: one F_N batch per curve, and
    # the bytes of the profile's own p, which evaluates F_N a second time
    config = RunConfig("scaling", n_in=150, m_range=(150, 152), steps=101)
    grid = np.linspace(0.0, 1.0, 101)
    want = [["n", "m", "r", "r_prime", "p"]]
    for m in (150, 151, 152):
        profile = scaling_profile(150, m)
        columns = zip(grid, profile.r_prime(grid), profile.p(grid))
        want += [["150", str(m), *map(cli._fmt, values)] for values in columns]
    calls = []
    f_n_rows = analysis._f_n_rows

    def counted(n, rs):
        calls.append(rs.size)
        return f_n_rows(n, rs)

    monkeypatch.setattr(analysis, "_f_n_rows", counted)
    assert scaling_rows(config) == want
    assert calls == [101, 101, 101]


def test_threshold_rows_values():
    rows = threshold_rows(RunConfig("threshold", n_in=4, m_out=5))
    assert rows[0] == ["n", "m", "r_star"]
    assert rows[1][:2] == ["4", "5"]
    assert abs(float(rows[1][2]) - 0.786796) < 1e-4
    rows = threshold_rows(RunConfig("threshold", n_in=2, m_out=3))
    assert rows[1] == ["2", "3", "none"]


def test_mstar_rows_sentinel():
    assert mstar_rows(RunConfig("mstar", n_in=4))[1] == ["4", "7"]
    assert mstar_rows(RunConfig("mstar", n_in=5))[1] == ["5", "21"]
    assert mstar_rows(RunConfig("mstar", n_in=6, cap=120))[1] == ["6", ">=120"]


def test_optimal_map_rows_half_spin_rule():
    rows = optimal_map_rows(RunConfig("optimal-map", n_in=4, m_out=5, r=0.5))
    assert rows[0] == ["input_spin", "output_spin", "coupled_spin"]
    assert rows[1:] == [["0", "5/2", "5/2"], ["1", "5/2", "3/2"], ["2", "5/2", "1/2"]]


def test_figure3_rows_first_entry():
    rows = figure3_rows(RunConfig("figure3", n_range=(4, 5)))
    assert rows[0] == ["n", "gap_adjacent", "gap_maximal"]
    assert abs(float(rows[1][1]) - 0.2132) < 1e-3
    assert abs(float(rows[1][2]) - (1.0 - 1.0 / 3.0)) < 1e-3  # r*(4,7) = 1/3


def test_figure3_rows_ignore_the_mstar_cap():
    # M*(4) = 7 and M*(5) = 21 are exact, whatever cap the config carries
    default = figure3_rows(RunConfig("figure3", n_range=(4, 5)))
    assert figure3_rows(RunConfig("figure3", n_range=(4, 5), cap=7)) == default


def _inject_fault(monkeypatch):
    # scale one weight of the map by 101/100 wherever verify_lines takes it
    honest = cli.coefficients_for

    def faulted(emap):
        coeffs = honest(emap)
        key = next(iter(coeffs.weights))
        weights = dict(coeffs.weights)
        weights[key] = weights[key] * Fraction(101, 100)
        return channels.ChannelCoeffs(coeffs.n_in, coeffs.m_out, weights)

    monkeypatch.setattr(cli, "coefficients_for", faulted)


def test_verify_lines_pass_and_fault(monkeypatch):
    lines, ok = verify_lines(RunConfig("verify", n_in=2, m_out=3, cap=12))
    assert ok
    assert any("PASS: all" in line for line in lines)
    _inject_fault(monkeypatch)
    lines, ok = verify_lines(RunConfig("verify", n_in=2, m_out=3, cap=12))
    assert not ok
    assert any("trace_preservation" in line and "FAIL" in line for line in lines)


def test_each_subcommand_parses_to_the_run_config_defaults():
    pair = (["--n", "4", "--m", "5"], {"n_in": 4, "m_out": 5})
    minimal = {
        "scaling": pair,
        "threshold": pair,
        "mstar": (["--n", "4"], {"n_in": 4}),
        "optimal-map": pair,
        "figure2": ([], {}),
        "figure3": ([], {}),
        "verify": pair,
    }
    for command, (argv, given) in minimal.items():
        # the parser supplies no default of its own
        args = cli._parser().parse_args([command, *argv])
        assert vars(args) == {"command": command, **given}
        assert RunConfig(**vars(args)) == RunConfig(command, **given)
    defaults = RunConfig("figure2")
    assert (defaults.r, defaults.r_min, defaults.r_max, defaults.steps) == (0.5, 0.0, 1.0, 101)
    assert (defaults.tol, defaults.cap, defaults.seed) == (1e-6, 200, 7)
    assert defaults.output_path is None
    rows = figure3_rows(RunConfig("figure3"))
    assert [row[0] for row in rows[1:]] == [str(n) for n in range(4, 13)]


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig("scaling", n_in=4, m_out=5, r_min=0.9, r_max=0.2).validate()
    with pytest.raises(ValueError):
        RunConfig("scaling", n_in=4, m_out=5, steps=1).validate()
    with pytest.raises(ValueError):
        RunConfig("threshold", n_in=4, m_out=5, tol=-1e-6).validate()
    with pytest.raises(ValueError):
        RunConfig("threshold", n_in=4, m_out=5, tol=float("nan")).validate()
    with pytest.raises(ValueError):
        RunConfig("mstar", n_in=0).validate()
    RunConfig("threshold", n_in=4, m_out=5).validate()


def test_cli_threshold_stdout():
    result = run_cli("threshold", "--n", "4", "--m", "5")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "n,m,r_star"
    assert result.stdout.splitlines()[1].startswith("4,5,0.7867")


def test_cli_threshold_at_a_million_outputs():
    # M enters only through an exact ratio on the (12, 13) curve
    result = run_cli("threshold", "--n", "12", "--m", "1000000")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "12,1000000,0.805558681488"


def test_cli_threshold_at_a_hundred_thousand_inputs(capsys):
    n, m = 100_000, 100_001
    assert cli.main(["threshold", "--n", str(n), "--m", str(m)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    result = r_star(n, m)
    assert row == f"{n},{m},{result.r_star:.12g}"
    # p - 1 = (M+2)/M F_N(r)/r - 1 changes sign across the reported bracket
    lo = result.r_star - result.bracket_width / 2
    hi = result.r_star + result.bracket_width / 2
    ratio = m / (m + 2)
    assert _f_n(n, lo) >= ratio * lo
    assert _f_n(n, hi) < ratio * hi


def test_cli_figure3_past_a_thousand_inputs(capsys):
    assert cli.main(["figure3", "--n-range", "1000..1002"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["n", "1000", "1001", "1002"]
    for _, adjacent, maximal in rows[1:]:
        assert 0.0 < float(adjacent) < float(maximal) < 1.0


def test_cli_scaling_prints_p_at_zero_correctly_rounded():
    # rows whose 12th digit a float slope of the coefficients gets wrong
    for n, m, p in ((4, 1000, "0.79325"), (77, 78, "4.46097555815")):
        rows = scaling_rows(RunConfig("scaling", n_in=n, m_out=m, steps=2))
        assert rows[1] == [str(n), str(m), "0", "0", p]


# Corners of the supported range: each command exits 0 with only finite
# numbers, or 2 with one clean error line.
CORNERS = [
    ("scaling --n 1024 --m 2 --steps 2", 0),
    ("scaling --n 1034 --m 2 --steps 2", 2),
    ("scaling --n 1040 --m 2 --steps 2", 2),
    ("scaling --n 12 --m 1000000 --steps 3", 0),
    ("scaling --n 1030 --m 1031 --steps 3", 0),
    ("scaling --n 100000 --m 100001 --steps 3", 0),
    ("threshold --n 100000 --m 100001", 0),
    ("mstar --n 100000", 0),
    ("optimal-map --n 1100 --m 1101", 0),
    ("figure3 --n-range 1100..1100", 0),
    ("verify --n 6 --m 7", 2),
]


def test_cli_corner_sweep(capsys):
    analysis._cached_curve.cache_clear()
    analysis.scaling_profile.cache_clear()
    analysis._binomial_coefficients.cache_clear()
    analysis._pmf_ratios.cache_clear()
    outputs = {}
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command, code in CORNERS:
            try:
                got = cli.main(command.split())
            except SystemExit as exc:
                got = exc.code
            out, err = capsys.readouterr()
            assert got == code, (command, err)
            assert "Traceback" not in err
            if code == 2:
                assert err.splitlines()[-1].startswith("superbroadcast: error: "), command
                continue
            for field in out.replace("\n", ",").split(","):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(field)), (command, field)
            outputs[command] = out.splitlines()
    assert time.perf_counter() - start < 3.0
    assert outputs[CORNERS[0][0]][1] == "1024,2,0,0,17.3589923634"


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert cli.main(["threshold", "--n", "4", "--m", "5"]) == 0
    assert cli.main(["mstar", "--n", "4"]) == 0
    assert len(seen) == 2 and seen[0] is seen[1]
    capsys.readouterr()
    # after successful calls, errors read as in a fresh process
    for argv in (
        ["threshold", "--n", "4"],
        ["threshold", "--n", "4", "--m", "4"],
        ["scaling", "--n", "4", "--m", "5", "--steps", "1"],
        ["figure3", "--cap", "7"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        fresh = run_cli(*argv)
        assert fresh.returncode == 2
        assert capsys.readouterr().err == fresh.stderr
    assert cli.main(["threshold", "--n", "4", "--m", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("4,5,0.7867")


def test_cli_optimal_map_past_a_thousand_inputs(capsys):
    # no curve, so no multiplicity turned into a float
    assert cli.main(["optimal-map", "--n", "1100", "--m", "1101"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["input_spin", "output_spin", "coupled_spin"]
    assert rows[1:] == [[str(l), "1101/2", f"{1101 - 2 * l}/2"] for l in range(551)]


def test_cli_optimal_map_evaluates_no_curve_or_count(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("optimal-map prints neither a curve nor a count")

    analysis._cached_curve.cache_clear()
    monkeypatch.setattr(analysis.BlochCurve, "__init__", refuse)
    monkeypatch.setattr(analysis, "extremal_count", refuse)
    monkeypatch.setattr(channels, "extremal_count", refuse)
    assert cli.main(["optimal-map", "--n", "12", "--m", "1000000", "--r", "0.3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == [f"{l},500000,{500000 - l}" for l in range(7)]


def test_cli_mstar_sentinel():
    result = run_cli("mstar", "--n", "6", "--cap", "60")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "6,>=60"
    # M* is unbounded from N = 6 on, so past the cap it reads at least N+1
    result = run_cli("mstar", "--n", "300")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "300,>=301"


def test_cli_invalid_arguments_exit_2(tmp_path):
    assert run_cli("threshold", "--n", "4").returncode == 2  # missing --m
    assert run_cli("threshold", "--n", "4", "--m", "4").returncode == 2
    assert run_cli("scaling", "--n", "4", "--m", "5", "--steps", "1").returncode == 2
    assert run_cli("scaling", "--n", "4", "--m-range", "7..5").returncode == 2
    assert run_cli("nonsense").returncode == 2
    # each subcommand takes only the shared flags it reads
    assert run_cli("threshold", "--n", "4", "--m", "5", "--cap", "5").returncode == 2
    no_cap = run_cli("figure3", "--cap", "7")  # M* is exact; figure3 takes no cap
    assert no_cap.returncode == 2
    assert "unrecognized arguments: --cap" in no_cap.stderr
    assert run_cli("threshold", "--n", "4", "--m", "5", "--tol", "nan").returncode == 2
    assert run_cli("mstar", "--n", "4", "--cap", "3").returncode == 2  # M*(4) is bounded
    assert run_cli("verify", "--n", "2", "--m", "3", "--inject-fault").returncode == 2
    # sizes whose multiplicities overflow a float exit cleanly, no traceback
    # (thresholds and M >= N curves use no multiplicity; M < N curves still do)
    huge = run_cli("scaling", "--n", "2000", "--m", "10")
    assert huge.returncode == 2
    assert "Traceback" not in huge.stderr
    assert "int too large to convert to float" in huge.stderr
    assert run_cli("threshold", "--n", "1100", "--m", "1101").returncode == 0
    past = run_cli("scaling", "--n", "1100", "--m", "1101", "--steps", "11")
    assert past.returncode == 0
    assert past.stdout == exact.reference_csv("scaling --n 1100 --m 1101 --steps 11")
    # a 7 TiB grid: numpy refuses the allocation up front, nothing is allocated
    grid = run_cli("scaling", "--n", "4", "--m", "5", "--steps", "1000000000000")
    assert grid.returncode == 2
    assert "Traceback" not in grid.stderr
    assert "out of memory: Unable to allocate" in grid.stderr
    # an output directory that does not exist: one message, no staging file
    target = tmp_path / "missing" / "x.csv"
    unwritable = run_cli("threshold", "--n", "4", "--m", "5", "--out", str(target))
    assert unwritable.returncode == 2
    assert "Traceback" not in unwritable.stderr
    assert "cannot write" in unwritable.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_error_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.csv"
    result = run_cli(
        "scaling", "--n", "4", "--m", "5", "--r-min", "0.8", "--r-max", "0.1",
        "--out", str(target),
    )
    assert result.returncode == 2
    assert not target.exists()


def test_cli_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    target = tmp_path / "table.csv"
    target.write_text("earlier\n")

    class FailingHandle:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise OSError("device full")

    monkeypatch.setattr(cli, "open", lambda *a, **k: FailingHandle(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="device full"):
        cli._write(str(target), "n,m\n" * 100)
    assert target.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_cli_output_file_matches_stdout(tmp_path):
    target = tmp_path / "table.csv"
    to_file = run_cli("scaling", "--n", "4", "--m", "5", "--steps", "6",
                      "--out", str(target))
    assert to_file.returncode == 0
    direct = run_cli("scaling", "--n", "4", "--m", "5", "--steps", "6")
    assert target.read_text() == direct.stdout


def test_cli_reruns_are_byte_identical():
    first = run_cli("figure2", "--steps", "5")
    second = run_cli("figure2", "--steps", "5")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[0] == "panel,n,m,r,r_prime,p"


def test_cli_verify_exit_codes(monkeypatch, capsys):
    good = run_cli("verify", "--n", "2", "--m", "3")
    assert good.returncode == 0
    assert "PASS: all" in good.stdout
    _inject_fault(monkeypatch)
    assert cli.main(["verify", "--n", "2", "--m", "3"]) == 1
    bad = capsys.readouterr().out.splitlines()
    assert any("trace_preservation" in line and "FAIL" in line for line in bad)


def test_cli_verify_one_copy_reports_no_broadcasting():
    result = run_cli("verify", "--n", "1", "--m", "2")
    assert result.returncode == 0
    # p = (M+2)/(3M) = 2/3, so the margin below 1 is 1/3
    assert "no-broadcasting confirmed (margin 0.333333 below p = 1)" in result.stdout.splitlines()


def test_cli_verify_identity_map_passes():
    # N = M = 1: the optimal map is the identity, so p = 1 is no violation
    result = run_cli("verify", "--n", "1", "--m", "1")
    assert result.returncode == 0
    assert "PASS: all" in result.stdout
    assert "no_broadcasting" not in result.stdout
