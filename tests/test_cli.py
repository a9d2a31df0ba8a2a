"""Command-line interface: CSV output, sentinels, exit codes, determinism."""

import subprocess
import sys

import pytest

from superbroadcast import cli
from superbroadcast.cli import (
    RunConfig,
    figure3_rows,
    mstar_rows,
    optimal_map_rows,
    scaling_rows,
    threshold_rows,
    verify_lines,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "superbroadcast.cli", *args],
        capture_output=True,
        text=True,
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


def test_verify_lines_pass_and_fault():
    lines, ok = verify_lines(RunConfig("verify", n_in=2, m_out=3, cap=12))
    assert ok
    assert any("PASS: all" in line for line in lines)
    lines, ok = verify_lines(
        RunConfig("verify", n_in=2, m_out=3, cap=12, inject_fault=True)
    )
    assert not ok
    assert any("trace_preservation" in line and "FAIL" in line for line in lines)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig("scaling", n_in=4, m_out=5, r_min=0.9, r_max=0.2).validate()
    with pytest.raises(ValueError):
        RunConfig("scaling", n_in=4, m_out=5, steps=1).validate()
    with pytest.raises(ValueError):
        RunConfig("threshold", n_in=4, m_out=5, tol=-1e-6).validate()
    with pytest.raises(ValueError):
        RunConfig("mstar", n_in=0).validate()
    RunConfig("threshold", n_in=4, m_out=5).validate()


def test_cli_threshold_stdout():
    result = run_cli("threshold", "--n", "4", "--m", "5")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "n,m,r_star"
    assert result.stdout.splitlines()[1].startswith("4,5,0.7867")


def test_cli_mstar_sentinel():
    result = run_cli("mstar", "--n", "6", "--cap", "60")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "6,>=60"


def test_cli_invalid_arguments_exit_2():
    assert run_cli("threshold", "--n", "4").returncode == 2  # missing --m
    assert run_cli("threshold", "--n", "4", "--m", "4").returncode == 2
    assert run_cli("scaling", "--n", "4", "--m", "5", "--steps", "1").returncode == 2
    assert run_cli("scaling", "--n", "4", "--m-range", "7..5").returncode == 2
    assert run_cli("nonsense").returncode == 2
    # each subcommand takes only the shared flags it reads
    assert run_cli("threshold", "--n", "4", "--m", "5", "--cap", "5").returncode == 2


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


def test_cli_verify_exit_codes():
    good = run_cli("verify", "--n", "2", "--m", "3")
    assert good.returncode == 0
    assert "PASS: all" in good.stdout
    bad = run_cli("verify", "--n", "2", "--m", "3", "--inject-fault")
    assert bad.returncode == 1
    assert "FAIL" in bad.stdout


def test_cli_verify_one_copy_reports_no_broadcasting():
    result = run_cli("verify", "--n", "1", "--m", "2")
    assert result.returncode == 0
    assert "no-broadcasting confirmed" in result.stdout
