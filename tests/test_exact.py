"""The CLI's reference outputs against the exact module, and its ledger.

``tests/exact.py`` computes every printed number of the reference commands
in ``perfbench/golden.json`` exactly; ``tests/known_diffs.json`` lists each
printed cell that differs from it, with the printed and the exact bytes.
The ledger can only shrink: a listed cell that now prints its exact value
fails until its entry is deleted, and any other difference fails outright.
"""

import ast
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exact
from superbroadcast import cli

GOLDEN = json.loads(exact.GOLDEN_PATH.read_text())
LEDGER = json.loads(exact.LEDGER_PATH.read_text())

# The ledger's size when it was taken.  A change that mends printed cells
# lowers it with their entries; nothing may raise it.
LEDGER_CEILING = 33

# Columns that name a row rather than hold a computed value.
KEY_COLUMNS = {"panel", "n", "m", "r", "input_spin"}


def _differing_cells(argv, printed, reference):
    """One ledger entry per cell where the printed CSV differs from the exact one."""
    got = [line.split(",") for line in printed.splitlines()]
    want = [line.split(",") for line in reference.splitlines()]
    assert len(got) == len(want) and got[0] == want[0], argv
    header = got[0]
    cells = []
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row) == len(header), (argv, got_row, want_row)
        row = ",".join(cell for cell, name in zip(got_row, header) if name in KEY_COLUMNS)
        cells += [
            {"argv": argv, "row": row, "column": name, "printed": g, "exact": w}
            for name, g, w in zip(header, got_row, want_row)
            if g != w
        ]
    return cells


def _printed(argv, tmp_path):
    target = tmp_path / "out.csv"
    assert cli.main(argv.split() + ["--out", str(target)]) == 0
    return target.read_text()


def test_exact_module_imports_only_the_standard_library():
    tree = ast.parse(Path(exact.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module.split(".")[0])
    assert modules and modules <= set(sys.stdlib_module_names), modules
    assert not modules & {"superbroadcast", "perfbench", "numpy"}


def test_fmt12_is_percent_g_on_doubles_and_rounds_ties_to_even():
    # a double's exact value rounds as Python's correctly rounded %.12g does
    rng = random.Random(23)
    values = [0.0, 1.0, -2.5, 1e-5, 9.999999999995e-5, 123456789012.5, 1e12, 4.76837158203125e-07]
    values += [rng.uniform(-1, 1) * 10 ** rng.randint(-12, 14) for _ in range(2000)]
    for x in values:
        assert exact.fmt12(x) == f"{x:.12g}", x
    # exact 13-digit ties go to the even 12th digit
    assert exact.fmt12(Fraction(1831048153, 1600000000)) == "1.14440509562"
    assert exact.fmt12(Fraction("1.144405095635")) == "1.14440509564"
    assert exact.fmt12(Fraction("0.9999999999995")) == "1"
    assert exact.fmt12(Fraction("-0.00001234567890125")) == "-1.23456789012e-05"


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_matches_the_exact_reference_but_at_the_ledger(argv, tmp_path):
    found = _differing_cells(argv, _printed(argv, tmp_path), exact.reference_csv(argv))
    listed = [entry for entry in LEDGER if entry["argv"] == argv]
    stale = [entry for entry in listed if entry not in found]
    unlisted = [entry for entry in found if entry not in listed]
    assert not stale, f"no longer printed as listed; delete the mended ones: {stale}"
    assert not unlisted, f"printed values that differ from the exact ones: {unlisted}"


def test_ledger_only_shrinks():
    assert len(LEDGER) <= LEDGER_CEILING
    assert all(set(entry) == {"argv", "row", "column", "printed", "exact"} for entry in LEDGER)
    assert all(entry["argv"] in GOLDEN and entry["printed"] != entry["exact"] for entry in LEDGER)
    assert len({json.dumps(entry, sort_keys=True) for entry in LEDGER}) == len(LEDGER)


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_digest_is_the_reference_exactly_where_the_ledger_is_empty(argv):
    # a change that mends a command's last listed cell re-takes its digest
    # as the SHA-256 of the reference output
    listed = any(entry["argv"] == argv for entry in LEDGER)
    assert (exact.sha256(argv) == GOLDEN[argv]) != listed


def test_ledger_values_agree_on_both_exact_routes():
    # each exact figure2 cell of the ledger again by the sector sum, whose
    # coefficients come from code apart from the Bernstein form's
    checked = 0
    for entry in LEDGER:
        if entry["argv"] != "figure2":
            continue
        _, n, m, printed_r = entry["row"].split(",")
        n, m, r = int(n), int(m), Fraction(printed_r)
        r_prime = exact.sector_r_prime(exact.optimal_triples(n, m), n, m, r)
        value = r_prime if entry["column"] == "r_prime" else r_prime / r
        assert exact.fmt12(value) == entry["exact"], entry
        checked += 1
    assert checked == sum(entry["argv"] == "figure2" for entry in LEDGER)


def test_digests_report_every_reference_command(capsys):
    assert exact.main(["--digests"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(GOLDEN)
    for line, (argv, pinned) in zip(lines, GOLDEN.items()):
        rows = sum(entry["argv"] == argv for entry in LEDGER)
        state = "equals" if exact.sha256(argv) == pinned else "differs from"
        assert line == f"{argv}: reference {exact.sha256(argv)} {state} golden.json; {rows} ledger rows"
