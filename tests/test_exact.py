"""The CLI's reference outputs against the exact module, and its ledger.

``tests/exact.py`` computes every printed number of the reference commands
in ``perfbench/golden.json`` exactly; ``tests/known_diffs.json`` lists each
printed cell that differs from it, with the printed and the exact bytes.
The ledger can only shrink: a listed cell that now prints its exact value
fails until its entry is deleted, and any other difference fails outright.
"""

import ast
import json
import math
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


def test_fmt12_rounds_fractions_past_the_str_digit_limit():
    # exact values at N = 2000 carry integers of more than 4300 digits,
    # which str() refuses; the decimal exponent must not go through it
    big = 3**10000
    assert big.bit_length() * math.log10(2) > 4300
    assert exact.fmt12(Fraction(2 * big + 1, 3 * big)) == "0.666666666667"
    assert exact.fmt12(Fraction(big, 7 * big + 1)) == "0.142857142857"
    assert exact.fmt12(Fraction(-big - 1, big * 10**7)) == "-1e-07"
    assert exact.fmt12(Fraction(10**5000 - 1, 10**5003)) == "0.001"
    # just above and just below each power of ten, both rounding to it
    for e in range(-20, 21):
        for step in (Fraction(1, big), -Fraction(1, big)):
            assert exact.fmt12(Fraction(10) ** e + step) == f"{10.0**e:.12g}", (e, step > 0)


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_matches_the_exact_reference_but_at_the_ledger(argv, tmp_path):
    found = exact.differing_cells(argv, _printed(argv, tmp_path))
    listed = [entry for entry in LEDGER if entry["argv"] == argv]
    stale = [entry for entry in listed if entry not in found]
    unlisted = [entry for entry in found if entry not in listed]
    assert not stale, f"no longer printed as listed; delete the mended ones: {stale}"
    assert not unlisted, f"printed values that differ from the exact ones: {unlisted}"


@pytest.mark.parametrize("argv", ["scaling --n 191 --m 192", "scaling --n 191 --m 193"])
def test_curves_past_the_kernel_window_print_the_exact_reference(argv, tmp_path):
    # most sectors here are anti-stretched ones larger than any figure2
    # builds, which take the exact alpha moments; 9312 coefficients stay
    # under OpenBLAS's threading cut, so the bytes hold at any thread count
    assert _printed(argv, tmp_path) == exact.reference_csv(argv)


def test_compare_lists_each_differing_cell(tmp_path, capsys):
    argv = ["threshold", "--n", "4", "--m", "5"]
    target = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert exact.main(["--compare", str(target)] + argv) == 0
    lines = capsys.readouterr().out.splitlines()
    entry = next(entry for entry in LEDGER if entry["argv"] == " ".join(argv))
    assert lines == [
        f"4,5 r_star: printed {entry['printed']}, exact {entry['exact']}",
        "1 of 1 printed values differ from the exact reference",
    ]
    target.write_text(exact.reference_csv(argv))
    assert exact.main(["--compare", str(target)] + argv) == 0
    assert capsys.readouterr().out == "0 of 1 printed values differ from the exact reference\n"
    # a file it cannot read, or not the table of that command
    assert exact.main(["--compare", str(tmp_path / "missing.csv")] + argv) == 1
    assert exact.main(["--compare", str(target), "mstar", "--n", "4"]) == 1
    assert capsys.readouterr().err.count("exact.py: cannot compare") == 2


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


def test_golden_json_is_the_reference_with_the_ledger_put_back(capsys):
    # golden.json holds nothing that the reference and the ledger do not, so
    # a change that mends listed cells deletes them and re-takes the file
    # with --golden
    assert exact.main(["--golden"]) == 0
    assert capsys.readouterr().out == exact.GOLDEN_PATH.read_text()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_pinned_csv_is_what_the_cli_prints(argv, tmp_path):
    assert exact.pinned_csv(argv) == _printed(argv, tmp_path)


def test_pinned_csv_rejects_a_ledger_cell_it_cannot_place(tmp_path, monkeypatch):
    entry = next(entry for entry in LEDGER if entry["argv"] == "threshold --n 4 --m 5")
    for changed in ({"row": "4,6"}, {"exact": entry["printed"]}):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps([{**entry, **changed}]))
        monkeypatch.setattr(exact, "LEDGER_PATH", ledger)
        with pytest.raises(ValueError, match="ledger cell"):
            exact.pinned_csv("threshold --n 4 --m 5")
