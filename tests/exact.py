"""Exact rational reference for every number the command line prints.

This module imports only the standard library, so it shares no evaluation
code with ``superbroadcast`` or ``perfbench``.  Doubled spins are plain
ints throughout (``dl = 2l``), and every value is an exact ``Fraction``
until :func:`fmt12` rounds it once.

It keeps two routes to ``F_N``, the optimal map's ``r' M/(M+2)``
(``M >= N``), whose coefficients come from separate code; both then go
through the one integer power sum :func:`_power_sum`:

* :func:`f_n`, the Bernstein form ``F_N(r) = sum_k C(N,k) b_k r_+^k
  r_-^(N-k)``, ``r_+- = (1 +- r)/2``, with ``b_k`` from the ``S`` recursion
  (:func:`b_coefficients`).  At ``r = P/Q`` it is one integer over
  ``D (2Q)^N``, ``D`` the common denominator of the ``b_k``, so no
  ``Fraction`` gcd runs inside its loop;
* :func:`sector_r_prime`, the sector sum over any weighted triples
  ``(j, l, J)``, with multiplicities built from binomials
  (:func:`multiplicity`) and no recursion; :func:`f_n_sector` is its
  specialization to the optimal map.

``test_f_n_is_concave_exactly`` holds the second against the Bernstein
coefficients summed directly, without :func:`_power_sum`, at ``N+1``
rational points.

Thresholds are roots of ``F_N(r) = ratio r``, bracketed by exact sign
bisection on dyadic points (:func:`crossing`); the single crossing rests on
the concavity of ``F_N``, which ``test_f_n_is_concave_exactly`` proves.

Every printed value follows one convention: the exact value at the printed
decimal ``r`` (``7/100`` for ``0.07``, not the nearest binary float),
rounded half-even to 12 significant digits in ``%.12g`` layout.  An exact
13-digit tie, such as ``p`` of ``(5, 8)`` at ``r = 0.07``, which is
``1.144405095625``, rounds to the even digit: ``1.14440509562``.

:func:`reference_csv` builds the CSV bytes of ``figure2``, ``figure3``,
``threshold``, ``scaling``, ``mstar`` and ``optimal-map`` under that
convention.  ``tests/known_diffs.json`` lists every printed cell of the
reference commands in ``perfbench/golden.json`` that differs from it.
Run as a script::

    python tests/exact.py figure2 --steps 11    # a reference table
    python tests/exact.py --sha256 figure2      # its SHA-256
    python tests/exact.py --digests             # each reference command:
        # its reference SHA-256, whether golden.json pins it, ledger rows
    python tests/exact.py --compare out.csv scaling --n 300 --m 301
        # each cell of a CSV the CLI wrote that differs, and their count
    python tests/exact.py --golden              # golden.json from the
        # reference and the ledger: each pinned command's SHA-256 of
        # its pinned_csv, in golden.json's layout

:func:`pinned_csv` puts a command's ledger cells back into its reference
table, so ``golden.json`` holds nothing that the reference and the ledger
do not: a change that mends listed cells deletes their ledger entries and
writes the output of ``--golden`` to ``golden.json``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path
from types import MappingProxyType

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "perfbench" / "golden.json"
LEDGER_PATH = Path(__file__).resolve().parent / "known_diffs.json"


# ---------------------------------------------------------------------------
# rounding


def fmt12(x) -> str:
    """``x`` rounded half-even to 12 significant digits, in ``%.12g`` layout.

    The rounded decimal has 12 digits, so the nearest double holds it
    exactly enough for ``%.12g`` to print those digits back.
    """
    x = Fraction(x)
    if x == 0:
        return "0"
    sign, x = ("-" if x < 0 else ""), abs(x)
    e = len(str(x.numerator)) - len(str(x.denominator))
    if x < Fraction(10) ** e:
        e -= 1  # now 10^e <= x < 10^(e+1)
    digits = round(x * Fraction(10) ** (11 - e))  # Fraction rounds half to even
    return sign + f"{float(digits * Fraction(10) ** (e - 11)):.12g}"


# ---------------------------------------------------------------------------
# the Bernstein route: b_k from the S recursion


@functools.lru_cache(maxsize=None)
def b_coefficients(n: int) -> tuple[Fraction, ...]:
    """``b_k = (k - N/2) S_|N-2k|`` for ``k = 0..N``, so ``F_N = E[b_K]``
    with ``K ~ Bin(N, r_+)``, from ``S_dl = 4(dl+1)/((N+dl+2)(dl+2)) +
    S_(dl+2) (N-dl)/(N+dl+2)`` and ``S_(N+2) = 0``."""
    s = {n + 2: Fraction(0)}
    for dl in range(n, -1, -2):
        ratio = Fraction(n - dl, n + dl + 2)
        s[dl] = Fraction(4 * (dl + 1), (n + dl + 2) * (dl + 2)) + s[dl + 2] * ratio
    return tuple((k - Fraction(n, 2)) * s[abs(n - 2 * k)] for k in range(n + 1))


@functools.lru_cache(maxsize=None)
def _bernstein_integers(n: int) -> tuple[tuple[int, ...], int]:
    """``(C(N,k) b_k D for k = 0..N, D)``, ``D`` the common denominator."""
    b = b_coefficients(n)
    d = lcm(*(x.denominator for x in b))
    return tuple(comb(n, k) * x.numerator * (d // x.denominator) for k, x in enumerate(b)), d


def _power_sum(weights, r: Fraction) -> int:
    """``sum_k W_k (Q+P)^k (Q-P)^(N-k)`` at ``r = P/Q`` for integer ``W_k``,
    ``k = 0..N``: ``(2Q)^N`` times ``sum_k W_k r_+^k r_-^(N-k)``, by
    homogeneous Horner from ``k = N`` down."""
    plus, minus = r.denominator + r.numerator, r.denominator - r.numerator
    total, power = 0, 1
    for w in reversed(weights):
        total = total * plus + w * power
        power *= minus
    return total


def _f_n_ratio(n: int, r: Fraction) -> tuple[int, int]:
    """``F_N(r)`` as ``(numerator, denominator)``, both ints, denominator > 0."""
    weights, d = _bernstein_integers(n)
    return _power_sum(weights, r), d * (2 * r.denominator) ** n


def f_n(n: int, r) -> Fraction:
    """``F_N(r)`` exactly, by the Bernstein route."""
    return Fraction(*_f_n_ratio(n, Fraction(r)))


def excess_sign(n: int, ratio, r) -> int:
    """Sign of ``F_N(r) - ratio r`` in exact integers (-1, 0 or 1)."""
    ratio, r = Fraction(ratio), Fraction(r)
    top, bottom = _f_n_ratio(n, r)
    diff = top * ratio.denominator * r.denominator - ratio.numerator * r.numerator * bottom
    return (diff > 0) - (diff < 0)


def crossing(n: int, ratio, key=fmt12) -> tuple[Fraction, Fraction]:
    """Dyadic bracket ``[lo, hi]`` of the root of ``F_N(r) = ratio r`` in
    ``(0, 1)``, narrowed until ``key(lo) == key(hi)``.

    Needs ``K_N > ratio > F_N(1)``.  ``lo`` is 0 or has a positive excess,
    ``hi`` a negative one; an exact root gives ``lo == hi``.
    """
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(400):
        if key(lo) == key(hi):
            return lo, hi
        mid = (lo + hi) / 2
        sign = excess_sign(n, ratio, mid)
        if sign == 0:
            return mid, mid
        lo, hi = (mid, hi) if sign > 0 else (lo, mid)
    raise ArithmeticError(f"no rounding of the root at N={n}, ratio={ratio} after 400 steps")


# ---------------------------------------------------------------------------
# the sector route: multiplicities from binomials


def multiplicity(qubits: int, d: int) -> int:
    """Number of spin-``d/2`` blocks in ``qubits`` qubits,
    ``C(q, (q-d)/2) - C(q, (q-d)/2 - 1)``."""
    k = (qubits - d) // 2
    return comb(qubits, k) - (comb(qubits, k - 1) if k else 0)


def _score(dl: int, dj: int, dJ: int) -> int:
    """``4 sigma = 4 [J(J+1) - j(j+1) - l(l+1)]``."""
    return dJ * (dJ + 2) - dj * (dj + 2) - dl * (dl + 2)


@functools.lru_cache(maxsize=None)
def optimal_triples(n: int, m: int) -> MappingProxyType:
    """Weights ``{(dj, dl, dJ): s}`` of the argmax of ``r'``, read-only.

    Per input spin ``l``, the smallest score ``sigma`` over the output spins
    ``j`` at ``J = |j - l|`` (``sigma`` grows with ``J``), the largest ``j``
    on a tie (``l = 0``), weighted ``s = (2l+1)/((2J+1) d_j)`` for a unit
    trace.
    """
    triples = {}
    for dl in range(n % 2, n + 1, 2):
        dj = min(range(m % 2, m + 1, 2), key=lambda dj: (_score(dl, dj, abs(dj - dl)), -dj))
        dJ = abs(dj - dl)
        triples[(dj, dl, dJ)] = Fraction(dl + 1, (dJ + 1) * multiplicity(m, dj))
    return MappingProxyType(triples)


def sector_r_prime(triples, n: int, m: int, r) -> Fraction:
    """``r'(r)`` of the channel with weights ``{(dj, dl, dJ): s}``.

    Sector ``l`` adds ``c_l sum_n n w(l, n)``, ``c_l = s d_j d_l (2J+1)
    sigma / (M l(l+1)(2l+1))`` (the alpha identity), where ``w(l, n) =
    r_+^k r_-^(N-k)`` at ``k = N/2 - n`` in every sector ``l >= |n|``.  So
    the power ``k`` carries ``n`` times the sum of ``c_l`` over those
    sectors, and the sum over ``k`` runs in integers over one common
    denominator.
    """
    weights, scale = _sector_weights(n, m, tuple(sorted(triples.items())))
    r = Fraction(r)
    return Fraction(_power_sum(weights, r), scale * (2 * r.denominator) ** n)


@functools.lru_cache(maxsize=None)
def _sector_weights(n: int, m: int, items: tuple) -> tuple[tuple[int, ...], int]:
    """Integer weights of ``r_+^k r_-^(N-k)`` in ``r'``, ``k = 0..N``, and
    their common denominator."""
    sector = dict.fromkeys(range(n % 2, n + 1, 2), Fraction(0))
    for (dj, dl, dJ), s in items:
        if dl:
            moment = multiplicity(m, dj) * multiplicity(n, dl) * (dJ + 1) * _score(dl, dj, dJ)
            sector[dl] += Fraction(s) * moment / (2 * m * dl * (dl + 1) * (dl + 2))
    above, running = {}, Fraction(0)
    for dl in reversed(sector):
        running = above[dl] = running + sector[dl]
    scale = lcm(*(c.denominator for c in above.values()))
    above = {dl: c.numerator * (scale // c.denominator) for dl, c in above.items()}
    return tuple((n - 2 * k) * above[abs(n - 2 * k)] for k in range(n + 1)), scale


def p_zero(triples, n: int, m: int) -> Fraction:
    """``lim r'/r = -2/(3 M 2^N) sum s d_j d_l (2J+1) sigma`` as ``r -> 0``."""
    total = sum(
        Fraction(s) * multiplicity(m, dj) * multiplicity(n, dl) * (dJ + 1) * _score(dl, dj, dJ)
        for (dj, dl, dJ), s in triples.items()
    )
    return -total / (6 * m * 2**n)


def f_n_sector(n: int, r) -> Fraction:
    """``F_N(r)`` by the sector route: the optimal ``(N, N)`` map's
    ``r' N/(N+2)``."""
    return sector_r_prime(optimal_triples(n, n), n, n, r) * Fraction(n, n + 2)


def zero_slope(n: int) -> Fraction:
    """``K_N = lim F_N(r)/r = sum_l 2l(2l+1) d_l / (3 2^N)``, from
    binomial multiplicities."""
    total = sum(dl * (dl + 1) * multiplicity(n, dl) for dl in range(n % 2, n + 1, 2))
    return Fraction(total, 3 * 2**n)


def f_n_power_coefficients(n: int) -> list[Fraction]:
    """``F_N``'s coefficients in powers of ``r``, ``r^0`` first: Newton's
    divided differences of :func:`f_n_sector` at ``r = 0..N``."""
    coef = [f_n_sector(n, x) for x in range(n + 1)]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j
    poly = [Fraction(0)] * (n + 1)
    for i in range(n, -1, -1):  # poly = poly * (r - i) + coef[i]
        poly = [(poly[k - 1] if k else 0) - i * poly[k] for k in range(n + 1)]
        poly[0] += coef[i]
    return poly


# ---------------------------------------------------------------------------
# reference CSV tables


def _present(n: int, m: int) -> bool:
    """Whether ``(N, M)`` superbroadcasts: ``p(0) = (M+2)/M K_N > 1``."""
    return (m + 2) * zero_slope(n) > m


def _curve_rows(prefix: list[str], n: int, m: int, grid: list[Fraction]) -> list[list[str]]:
    """``prefix, n, m, r, r', p`` of the optimal map, at each printed ``r``."""
    rows = []
    for point in grid:
        printed = fmt12(point)
        r = Fraction(printed)
        if m >= n:
            r_prime = Fraction(m + 2, m) * f_n(n, r)
            slope = Fraction(m + 2, m) * zero_slope(n)
        else:
            triples = optimal_triples(n, m)
            r_prime = sector_r_prime(triples, n, m, r)
            slope = p_zero(triples, n, m)
        p = r_prime / r if r else slope
        rows.append(prefix + [str(n), str(m), printed, fmt12(r_prime), fmt12(p)])
    return rows


def _grid(options: dict) -> list[Fraction]:
    lo, hi = Fraction(options.get("--r-min", "0")), Fraction(options.get("--r-max", "1"))
    steps = int(options.get("--steps", "101"))
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _range(text: str) -> range:
    lo, hi = text.split("..")
    return range(int(lo), int(hi) + 1)


def _spin(d: int) -> str:
    return str(d // 2) if d % 2 == 0 else f"{d}/2"


def _figure2(options: dict) -> list[list[str]]:
    rows = [["panel", "n", "m", "r", "r_prime", "p"]]
    grid = _grid(options)
    for n in range(10, 101, 10):
        rows += _curve_rows(["left"], n, n + 1, grid)
    for m in range(5, 10):
        rows += _curve_rows(["right"], 5, m, grid)
    return rows


def _figure3(options: dict) -> list[list[str]]:
    """Exact gaps ``1 - r*``: ``M = N+1``, and ``M = M*(N)`` or, where
    ``M*`` is unbounded (``K_N >= 1``), the ``M -> oo`` root of
    ``F_N(r) = r``."""
    rows = [["n", "gap_adjacent", "gap_maximal"]]
    for n in _range(options.get("--n-range", "4..12")):
        if not _present(n, n + 1):
            rows.append([str(n), "none", "none"])
            continue
        top = _m_star(n) if zero_slope(n) < 1 else None
        ratios = [Fraction(n + 1, n + 3), 1 if top is None else Fraction(top, top + 2)]
        rows.append([str(n)] + [_gap(crossing(n, ratio, _gap)[0]) for ratio in ratios])
    return rows


def _gap(r: Fraction) -> str:
    return fmt12(1 - r)


def _threshold(options: dict) -> list[list[str]]:
    n, m = int(options["--n"]), int(options["--m"])
    value = fmt12(crossing(n, Fraction(m, m + 2))[0]) if _present(n, m) else "none"
    return [["n", "m", "r_star"], [str(n), str(m), value]]


def _scaling(options: dict) -> list[list[str]]:
    n, grid = int(options["--n"]), _grid(options)
    ms = _range(options["--m-range"]) if "--m-range" in options else [int(options["--m"])]
    rows = [["n", "m", "r", "r_prime", "p"]]
    for m in ms:
        rows += _curve_rows([], n, m, grid)
    return rows


def _m_star(n: int) -> int:
    """Largest ``M`` with ``(M+2) K_N > M`` for ``K_N < 1``, by walking up
    from ``N`` (``N`` itself when no ``M > N`` qualifies)."""
    m = n
    while _present(n, m + 1):
        m += 1
    return m


def _mstar(options: dict) -> list[list[str]]:
    n, cap = int(options["--n"]), int(options.get("--cap", "200"))
    if zero_slope(n) >= 1:
        value = f">={max(cap, n + 1)}"
    else:
        m = _m_star(n)
        value = f">={cap}" if m >= cap else str(m)
    return [["n", "m_star"], [str(n), value]]


def _optimal_map(options: dict) -> list[list[str]]:
    rows = [["input_spin", "output_spin", "coupled_spin"]]
    for dj, dl, dJ in optimal_triples(int(options["--n"]), int(options["--m"])):
        rows.append([_spin(dl), _spin(dj), _spin(dJ)])
    return rows


_OPTIONS = {"--n", "--m", "--m-range", "--n-range", "--r-min", "--r-max", "--steps", "--tol",
            "--cap", "--r"}

_TABLES = {
    "figure2": _figure2,
    "figure3": _figure3,
    "threshold": _threshold,
    "scaling": _scaling,
    "mstar": _mstar,
    "optimal-map": _optimal_map,
}


def reference_csv(argv) -> str:
    """The exact CSV text of one CLI command line (a string or a list).

    Options are ``--name value`` pairs with the CLI's defaults; ``--tol``
    and ``--r`` are accepted and change nothing, since the reference holds
    exact values.
    """
    argv = argv.split() if isinstance(argv, str) else list(argv)
    return _reference_csv(tuple(argv))


@functools.lru_cache(maxsize=None)
def _reference_csv(argv: tuple[str, ...]) -> str:
    command, options = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if command not in _TABLES or len(argv) % 2 == 0 or not set(options) <= _OPTIONS:
        raise ValueError(f"no reference for {' '.join(argv)!r}")
    rows = _TABLES[command](options)
    return "\n".join(",".join(row) for row in rows) + "\n"


# Columns that name a row rather than hold a computed value.
KEY_COLUMNS = frozenset({"panel", "n", "m", "r", "input_spin"})


def _row_key(cells: list[str], header: list[str]) -> str:
    """The cells of a CSV row that name it, as the ledger's ``row``."""
    return ",".join(cell for cell, name in zip(cells, header) if name in KEY_COLUMNS)


def pinned_csv(argv) -> str:
    """:func:`reference_csv` of ``argv`` with each of the command's ledger
    cells put back to its printed bytes; :class:`ValueError` when a ledger
    cell is not in the table or does not hold its ``exact`` bytes there."""
    argv = argv if isinstance(argv, str) else " ".join(argv)
    ledger = json.loads(LEDGER_PATH.read_text())
    listed = {(e["row"], e["column"]): e for e in ledger if e["argv"] == argv}
    lines = reference_csv(argv).splitlines()
    header = lines[0].split(",")
    rows = [header]
    for line in lines[1:]:
        cells = line.split(",")
        row = _row_key(cells, header)
        for i, name in enumerate(header):
            entry = listed.pop((row, name), None)
            if entry is not None:
                if cells[i] != entry["exact"]:
                    raise ValueError(f"ledger cell {row} {name} of {argv!r} is {cells[i]}")
                cells[i] = entry["printed"]
        rows.append(cells)
    if listed:
        raise ValueError(f"ledger cells not in the table of {argv!r}: {sorted(listed)}")
    return "\n".join(",".join(row) for row in rows) + "\n"


def golden() -> str:
    """``golden.json`` as the reference and the ledger give it: the SHA-256
    of :func:`pinned_csv` for each command that file pins, in its layout."""
    pinned = json.loads(GOLDEN_PATH.read_text())
    digests = {argv: hashlib.sha256(pinned_csv(argv).encode()).hexdigest() for argv in pinned}
    return json.dumps(digests, indent=2) + "\n"


def differing_cells(argv, printed: str) -> list[dict]:
    """One ledger entry per cell where the CSV text ``printed`` differs from
    :func:`reference_csv` of ``argv``; :class:`ValueError` when the two
    tables do not line up row for row."""
    argv = argv if isinstance(argv, str) else " ".join(argv)
    got = [line.split(",") for line in printed.splitlines()]
    want = [line.split(",") for line in reference_csv(argv).splitlines()]
    if len(got) != len(want) or got[0] != want[0]:
        raise ValueError(f"not the table of {argv!r}: rows or header differ")
    header = got[0]
    cells = []
    for got_row, want_row in zip(got[1:], want[1:]):
        if not len(got_row) == len(want_row) == len(header):
            raise ValueError(f"not the table of {argv!r}: row {','.join(got_row)}")
        row = _row_key(got_row, header)
        cells += [
            {"argv": argv, "row": row, "column": name, "printed": g, "exact": w}
            for name, g, w in zip(header, got_row, want_row)
            if g != w
        ]
    return cells


def compare(path: str, argv: list[str]) -> int:
    """Print each cell of the CSV file ``path`` that differs from the
    reference table of ``argv``, then the count; 1 if the file cannot be
    read as that table, else 0."""
    try:
        printed = Path(path).read_text()
        cells = differing_cells(argv, printed)
    except (OSError, ValueError) as exc:
        print(f"exact.py: cannot compare {path}: {exc}", file=sys.stderr)
        return 1
    for cell in cells:
        print(f"{cell['row']} {cell['column']}: printed {cell['printed']}, exact {cell['exact']}")
    lines = printed.splitlines()
    values = (len(lines) - 1) * sum(name not in KEY_COLUMNS for name in lines[0].split(","))
    print(f"{len(cells)} of {values} printed values differ from the exact reference")
    return 0


def sha256(argv) -> str:
    return hashlib.sha256(reference_csv(argv).encode()).hexdigest()


def digests() -> list[str]:
    """One line per command of ``perfbench/golden.json``: its reference
    SHA-256, whether the pinned digest equals it, and its ledger rows."""
    golden = json.loads(GOLDEN_PATH.read_text())
    ledger = json.loads(LEDGER_PATH.read_text())
    lines = []
    for argv, pinned in golden.items():
        digest = sha256(argv)
        rows = sum(entry["argv"] == argv for entry in ledger)
        state = "equals" if digest == pinned else "differs from"
        lines.append(f"{argv}: reference {digest} {state} golden.json; {rows} ledger rows")
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--digests"]:
        print("\n".join(digests()))
    elif argv == ["--golden"]:
        sys.stdout.write(golden())
    elif argv[:1] == ["--sha256"]:
        print(sha256(argv[1:]))
    elif argv[:1] == ["--compare"] and len(argv) > 2:
        return compare(argv[1], argv[2:])
    else:
        sys.stdout.write(reference_csv(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
