"""Purity thresholds r*, maximal output counts M*, and power-law fits."""

import hashlib
import time
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from superbroadcast import analysis, thresholds
from superbroadcast.analysis import (
    _binomial_coefficients,
    _central_binomial,
    _f_n,
    _zero_slope,
    half_spin_scaling_at_zero,
    scaling_profile,
)
from superbroadcast.thresholds import (
    GRID_STEPS,
    MStarResult,
    PowerLawFit,
    ThresholdResult,
    asymptotic_fit,
    limiting_threshold,
    m_star,
    r_star,
)


def test_threshold_four_to_five():
    result = r_star(4, 5)
    assert result.exists
    assert abs(result.r_star - 0.786796) < 1e-5
    assert result.bracket_width <= 1e-6


def test_threshold_absent_for_few_inputs():
    for n in (1, 2, 3):
        for m in range(n + 1, 8):
            result = r_star(n, m)
            assert not result.exists
            assert result.r_star is None


def test_threshold_argument_validation():
    with pytest.raises(ValueError):
        r_star(4, 4)  # need more outputs than inputs
    with pytest.raises(ValueError):
        r_star(0, 5)
    with pytest.raises(ValueError):
        r_star(4, 5, tol=1e-12)  # tighter than the supported resolution
    with pytest.raises(ValueError):
        r_star(4, 5, tol=float("nan"))  # fails every comparison of the bisection


def test_threshold_bisection_postcondition():
    for n, m in [(4, 5), (5, 6), (6, 8)]:
        result = r_star(n, m)
        profile = scaling_profile(n, m)
        # the p = 1 crossing sits within a few bracket widths of r*
        below = max(result.r_star - 10 * result.bracket_width, 0.0)
        above = min(result.r_star + 10 * result.bracket_width, 1.0)
        assert profile.p(below) >= 1.0
        assert profile.p(above) < 1.0


def test_threshold_grows_with_inputs():
    values = [r_star(n, n + 1).r_star for n in range(4, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_shrinks_with_outputs():
    values = [r_star(4, m).r_star for m in (5, 6, 7)]
    assert all(b < a for a, b in zip(values, values[1:]))
    # the window closes exactly at the maximal output count
    assert abs(values[-1] - 1.0 / 3.0) < 1e-5  # r*(4,7) = 1/3
    assert not r_star(4, 8).exists
    assert r_star(5, 21).exists
    assert not r_star(5, 22).exists


def test_m_star_counts():
    none_case = m_star(2)
    assert none_case.m_star == 2
    assert not none_case.any_output_count
    assert not none_case.capped
    four = m_star(4)
    assert (four.m_star, four.capped) == (7, False)
    assert four.any_output_count
    capped = m_star(6, cap=50)
    assert capped.capped
    assert capped.m_star == 50


def test_zero_slope_bounds_f_over_r_exactly():
    # g(r) = K_N - F_N(r)/r >= 0 on [0, 1] wherever K_N < 1 (N <= 5), so
    # p(r) <= p(0) there and presence is (M+2) K_N > M
    expected = {
        1: {},
        2: {},
        3: {2: Fraction(1, 15)},
        4: {2: Fraction(1, 8)},
        5: {2: Fraction(7, 30), 4: Fraction(-13, 420)},
    }
    for n, want in expected.items():
        f = exact.f_n_power_coefficients(n)
        assert f[0] == 0
        k = f[1]
        assert k == _zero_slope(n) == exact.zero_slope(n) < 1
        # power coefficients of g(r), r^0 first, padded to r^2
        g = [k - f[1]] + [-c for c in f[2:]] + [Fraction(0)] * 2
        assert {i: c for i, c in enumerate(g) if c} == want
        assert g[2] >= sum(abs(c) for c in g[3:])
        # the test-side F_N is the package's curve with the M factor removed
        rs = np.linspace(0.0, 1.0, 9)
        f_float = sum(float(c) * rs**i for i, c in enumerate(f))
        for m in range(n, n + 4):
            got = scaling_profile(n, m).r_prime(rs) * m / (m + 2)
            assert np.allclose(got, f_float, rtol=1e-13, atol=1e-15)


def test_zero_slope_increases_with_inputs():
    # multiplicities by adding one qubit at a time: d'(l) = d(l - 1/2) + d(l + 1/2)
    d = {1: 1}  # doubled spin -> multiplicity, one qubit
    previous = None
    for n in range(1, 401):
        k = Fraction(sum(dl * (dl + 1) * c for dl, c in d.items()), 3 * 2**n)
        assert k == _zero_slope(n)
        if previous is not None:
            # E[l] rises by E[1/(2(2l+1))] = sum_l d_l / 2^(N+1) per added qubit
            assert k - previous == Fraction(sum(last.values()), 3 * 2 ** (n - 1)) > 0
        previous, last = k, d
        d = {}
        for dl, c in last.items():
            for child in (dl - 1, dl + 1):
                if child >= 0:
                    d[child] = d.get(child, 0) + c
    assert _zero_slope(5) == Fraction(11, 12) < 1 <= _zero_slope(6) == Fraction(49, 48)


def test_zero_slope_closed_form_at_large_n():
    # one binomial coefficient, where the sector sum took minutes at N = 10^5
    n, m = 10**5, 10**5 + 1
    start = time.perf_counter()
    exact = half_spin_scaling_at_zero(n, m)
    assert time.perf_counter() - start < 1.0
    leading = (m + 2) / m * (2 * np.sqrt(2 * n / np.pi) - 1) / 3
    assert abs(float(exact) / leading - 1) < 1e-5


def test_central_binomial_from_prime_exponents_matches_comb():
    # Legendre's exponents in a balanced product; math.comb is the reference
    for n in range(2001):
        assert _central_binomial(n) == comb(n, n // 2), n
    assert _central_binomial(10**5) == comb(10**5, 10**5 // 2)


def _bernstein_on_unit_r(n):
    """F_N's Bernstein coefficients in r on [0, 1], each times one positive
    integer, and that integer.

    F_N = E[b_K], K ~ Bin(N, x), is the Bernstein polynomial with
    coefficients b_k in x = (1+r)/2, so its coefficients on x in [1/2, 1]
    are those in r on [0, 1].  De Casteljau subdivision at x = 1/2 gives
    them, here in integers: neighbour sums in place of midpoints make row t
    of the triangle 2^t times the true one.
    """
    b = exact.b_coefficients(n)
    scale = lcm(*(x.denominator for x in b))
    row = [int(x * scale) for x in b]
    right = [row[-1]]
    while len(row) > 1:
        row = [x + y for x, y in zip(row, row[1:])]
        right.append(row[-1])
    # c_i is the last entry of row N-i over 2^(N-i)
    return [v << i for i, v in enumerate(reversed(right))], scale << n


def test_f_n_is_concave_exactly():
    # F_N'' has Bernstein coefficients N(N-1) Delta^2 c_i.  Delta^2 c_0 = 0
    # (F_N is odd) and every other one is negative, so F_N is concave on
    # [0, 1], F_N(0) = c_0 = 0 makes F_N(r)/r non-increasing, and p = 1 has
    # a single crossing: a proof for every N up to 202, which covers the
    # CLI's defaults and every N the large-n-thresholds benchmark draws, and
    # for the N past it that the README's measured range and the CLI corner
    # sweep use
    for n in [*range(2, 203), 1030, 1034, 1100]:
        # the package's float recursion computes the same b_k
        b = [float(x) for x in exact.b_coefficients(n)]
        assert np.allclose(b, _binomial_coefficients(n), rtol=0, atol=1e-14)
        c, scale = _bernstein_on_unit_r(n)
        second = [x - 2 * y + z for x, y, z in zip(c, c[1:], c[2:])]
        assert c[0] == 0 and second[0] == 0, f"N={n}"
        assert all(d < 0 for d in second[1:]), f"F_N not strictly concave at N={n}"
        if n > 12:
            continue
        # the recursion-built Bernstein form equals the multiplicity-built
        # sector sum at N+1 distinct points, so the two polynomials agree
        for i in range(n + 1):
            r = Fraction(i, n)
            bernstein = sum(comb(n, k) * ck * r**k * (1 - r) ** (n - k) for k, ck in enumerate(c))
            assert bernstein == scale * exact.f_n_sector(n, r), f"N={n}, r={r}"


def test_r_prime_factorizes_over_outputs():
    rs = np.linspace(0.05, 1.0, 20)
    for n in (4, 5, 12, 40):
        curves = [
            scaling_profile(n, m).curve.r_prime(rs) * m / (m + 2)
            for m in (n, n + 1, 2 * n, 5 * n)
        ]
        for curve in curves[1:]:
            assert np.allclose(curve, curves[0], rtol=1e-13, atol=0.0)


def _present_by_scan(n, m):
    """Brute-force presence: exact p(0) > 1, or p > 1 anywhere on the scan grid."""
    if half_spin_scaling_at_zero(n, m) > 1:
        return True
    grid = np.arange(1, GRID_STEPS + 1) / GRID_STEPS
    return bool(np.any(scaling_profile(n, m).p(grid) > 1.0))


def test_m_star_matches_explicit_walk():
    for n in range(1, 15):
        for cap in sorted({n + 1, n + 5, 40, 120}):
            if cap <= n:
                continue
            last, capped = n, True
            for m in range(n + 1, cap + 1):
                if not _present_by_scan(n, m):
                    capped = False
                    break
                last = m
            assert m_star(n, cap=cap) == MStarResult(n, last, cap, capped)


def _refuse(monkeypatch, owner, name):
    def refuse(*args):
        raise AssertionError(f"called {name} with {args}")

    monkeypatch.setattr(owner, name, refuse)


def _refuse_curves(monkeypatch):
    """Make building any profile, curve or extremal map of one an error."""
    assert not hasattr(thresholds, "scaling_profile")
    for name in ("scaling_profile", "_cached_curve"):
        _refuse(monkeypatch, analysis, name)
    for cls in (analysis.ScalingProfile, analysis.BlochCurve, analysis.ExtremalMap):
        _refuse(monkeypatch, cls, "__init__")


def test_m_star_answers_unbounded_inputs_without_walking(monkeypatch):
    _refuse(monkeypatch, thresholds, "_f_n")
    for n in range(1, 15):
        for cap in (n + 1, n + 2, 7, 8, 21, 22, 200, 10**9):
            if cap > n:
                m_star(n, cap=cap)
    # p(0) = (M+2)/M * K_N and K_6 = 49/48 >= 1: present at every M
    assert m_star(6, cap=10**9) == MStarResult(6, 10**9, 10**9, True)
    assert m_star(59, cap=60) == MStarResult(59, 60, 60, True)
    assert m_star(5, cap=10**9) == MStarResult(5, 21, 10**9, False)
    # an unbounded M* answers "at least N+1" past the cap
    assert m_star(10**5) == MStarResult(10**5, 10**5 + 1, 200, True)
    assert m_star(6, cap=3) == MStarResult(6, 7, 3, True)
    # a bounded M* still needs a cap above N
    with pytest.raises(ValueError):
        m_star(5, cap=5)
    # nor does r_star on an absent pair
    assert not r_star(4, 8).exists
    assert not r_star(3, 10**6).exists


# bisection halves [0, 1] down to min(tol, 1/GRID_STEPS) in this many steps
BISECTION_DEPTH = {0.01: 9, 1e-6: 20, 1e-8: 27, 1e-10: 34}


def test_r_star_evaluates_f_n_at_scalars_only(monkeypatch):
    calls = []

    def counted(n, r):
        assert np.ndim(r) == 0, f"F_N evaluated at an array of shape {np.shape(r)}"
        calls.append(r)
        return _f_n(n, r)

    monkeypatch.setattr(thresholds, "_f_n", counted)
    # never more evaluations than the bisection's one per halving, and few
    # on average: the tangent at r = 1 and the secants land next to r*
    default_counts = []
    for tol, depth in BISECTION_DEPTH.items():
        for n in range(4, 205):
            for m in sorted({n + 1, n + 2, n + 3, n + 4, 7, 21, 1024, 2048}):
                if m <= n:
                    continue
                calls.clear()
                r_star(n, m, tol=tol)
                assert len(calls) <= depth, (n, m, tol, len(calls))
                if tol == 1e-6 and n >= 6 and m in (n + 1, n + 2, n + 3, n + 4, 1024, 2048):
                    default_counts.append(len(calls))
    assert len(default_counts) == 199 * 6
    assert np.mean(default_counts) <= 6
    # 4 -> 8 has p(0) < 1 exactly: decided without evaluating F_N
    calls.clear()
    assert not r_star(4, 8).exists
    assert calls == []


def _bisection_cells(n, m, depths):
    """``(midpoint, width)`` of the plain bisection on ``F_N(r) >= ratio * r``
    from ``[0, 1]`` after each number of halvings in ``depths``.

    This is the loop ``r_star`` ran before its grid-cell search; a deeper
    run passes through every shallower one, so one run serves all depths.
    """
    ratio = m / (m + 2)
    lo, hi = 0.0, 1.0
    cells = {}
    for depth in range(1, max(depths) + 1):
        mid = 0.5 * (lo + hi)
        if _f_n(n, mid) >= ratio * mid:
            lo = mid
        else:
            hi = mid
        if depth in depths:
            cells[depth] = (0.5 * (lo + hi), hi - lo)
    return cells


def test_r_star_equals_plain_bisection_bit_for_bit():
    # every N up to 66 (the CLI's defaults and the benchmark's N ~ 64),
    # every third N above it, and each N around the large-n-thresholds draws
    large = {c + d for c in (84, 108, 136, 168, 200) for d in range(-2, 3)}
    ns = sorted({*range(1, 67), *range(67, 205, 3), *large})
    pairs = [(n, m) for n in ns for m in sorted({n + 1, n + 2, n + 4, 2 * n, 1024, 2048}) if m > n]
    pairs += [(n, n + 1) for n in (10**3, 10**4, 10**5)]
    start = time.perf_counter()
    for n, m in pairs:
        present = half_spin_scaling_at_zero(n, m) > 1
        cells = _bisection_cells(n, m, set(BISECTION_DEPTH.values())) if present else None
        for tol, depth in BISECTION_DEPTH.items():
            result = r_star(n, m, tol=tol)
            if not present:
                assert result.r_star is None, (n, m, tol)
                continue
            mid, width = cells[depth]
            assert result.r_star.hex() == mid.hex(), (n, m, tol)
            assert result.bracket_width == width, (n, m, tol)
    assert time.perf_counter() - start < 3.0


def _passes(n, m, r):
    return _f_n(n, r) >= m / (m + 2) * r


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 400),
    extra=st.integers(1, 5000),
    tol=st.floats(1e-10, 0.5),
)
def test_r_star_returns_the_sign_change_cell(n, extra, tol):
    m = n + extra
    result = r_star(n, m, tol=tol)
    if result.r_star is None:
        assert half_spin_scaling_at_zero(n, m) <= 1
        return
    width = result.bracket_width
    assert width <= min(tol, 1 / GRID_STEPS) < 2 * width
    left, right = result.r_star - width / 2, result.r_star + width / 2
    assert (left / width).is_integer()
    assert left == 0.0 or _passes(n, m, left)
    assert right == 1.0 or not _passes(n, m, right)


# every N the large-n-thresholds benchmark draws: its six centres +-2
BENCHMARK_NS = [c + d for c in (64, 84, 108, 136, 168, 200) for d in range(-2, 3)]


def test_r_star_cells_are_certified_in_exact_arithmetic():
    # F_N(r) - M/(M+2) r, in exact integers by the test-side Bernstein form,
    # is >= 0 at each reported cell's left end (or that end is 0) and <= 0
    # at its right end (or that end is 1): every N <= 60 with M in
    # N+1..N+4, and the benchmark's N with M in N+1..N+2
    cases = [(n, n + k) for n in range(1, 61) for k in range(1, 5)]
    cases += [(n, n + k) for n in BENCHMARK_NS for k in (1, 2)]
    certified = 0
    for n, m in cases:
        for tol in (1e-6, 1e-10):
            result = r_star(n, m, tol=tol)
            if not result.exists:
                continue
            half = Fraction(result.bracket_width) / 2
            left, right = Fraction(result.r_star) - half, Fraction(result.r_star) + half
            ratio = Fraction(m, m + 2)
            assert left == 0 or exact.excess_sign(n, ratio, left) >= 0, (n, m, tol)
            assert right == 1 or exact.excess_sign(n, ratio, right) <= 0, (n, m, tol)
            certified += 1
    assert certified == 454 + 4 * len(BENCHMARK_NS)


def test_presence_reads_zero_slope_only_up_to_five(monkeypatch):
    # K_N increases with N and K_6 > 1 (test_zero_slope_increases_with_inputs),
    # so from N = 6 on presence is certain and reads no K_N
    asked = []

    def recording(n):
        asked.append(n)
        return _zero_slope(n)

    monkeypatch.setattr(thresholds, "_zero_slope", recording)
    for n in range(1, 13):
        m_star(n)
        r_star(n, n + 1, tol=0.01)
        r_star(n, 10**6, tol=0.01)
        if n <= 5:
            with pytest.raises(ValueError):
                limiting_threshold(n)
    limiting_threshold(6, tol=0.01)
    assert set(asked) == {1, 2, 3, 4, 5}
    start = time.perf_counter()
    assert m_star(10**5, cap=10**5 + 1) == MStarResult(10**5, 10**5 + 1, 10**5 + 1, True)
    assert time.perf_counter() - start < 0.1


def test_r_star_keeps_its_bits():
    # every (r*, bracket width) for N = 1..220 and M in {N+1, N+2, 2N} at the
    # default tol, as F_N gave them before it read its pmf ratios from a table
    digest = hashlib.sha256()
    for n in range(1, 221):
        for m in (n + 1, n + 2, 2 * n):
            result = r_star(n, m)
            value = "none" if result.r_star is None else result.r_star.hex()
            digest.update(f"{n},{m},{value},{result.bracket_width.hex()}\n".encode())
    assert digest.hexdigest() == "3e5376c9a39180a4124e60b171d8c7f7ae955a85252e7fbc27d889acad9e0f90"


def test_threshold_fields_are_plain_floats():
    present, absent = r_star(4, 5), r_star(4, 8)
    assert type(present.r_star) is float
    assert type(present.bracket_width) is float
    assert absent.r_star is None
    assert type(absent.bracket_width) is float
    assert repr(present.r_star) == "0.7867960929870605"


def test_r_star_matches_uncached_scan():
    # reference without the single-crossing assumption: scan p - 1 on 1/512
    # cells, take the sign change at the largest r, bisect that cell to tol;
    # it reads each pair's own (N, M) curve, where r_star reads (N, N+1)
    grid = np.arange(GRID_STEPS + 1) / GRID_STEPS
    pairs = [
        (n, m)
        for n in (2, 4, 5, 7, 12, 19, 26, 33, 40, 64, 108, 200)
        for m in (n + 1, n + 3, 2 * n + 1)
    ]
    # and every pair figure3 bisects
    pairs += [(4, 7), (5, 21)] + [(n, m) for n in range(6, 13) for m in (1024, 2048)]
    for n, m in pairs:
        # the per-sector curve, not F_N, which the profile takes from N = 101
        profile = scaling_profile(n, m).curve
        ps = profile.p(grid)
        above = ps >= 1.0
        crossings = np.flatnonzero(above[:-1] & ~above[1:])
        for tol in (1e-6, 1e-8, 0.01):
            result = r_star(n, m, tol=tol)
            if crossings.size == 0 or not np.any(ps > 1.0):
                assert not result.exists
                continue
            lo, hi = grid[crossings[-1]], grid[crossings[-1] + 1]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if profile.p(mid) >= 1.0 else (lo, mid)
            assert (result.r_star, result.bracket_width) == (0.5 * (lo + hi), hi - lo)


def test_scaling_factor_never_increases_on_grid():
    # p = (M+2)/M * F_N(r)/r has an M-free shape in r
    # (test_r_prime_factorizes_over_outputs), so one M per N covers every
    # pair: p - 1 changes sign at most once, which r_star's bisection needs.
    # Every N up to 66 (the CLI's defaults and the benchmark's N ~ 64), and
    # each N the large-n-thresholds benchmark draws around 84, ..., 200, on
    # the per-sector curve.
    grid = np.arange(GRID_STEPS + 1) / GRID_STEPS
    large = [c + d for c in (84, 108, 136, 168, 200) for d in range(-2, 3)]
    for n in [*range(1, 67), *large]:
        steps = np.diff(scaling_profile(n, n + 1).curve.p(grid))
        assert np.max(steps) <= 1e-12, f"p rises by {np.max(steps)} at N={n}"
    # on to N = 10^5 through F_N itself, where the root sits at a gap
    # 1 - r* ~ 2/N^2 far inside the last cell
    rs = np.union1d(grid[1:], 1.0 - 10.0 ** -np.arange(2, 13))
    for n in (300, 10**3, 10**4, 10**5):
        steps = np.diff([_f_n(n, r) / r for r in rs])
        assert np.max(steps) <= 1e-12, f"F_N/r rises by {np.max(steps)} at N={n}"


def _recording(monkeypatch, name):
    """Record the ``(N, M)`` of each call to ``thresholds.<name>``."""
    original = getattr(thresholds, name)
    requested = []

    def recording(n, m, *args):
        requested.append((n, m))
        return original(n, m, *args)

    monkeypatch.setattr(thresholds, name, recording)
    return requested


def test_r_star_builds_no_curve(monkeypatch):
    _refuse_curves(monkeypatch)
    for n in (4, 12, 40):
        for m in (n + 3, 2 * n + 1, 1024, 2048, 10**6):
            r_star(n, m)


def test_limiting_threshold_uses_last_two_rungs(monkeypatch):
    _refuse_curves(monkeypatch)
    rungs = _recording(monkeypatch, "r_star")
    limiting_threshold(6)
    assert set(rungs) == {(6, 1024), (6, 2048)}


def test_limiting_threshold_extrapolates_at_every_size(monkeypatch):
    rungs = []

    def stub(n, m, tol=1e-6):
        rungs.append(m)
        return ThresholdResult(n, m, 1.0 - 64.0 / m, 0.0)

    monkeypatch.setattr(thresholds, "r_star", stub)
    for n, low in ((6, 1024), (1023, 1024), (1024, 2048), (1500, 3000), (2047, 4094),
                   (2048, 4096), (5000, 10000)):
        rungs.clear()
        a, b = 1.0 - 64.0 / low, 1.0 - 32.0 / low
        assert limiting_threshold(n) == b + (b - a)
        assert rungs == [low, 2 * low]


def test_limiting_threshold_bounds():
    # thresholds decrease with M, so the M -> infinity limit sits just
    # below the last finite-M value used by the extrapolation
    finite = r_star(6, 2048).r_star
    limit = limiting_threshold(6)
    assert limit < finite
    assert finite - limit < 1e-2
    # regression guard on the extrapolated value
    assert abs(limit - 0.25163) < 1e-3


def test_limiting_threshold_refuses_bounded_inputs(monkeypatch):
    _refuse(monkeypatch, thresholds, "_f_n")
    for n, k in ((1, "1/3"), (4, "19/24"), (5, "11/12")):
        with pytest.raises(ValueError, match=f"no M -> oo limit at N={n}: p\\(0\\) -> K_N = {k}"):
            limiting_threshold(n)


def test_asymptotic_fit_adjacent_smoke():
    fit = asymptotic_fit(range(20, 51, 10), "adjacent")
    assert isinstance(fit, PowerLawFit)
    assert -2.4 < fit.slope < -1.6
    assert 1.0 < fit.prefactor < 4.0


def test_asymptotic_fit_validation():
    with pytest.raises(ValueError):
        asymptotic_fit([20, 30], "sideways")
    with pytest.raises(ValueError):
        asymptotic_fit([5, 20, 30], "adjacent")  # fit region starts at N = 10
    with pytest.raises(ValueError):
        asymptotic_fit([20], "adjacent")  # a line needs two points


def test_asymptotic_fit_refuses_gaps_tol_cannot_resolve():
    # 1 - r*(N, N+1) ~ 2/N^2 is 2e-6 at N = 10^3, only twice the default tol
    with pytest.raises(ValueError, match=r"gap .* at N=1000 is below 100 \* tol, tol=1e-06"):
        asymptotic_fit([10**3, 10**4, 10**5], "adjacent")
    fit = asymptotic_fit([10**3, 10**4], "adjacent", tol=1e-10)
    assert abs(fit.slope + 2.0) < 1e-3


def test_gap_follows_inverse_square_pointwise():
    # 1 - r*(N, N+1) within 25% of 2/N^2 already at moderate N
    for n in (30, 60):
        gap = 1.0 - r_star(n, n + 1).r_star
        assert 0.75 * 2.0 / n**2 < gap < 1.25 * 2.0 / n**2
