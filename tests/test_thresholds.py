"""Purity thresholds r*, maximal output counts M*, and power-law fits."""

import numpy as np
import pytest

from superbroadcast import thresholds
from superbroadcast.analysis import scaling_profile
from superbroadcast.thresholds import (
    GRID_STEPS,
    MStarResult,
    PowerLawFit,
    _grid_scan,
    _has_superbroadcasting,
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


def test_m_star_matches_explicit_walk():
    for n in range(1, 15):
        for cap in sorted({n + 1, n + 5, 40, 120}):
            if cap <= n:
                continue
            last, capped = n, True
            for m in range(n + 1, cap + 1):
                if not _has_superbroadcasting(n, m):
                    capped = False
                    break
                last = m
            assert m_star(n, cap=cap) == MStarResult(n, last, cap, capped)


def test_m_star_answers_unbounded_inputs_without_walking(monkeypatch):
    def refuse(n, m):
        raise AssertionError(f"walked to M={m}")

    # p(0) = (M+2)/M * K_N and K_6 = 196/192 >= 1: present at every M
    monkeypatch.setattr(thresholds, "_has_superbroadcasting", refuse)
    assert m_star(6, cap=10**9) == MStarResult(6, 10**9, 10**9, True)
    assert m_star(59, cap=60) == MStarResult(59, 60, 60, True)


def test_grid_scan_runs_once_per_pair():
    _grid_scan.cache_clear()
    # 4 -> 8 has p(0) < 1, so both r_star and the M* walk read the scan
    assert not r_star(4, 8).exists
    assert not r_star(4, 8).exists
    assert m_star(4, cap=8).m_star == 7
    info = _grid_scan.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    ps = _grid_scan(4, 8)
    assert not ps.flags.writeable
    with pytest.raises(ValueError):
        ps[0] = 2.0


def test_r_star_matches_uncached_scan():
    grid = np.arange(GRID_STEPS + 1) / GRID_STEPS
    for n in (2, 4, 5, 7, 12, 19, 26, 33, 40):
        for m in (n + 1, n + 3, 2 * n + 1):
            profile = scaling_profile(n, m)
            ps = profile.p(grid)
            above = ps >= 1.0
            crossings = np.flatnonzero(above[:-1] & ~above[1:])
            result = r_star(n, m)
            if crossings.size == 0 or not np.any(ps > 1.0):
                assert not result.exists
                continue
            lo, hi = grid[crossings[-1]], grid[crossings[-1] + 1]
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if profile.p(mid) >= 1.0 else (lo, mid)
            assert (result.r_star, result.bracket_width) == (0.5 * (lo + hi), hi - lo)


def test_limiting_threshold_bounds():
    # thresholds decrease with M, so the M -> infinity limit sits just
    # below the last finite-M value used by the extrapolation
    finite = r_star(6, 2048).r_star
    limit = limiting_threshold(6)
    assert limit < finite
    assert finite - limit < 1e-2
    # regression guard on the extrapolated value
    assert abs(limit - 0.25163) < 1e-3


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


def test_gap_follows_inverse_square_pointwise():
    # 1 - r*(N, N+1) within 25% of 2/N^2 already at moderate N
    for n in (30, 60):
        gap = 1.0 - r_star(n, n + 1).r_star
        assert 0.75 * 2.0 / n**2 < gap < 1.25 * 2.0 / n**2
