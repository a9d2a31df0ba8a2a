"""The band-form log-factorial kernel keeps every bit of the index-gather one.

``_index_gather_moments`` below is the earlier body of
``analysis._moments_fast`` kept verbatim as the reference: the golden
``figure2`` digest pins the last bits of its output, so the rewrite, which
computes only the nonzero band ``|n + m| <= J`` of each square in sheared
views, must repeat its per-entry IEEE operations in the same order and
leave exact zeros off the band.
"""

import math
import tracemalloc

import numpy as np
import pytest

from superbroadcast import analysis, cli
from superbroadcast.analysis import (
    FAST_KERNEL_MAX_SIZE,
    BlochCurve,
    _log_factorials,
    _moments_fast,
)
from superbroadcast.channels import conjectured_optimal_map


def _index_gather_moments(dl, dj, dJ):
    table = _log_factorials(dj + dl + 2)
    dm = np.arange(-dj, dj + 1, 2)
    dn = np.arange(-dl, dl + 1, 2)
    dmt = dn[:, None] + dm[None, :]
    if dj >= dl:
        d_big, dm_big = dj, dm[None, :]
        d_small, dm_small = dl, dn[:, None]
    else:
        d_big, dm_big = dl, dn[:, None]
        d_small, dm_small = dj, dm[None, :]
    ok = np.abs(dmt) <= dJ
    idx_p = np.where(ok, (dJ + dmt) // 2, 0)
    idx_m = np.where(ok, (dJ - dmt) // 2, 0)
    log_square = (
        math.log(dJ + 1)
        + table[d_small]
        + table[dJ]
        - table[d_big + 1]
        + table[(d_big + dm_big) // 2]
        + table[(d_big - dm_big) // 2]
        - table[(d_small + dm_small) // 2]
        - table[(d_small - dm_small) // 2]
        - table[idx_p]
        - table[idx_m]
    )
    square = np.exp(np.where(ok, log_square, -np.inf))
    mass = square.sum(axis=1)
    pol = (square * dm[None, :]).sum(axis=1)
    return mass, pol


# both branches (dj >= dl and dj < dl), both parities of dl + dj, sizes to 300
_SIDES = (0, 1, 2, 3, 5, 8, 12, 13, 24, 31, 47, 64, 99, 150, 151, 200, 299)


@pytest.mark.parametrize("dl", _SIDES)
def test_moments_bits_match_index_gather_kernel(dl):
    for dj in _SIDES:
        dJ = abs(dj - dl)
        mass, pol = _moments_fast(dl, dj, dJ)
        ref_mass, ref_pol = _index_gather_moments(dl, dj, dJ)
        assert mass.tobytes() == ref_mass.tobytes(), (dl, dj)
        assert pol.tobytes() == ref_pol.tobytes(), (dl, dj)


def test_curve_coefficient_bits_match_index_gather_kernel(monkeypatch):
    figure2 = [(n, n + 1) for n in range(10, 101, 10)] + [(5, m) for m in range(5, 10)]
    large = [(n, n + k) for n in (62, 136, 202) for k in (1, 2)]
    # M < N puts the input spin on the big side of the square (dj < dl)
    fewer_outputs = [(40, 12), (61, 20), (100, 52)]
    maps = [conjectured_optimal_map(n, m) for n, m in figure2 + large + fewer_outputs]
    hankel = [BlochCurve(emap)._coeff.tobytes() for emap in maps]
    monkeypatch.setattr(analysis, "_moments_fast", _index_gather_moments)
    gather = [BlochCurve(emap)._coeff.tobytes() for emap in maps]
    assert hankel == gather


def test_moments_peak_memory_is_about_one_matrix():
    dl, dj = 24, 10**5
    dJ = dj - dl
    _log_factorials(dl + dj + 2)  # table growth is not the kernel's cost
    tracemalloc.start()
    try:
        _moments_fast(dl, dj, dJ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (dl + 1) * (dj + 1) * 8


@pytest.mark.parametrize("dl, dj", [(24, 10**5), (10**5, 24)])
def test_moments_peak_memory_is_one_matrix_plus_chunks(dl, dj):
    # the band is built in chunks of at most 1 MiB, in either orientation
    dJ = abs(dj - dl)
    _log_factorials(dl + dj + 2)
    tracemalloc.start()
    try:
        _moments_fast(dl, dj, dJ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (dl + 1) * (dj + 1) * 8 + 8 * 2**20


def test_corrupted_log_factorials_fail_the_mass_check(monkeypatch):
    def corrupted(n):
        table = _log_factorials(n).copy()
        table[3] += 1e-3
        return table

    monkeypatch.setattr(analysis, "_log_factorials", corrupted)
    with pytest.raises(ArithmeticError, match="lost mass in sector l=12, j=15, J=3"):
        _moments_fast(24, 30, 6)


def test_kernel_window_ends_at_the_largest_figure2_sector(monkeypatch, capsys):
    # the kernel serves only the sectors whose bits the figure2 digest pins;
    # a panel that outgrows the window fails here first
    sizes = []

    def recording(dl, dj, dJ):
        sizes.append(dj + dl)
        return _moments_fast(dl, dj, dJ)

    monkeypatch.setattr(analysis, "_moments_fast", recording)
    analysis._cached_curve.cache_clear()
    analysis.scaling_profile.cache_clear()
    assert cli.main(["figure2"]) == 0
    capsys.readouterr()
    assert max(sizes) == FAST_KERNEL_MAX_SIZE
