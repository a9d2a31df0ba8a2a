"""The benchmark's reference evaluator: pinned values and agreement with the package.

Run with ``python3 -m pytest perfbench``.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import reference as ref
import workloads
from superbroadcast import analysis, channels, thresholds
from superbroadcast.su2core import HalfInt


def _emap(n, m, sectors):
    return channels.ExtremalMap(
        n, m, tuple(HalfInt(dj) for _, dj, _ in sectors), tuple(HalfInt(dJ) for *_, dJ in sectors)
    )


def test_pinned_values():
    assert round(ref.r_star(4, 5), 6) == 0.786796
    assert ref.m_star(4) == 7
    assert ref.m_star(5) == 21
    assert ref.m_star(6) is None
    assert ref.k_constant(4) == Fraction(19, 24)
    assert ref.r_star(3, 4) is None


@pytest.mark.parametrize("n, m", [(1, 2), (4, 5), (5, 9), (10, 11), (30, 33)])
def test_pure_input_limit(n, m):
    p_one = ref.p(n, m, ref.half_spin_sectors(n, m), 1.0)
    assert abs(p_one - n * (m + 2) / (m * (n + 2))) < 1e-12


def test_zero_limit_is_the_rational_k_form():
    for n in range(1, 12):
        for m in range(n, n + 4):
            assert ref.p_zero(n, m, ref.half_spin_sectors(n, m)) == Fraction(m + 2, m) * ref.k_constant(n)


def test_half_spin_curve_agrees_with_package():
    rs = np.array([0.0, 0.05, 0.3, 0.7, 0.95, 0.999, 1.0])
    for n in range(1, 31):
        for m in range(max(n, 2), n + 4):
            want = analysis.BlochCurve(channels.conjectured_optimal_map(n, m)).p(rs)
            got = ref.p(n, m, ref.half_spin_sectors(n, m), rs)
            assert np.max(np.abs(got - want)) <= 1e-9


def test_random_extremal_maps_agree_with_package():
    rng = random.Random(5)
    for _ in range(150):
        n, m = rng.randint(1, 7), rng.randint(1, 8)
        sectors = [
            (dl, *rng.choice(choices))
            for dl, choices in zip(ref.spin_doubles(n), ref.sector_choices(n, m))
        ]
        emap = _emap(n, m, sectors)
        for r in (0.0, 0.2, 0.6, 1.0):
            report = analysis.single_copy_bloch(emap, r)
            assert abs(float(ref.r_prime(n, m, sectors, r)) - report.r_prime) <= 1e-9
            assert abs(float(ref.p(n, m, sectors, r)) - report.p) <= 1e-9


def test_counts_and_thresholds_agree_with_package():
    for n in range(1, 9):
        for m in range(1, 9):
            want = channels.extremal_count(n, m)
            assert np.prod([len(c) for c in ref.sector_choices(n, m)]) == want
    for n in range(2, 31):
        result = thresholds.r_star(n, n + 1)
        want = ref.r_star(n, n + 1)
        assert (want is None) == (not result.exists)
        if want is not None:
            assert abs(result.r_star - want) <= 1e-6


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_seeded(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    assert workloads.generate(workload, 3) != workloads.generate(workload, 4)
    assert len(workloads.generate(workload, 3)) >= 100


def test_checks_reject_wrong_outputs():
    query = {"kind": "curve_p", "n": 20, "m": 21, "r": [0.5, 0.9]}
    right = list(ref.p(20, 21, ref.half_spin_sectors(20, 21), query["r"]))
    assert workloads.check(query, {"p": right}) is None
    assert workloads.check(query, {"p": [right[0], right[1] * (1 + 1e-6)]}) is not None
    query = {"kind": "r_star", "n": 4, "m": 5, "tol": None}
    r = thresholds.r_star(4, 5)
    assert workloads.check(query, {"r_star": r.r_star, "width": r.bracket_width}) is None
    assert workloads.check(query, {"r_star": r.r_star + 1e-5, "width": r.bracket_width}) is not None
    query = {"kind": "verify", "fault": True}
    assert workloads.check(query, {"ok": True, "failures": []}) is not None
    query = {"kind": "cli", "argv": ["mstar", "--n", "4"], "pairs": []}
    assert workloads.check(query, {"rc": 0, "text": "n,m_star\n4,7\n"}) is None
    assert workloads.check(query, {"rc": 0, "text": "n,m_star\n4,7\r\n"}) is not None
