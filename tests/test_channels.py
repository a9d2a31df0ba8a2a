"""Extremal covariant broadcasting maps and their exact coefficients."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import enumerate_extremal
from superbroadcast.channels import (
    ChannelCoeffs,
    ExtremalMap,
    coefficients_for,
    conjectured_optimal_map,
    extremal_count,
    mix,
    validate_trace_preserving,
)
from superbroadcast.su2core import HalfInt, coupled_range, spin_range


def test_extremal_count_small_registers():
    # N=1: l=1/2 couples to j=1/2 as J in {0, 1} -> two maps
    assert extremal_count(1, 1) == 2
    # N=2 -> M=2: l=0 gives (j, J=j) for j in {0, 1}; l=1 gives
    # (0,1), (1,0), (1,1), (1,2): 2 * 4 = 8
    assert extremal_count(2, 2) == 8
    assert extremal_count(2, 3) == 10
    # N=1 -> M=2: (j=0, J=1/2), (j=1, J=1/2), (j=1, J=3/2)
    assert extremal_count(1, 2) == 3
    # the count matches the per-l product of coupling-range sizes
    for n in range(1, 5):
        for m in range(1, 6):
            expected = 1
            for l in spin_range(n):
                expected *= sum(len(coupled_range(j, l)) for j in spin_range(m))
            assert extremal_count(n, m) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.integers(1, 80))
@example(2000, 2001)  # about a thousand factors: the balanced product tree
def test_extremal_count_matches_direct_double_sum(n, m):
    expected = 1
    for l in spin_range(n):
        expected *= sum(min(j.doubled, l.doubled) + 1 for j in spin_range(m))
    assert extremal_count(n, m) == expected


def test_enumerate_matches_count_and_is_unique():
    for n in range(1, 5):
        for m in range(1, 5):
            maps = enumerate_extremal(n, m)
            assert len(maps) == extremal_count(n, m)
            assert len(set(maps)) == len(maps)


def test_enumerate_order_is_lexicographic():
    maps = enumerate_extremal(2, 2)
    first = maps[0]
    # smallest (j, J) pair for each input spin comes first
    assert first.output_spin == (HalfInt.of(0), HalfInt.of(0))
    assert first.coupled_spin == (HalfInt.of(0), HalfInt.of(1))
    last = maps[-1]
    assert last.output_spin == (HalfInt.of(1), HalfInt.of(1))
    assert last.coupled_spin == (HalfInt.of(1), HalfInt.of(2))


def test_extremal_map_validation():
    with pytest.raises(ValueError):
        ExtremalMap(2, 2, (HalfInt.of(0),), (HalfInt.of(0),))  # missing l=1 entry
    with pytest.raises(ValueError):
        ExtremalMap(2, 2, (HalfInt.of(2), HalfInt.of(1)), (HalfInt.of(2), HalfInt.of(1)))
    with pytest.raises(ValueError):
        # J = 3 outside the coupling range of (j=1, l=1)
        ExtremalMap(2, 2, (HalfInt.of(0), HalfInt.of(1)), (HalfInt.of(0), HalfInt.of(3)))


def test_extremal_map_validation_matches_membership_rule():
    # every (j, J) of either parity, in and out of range, in each sector:
    # accepted exactly when j in spin_range(M) and J in coupled_range(j, l)
    for n in range(1, 7):
        for m in range(1, 7):
            base = conjectured_optimal_map(n, m)
            for i, l in enumerate(spin_range(n)):
                for dj in range(-2, m + 3):
                    for dJ in range(-2, m + n + 3):
                        j, J = HalfInt(dj), HalfInt(dJ)
                        outs = base.output_spin[:i] + (j,) + base.output_spin[i + 1:]
                        coupled = base.coupled_spin[:i] + (J,) + base.coupled_spin[i + 1:]
                        if j not in spin_range(m):
                            with pytest.raises(ValueError, match=f"output spin {j} invalid"):
                                ExtremalMap(n, m, outs, coupled)
                        elif J not in coupled_range(j, l):
                            with pytest.raises(ValueError, match=f"coupled spin {J} invalid"):
                                ExtremalMap(n, m, outs, coupled)
                        else:
                            ExtremalMap(n, m, outs, coupled)
    # spins that are not HalfInt are never members
    with pytest.raises(ValueError, match="output spin 1 invalid"):
        ExtremalMap(2, 2, (HalfInt(0), 1), (HalfInt(0), HalfInt(2)))
    with pytest.raises(ValueError, match="coupled spin 1 invalid"):
        ExtremalMap(2, 2, (HalfInt(0), HalfInt(2)), (HalfInt(0), 1))


def test_conjectured_map_shape():
    emap = conjectured_optimal_map(4, 5)
    top = HalfInt.of(Fraction(5, 2))
    assert emap.output_spin == (top, top, top)
    assert emap.coupled_spin == (
        HalfInt.of(Fraction(5, 2)),
        HalfInt.of(Fraction(3, 2)),
        HalfInt.of(Fraction(1, 2)),
    )
    emap = conjectured_optimal_map(5, 8)
    assert all(j == HalfInt.of(4) for j in emap.output_spin)
    assert emap.coupled_spin_for(Fraction(5, 2)) == HalfInt.of(Fraction(3, 2))
    assert emap.output_spin_for(Fraction(1, 2)) == HalfInt.of(4)
    with pytest.raises(KeyError):
        emap.output_spin_for(3)


def test_coefficients_known_values():
    # N=1 -> M=2, sector (l=1/2, j=1, J=1/2): s = 2 / (2 * 1) = 1
    coeffs = coefficients_for(conjectured_optimal_map(1, 2))
    assert coeffs.weight(1, Fraction(1, 2), Fraction(1, 2)) == Fraction(1)
    # N=M=1 identity: (j=1/2, l=1/2, J=0): s = 2 / (1 * 1) = 2
    coeffs = coefficients_for(conjectured_optimal_map(1, 1))
    assert coeffs.weight(Fraction(1, 2), Fraction(1, 2), 0) == Fraction(2)
    # N=2 -> M=3 top sector (l=1, j=3/2, J=1/2): s = 3 / (2 * 1) = 3/2
    coeffs = coefficients_for(conjectured_optimal_map(2, 3))
    assert coeffs.weight(Fraction(3, 2), 1, Fraction(1, 2)) == Fraction(3, 2)
    # missing triples read as exact zero
    assert coeffs.weight(Fraction(1, 2), 1, Fraction(1, 2)) == 0


def test_every_extremal_map_is_exactly_trace_preserving():
    for n in range(1, 5):
        for m in range(1, 5):
            for emap in enumerate_extremal(n, m):
                report = validate_trace_preserving(coefficients_for(emap))
                assert report.ok, (emap, report.violations)
                assert report.max_residual() == 0.0


def test_trace_validation_flags_corruption():
    coeffs = coefficients_for(conjectured_optimal_map(2, 3))
    key = next(iter(coeffs.weights))
    bad = dict(coeffs.weights)
    bad[key] = bad[key] * Fraction(9, 10)
    report = validate_trace_preserving(ChannelCoeffs(2, 3, bad))
    assert not report.ok
    assert any("trace condition" in v for v in report.violations)
    assert report.max_residual() > 1e-3

    bad = dict(coeffs.weights)
    bad[key] = -bad[key]
    report = validate_trace_preserving(ChannelCoeffs(2, 3, bad))
    assert any("negative weight" in v for v in report.violations)


def test_mix_is_exact_convex_combination():
    maps = enumerate_extremal(2, 2)
    a = coefficients_for(maps[0])
    b = coefficients_for(maps[-1])
    mixed = mix(a, b, Fraction(1, 3))
    for key in set(a.weights) | set(b.weights):
        expected = Fraction(1, 3) * a.weights.get(key, 0) + Fraction(2, 3) * b.weights.get(key, 0)
        assert mixed.weights.get(key, Fraction(0)) == expected
    # mixtures of trace-preserving channels stay trace preserving, exactly
    assert validate_trace_preserving(mixed).max_residual() == 0.0
    # endpoints reproduce the inputs
    assert mix(a, b, 1).weights == a.weights
    assert mix(a, b, 0).weights == b.weights


def test_mix_rejects_bad_arguments():
    a = coefficients_for(conjectured_optimal_map(2, 2))
    b = coefficients_for(conjectured_optimal_map(2, 3))
    with pytest.raises(ValueError):
        mix(a, b, Fraction(1, 2))
    c = coefficients_for(conjectured_optimal_map(2, 2))
    with pytest.raises(ValueError):
        mix(a, c, 2)
    with pytest.raises(ValueError):
        mix(a, c, -0.1)


def test_sectors_iteration_order():
    emap = conjectured_optimal_map(4, 4)
    sectors = list(emap.sectors())
    assert [l for l, _, _ in sectors] == spin_range(4)
    for l, j, J in sectors:
        assert j == HalfInt.of(2)
        assert J == abs(HalfInt.of(2) - l)
