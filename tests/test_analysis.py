"""Closed-form output Bloch lengths, scaling factors, and the argmax search."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from superbroadcast.analysis import (
    FAST_KERNEL_MIN_SIZE,
    BlochCurve,
    _alpha_polarization,
    _moments_fast,
    _most_depolarizing_map,
    _polarization,
    half_spin_scaling_at_zero,
    input_weights,
    optimal_map,
    perfect_broadcast_channel,
    scaling_profile,
    single_copy_bloch,
    single_copy_convex,
)
from superbroadcast.channels import (
    coefficients_for,
    conjectured_optimal_map,
    enumerate_extremal,
    extremal_count,
    mix,
    validate_trace_preserving,
)
from superbroadcast.su2core import HalfInt, cg_square, coupled_range, projections


def _cg_polarization(dl, dj, dJ):
    """``sum_m <J m+n|j m, l n>^2 * 2m`` for ``n`` ascending, by exact CG sums."""
    j, l, J = HalfInt(dj), HalfInt(dl), HalfInt(dJ)
    return [
        sum(cg_square(j, m, l, n, J, m + n) * m.doubled for m in projections(j))
        for n in projections(l)
    ]


def _alpha(dl, dj, dJ):
    """Wigner-Eckart slope ``alpha = (2J+1) s / (2l(l+1)(2l+1))``, exact."""
    j, l, J = (Fraction(d, 2) for d in (dj, dl, dJ))
    s = J * (J + 1) - j * (j + 1) - l * (l + 1)
    return (2 * J + 1) * s / (2 * l * (l + 1) * (2 * l + 1))


def _check_alpha_identity(dl, dj, dJ):
    exact = _cg_polarization(dl, dj, dJ)
    if dl == 0:
        assert exact == [0]
    else:
        alpha = _alpha(dl, dj, dJ)
        assert exact == [alpha * n.doubled for n in projections(HalfInt(dl))]
    return exact


def test_input_weights_values():
    w = input_weights(2, 0.5)
    # n = -1: both qubits up: ((1+r)/2)^2
    assert_allclose(w.weight(1, -1), 0.75**2)
    assert_allclose(w.weight(1, 0), 0.75 * 0.25)
    assert_allclose(w.weight(1, 1), 0.25**2)
    assert_allclose(w.weights_for(1), [0.75**2, 0.75 * 0.25, 0.25**2])
    with pytest.raises(ValueError):
        w.weight(1, 2)
    with pytest.raises(ValueError):
        w.weight(3, 0)
    with pytest.raises(ValueError):
        input_weights(2, 1.5)


def test_input_weights_unit_trace():
    for n in range(1, 9):
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(input_weights(n, r).total() - 1.0) < 1e-12


def test_single_copy_frozen_values():
    # N=1 -> M=2 optimal map shrinks every input by exactly 2/3
    emap = conjectured_optimal_map(1, 2)
    for r in (0.3, 0.6, 0.9):
        report = single_copy_bloch(emap, r)
        assert_allclose(report.r_prime, 2.0 * r / 3.0, atol=1e-14)
        assert_allclose(report.p, 2.0 / 3.0, atol=1e-14)
    # the identity map at N=M=1 is lossless
    emap = conjectured_optimal_map(1, 1)
    assert_allclose(single_copy_bloch(emap, 0.7).r_prime, 0.7, atol=1e-14)
    # fully mixed input comes out fully mixed, exactly
    assert single_copy_bloch(conjectured_optimal_map(4, 5), 0.0).r_prime == 0.0


def test_output_length_stays_physical():
    # r' is the signed component along the input axis: anti-aligning maps
    # (coupling the sector upward) make it negative, but never beyond unit
    # Bloch length in either direction
    grid = np.linspace(0.0, 1.0, 21)
    for n in range(1, 5):
        for m in range(1, 6):
            for emap in enumerate_extremal(n, m):
                values = BlochCurve(emap).r_prime(grid)
                assert np.all(np.abs(values) <= 1.0 + 1e-12)
            # the aligned optimum never flips the sign
            values = BlochCurve(conjectured_optimal_map(n, m)).r_prime(grid)
            assert np.all(values >= 0.0)


def test_scaling_factor_limit_matches_small_r():
    for n, m in [(2, 3), (4, 5), (5, 9), (6, 7)]:
        curve = BlochCurve(conjectured_optimal_map(n, m))
        assert abs(curve.p(1e-6) - curve.p_zero()) < 1e-5
        assert curve.p(0.0) == curve.p_zero()


def test_exact_zero_limit_cross_check():
    # the rational closed form and the Clebsch-Gordan route must agree
    for n in range(1, 7):
        for m in range(n, n + 12):
            exact = half_spin_scaling_at_zero(n, m)
            curve = BlochCurve(conjectured_optimal_map(n, m))
            assert abs(float(exact) - curve.p_zero()) < 1e-11
    with pytest.raises(ValueError):
        half_spin_scaling_at_zero(4, 3)


def test_exact_zero_limit_frozen_values():
    # N=4: sum_l 2l(2l+1) d_l = 18 + 20 = 38
    assert half_spin_scaling_at_zero(4, 5) == Fraction(7 * 38, 15 * 16)
    assert half_spin_scaling_at_zero(4, 7) > 1
    assert half_spin_scaling_at_zero(4, 8) < 1
    assert half_spin_scaling_at_zero(5, 21) > 1
    # at M = 22 the limit equals 1 exactly: no superbroadcasting margin left
    assert half_spin_scaling_at_zero(5, 22) == 1
    assert half_spin_scaling_at_zero(6, 500) > 1


def test_alpha_identity_matches_cg_sums():
    # every l <= 4, j <= 5 and coupled J: the Clebsch-Gordan sums equal
    # alpha * 2n exactly, and the moments used are those rationals rounded once
    for dl in range(9):
        for dj in range(11):
            for J in coupled_range(HalfInt(dj), HalfInt(dl)):
                exact = _check_alpha_identity(dl, dj, J.doubled)
                used = _polarization(dl, dj, J.doubled)
                assert used.tolist() == [float(x) for x in exact]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 16), st.integers(0, 16), st.data())
def test_alpha_identity_property(dl, dj, data):
    dJ = data.draw(st.sampled_from(coupled_range(HalfInt(dj), HalfInt(dl)))).doubled
    exact = _check_alpha_identity(dl, dj, dJ)
    assert _alpha_polarization(dl, dj, dJ).tolist() == [float(x) for x in exact]


def test_log_factorial_kernel_matches_alpha():
    # the anti-stretched sectors J = |j - l| of size 2j + 2l >= 24 it serves
    for dl in (0, 1, 2, 7, 12, 24, 41, 80):
        for dj in (0, 3, 12, 23, 24, 35, 60, 101, 200):
            if dj + dl < FAST_KERNEL_MIN_SIZE:
                continue
            dJ = abs(dj - dl)
            mass, pol = _moments_fast(dl, dj, dJ)
            # each moment sums terms up to mass * 2j in size, which sets its rounding
            atol = 1e-14 * (dJ + 1) / (dl + 1) * max(dj, 1)
            assert_allclose(pol, _alpha_polarization(dl, dj, dJ), rtol=1e-11, atol=atol)
            assert_allclose(mass, (dJ + 1) / (dl + 1), rtol=1e-11)
            assert _polarization(dl, dj, dJ) is pol


def test_convex_evaluation_matches_extremal():
    for n, m in [(1, 2), (2, 3), (3, 4), (4, 5)]:
        emap = conjectured_optimal_map(n, m)
        coeffs = coefficients_for(emap)
        for r in (0.2, 0.5, 0.8):
            a = single_copy_bloch(emap, r)
            b = single_copy_convex(coeffs, r)
            assert_allclose(a.r_prime, b.r_prime, atol=1e-14)
            assert_allclose(a.p, b.p, atol=1e-13)


def test_output_is_linear_in_the_channel():
    maps = enumerate_extremal(3, 4)
    a, b = coefficients_for(maps[0]), coefficients_for(maps[-1])
    lam = 0.375
    mixed = mix(a, b, lam)
    for r in (0.3, 0.7):
        direct = single_copy_convex(mixed, r).r_prime
        parts = lam * single_copy_convex(a, r).r_prime + (1 - lam) * single_copy_convex(
            b, r
        ).r_prime
        assert_allclose(direct, parts, atol=1e-13)


def test_optimal_map_matches_half_spin_rule():
    for n, m in [(2, 2), (2, 3), (3, 4), (4, 5), (4, 7), (5, 6)]:
        conj = conjectured_optimal_map(n, m)
        for r in (0.0, 0.25, 0.75):
            result = optimal_map(n, m, r)
            assert result.exhaustive
            assert result.matches_conjecture
            assert result.best_map == conj
            assert result.candidates > 1


def test_optimal_map_is_really_the_max():
    for n, m in [(2, 3), (3, 4), (4, 5)]:
        r = 0.6
        best = optimal_map(n, m, r).report.r_prime
        for emap in enumerate_extremal(n, m):
            assert single_copy_bloch(emap, r).r_prime <= best + 1e-12


def test_optimal_map_exhaustive_at_every_size():
    # far beyond what enumeration could visit (about 1e13 and 1e66 maps)
    for n, m in [(8, 40), (40, 41)]:
        result = optimal_map(n, m, 0.5)
        assert result.exhaustive
        assert result.matches_conjecture
        assert result.best_map == conjectured_optimal_map(n, m)
        assert result.candidates == extremal_count(n, m)


def test_most_depolarizing_map_is_brute_force_minimum():
    rs = np.array([0.05, 0.5, 0.95])
    for n in range(1, 6):
        for m in range(1, 8):
            maps = enumerate_extremal(n, m)
            values = np.array([BlochCurve(emap).r_prime(rs) for emap in maps])
            partner = _most_depolarizing_map(n, m)
            for k, r in enumerate(rs):
                first = int(np.argmin(values[:, k]))  # first minimizer in order
                assert partner == maps[first]
                assert_allclose(
                    single_copy_bloch(partner, r).r_prime, values[first, k], rtol=0, atol=1e-15
                )


def test_scaling_profile_caches_and_evaluates():
    profile = scaling_profile(5, 9)
    assert profile.exhaustive
    grid = np.linspace(0.0, 1.0, 7)
    assert_allclose(profile.r_prime(grid), BlochCurve(profile.emap).r_prime(grid))
    assert profile.p_zero() > 1  # superbroadcasting pair
    assert scaling_profile(5, 9) is profile  # lru cache returns the same object
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.m_out = 10  # shared by every caller, so it must not change


def test_perfect_broadcast_channel_below_threshold():
    # r = 0.5 < r*(4,5): an exact-length broadcast mixture exists
    coeffs = perfect_broadcast_channel(4, 5, 0.5)
    assert coeffs is not None
    assert validate_trace_preserving(coeffs).ok
    report = single_copy_convex(coeffs, 0.5)
    assert_allclose(report.r_prime, 0.5, atol=1e-9)
    assert_allclose(report.p, 1.0, atol=1e-9)


def test_perfect_broadcast_channel_absent_cases():
    # above the threshold the optimal map cannot reach p = 1
    assert perfect_broadcast_channel(4, 5, 0.9) is None
    # and N = 2 never superbroadcasts
    assert perfect_broadcast_channel(2, 3, 0.5) is None
    with pytest.raises(ValueError):
        perfect_broadcast_channel(4, 5, 0.0)
    with pytest.raises(ValueError):
        perfect_broadcast_channel(4, 5, 1.0)


def test_pure_input_cloning_factor():
    # at r = 1 the optimal map reproduces the N -> M cloning shrinking factor
    for n in range(1, 5):
        for m in range(n, 9):
            emap = conjectured_optimal_map(n, m)
            expected = n * (m + 2) / (m * (n + 2))
            assert_allclose(single_copy_bloch(emap, 1.0).r_prime, expected, atol=1e-12)


def test_output_length_monotone_in_input_length():
    for n, m in [(2, 3), (4, 5), (4, 7), (5, 21)]:
        curve = BlochCurve(conjectured_optimal_map(n, m))
        values = curve.r_prime(np.linspace(0.0, 1.0, 101))
        assert np.all(np.diff(values) > -1e-12)
