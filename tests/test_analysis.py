"""Closed-form output Bloch lengths, scaling factors, and the optimal map."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import exact
from brute_force import enumerate_extremal
from superbroadcast import analysis
from superbroadcast.analysis import (
    FAST_KERNEL_MAX_SIZE,
    FAST_KERNEL_MIN_SIZE,
    BlochCurve,
    _alpha_polarization,
    _binomial_coefficients,
    _f_n,
    _f_n_rows,
    _moments_fast,
    _most_depolarizing_map,
    _polarization,
    _zero_slope,
    half_spin_scaling_at_zero,
    input_weights,
    optimal_map,
    perfect_broadcast_channel,
    scaling_profile,
    single_copy_bloch,
    single_copy_convex,
)
from superbroadcast.channels import (
    ChannelCoeffs,
    ExtremalMap,
    coefficients_for,
    conjectured_optimal_map,
    extremal_count,
    mix,
    validate_trace_preserving,
)
from superbroadcast.su2core import (
    HalfInt,
    cg_square,
    coupled_range,
    projections,
)


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
    # l = 1 is not a spin of 3 qubits, whatever the projection
    for n in (Fraction(1, 2), Fraction(-1, 2), 0, 1):
        with pytest.raises(ValueError, match="invalid in sector l=1 of 3 qubits"):
            input_weights(3, 0.5).weight(1, n)


def test_input_weights_unit_trace():
    for n in range(1, 9):
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(input_weights(n, r).total() - 1.0) < 1e-12


def test_input_weights_total_past_the_float_range():
    # past N = 1030 a multiplicity exceeds the float range, and single
    # weights underflow to 0
    cases = [(n, r) for n in (1100, 2000) for r in (0.0, 0.5, 0.99, 1.0)]
    # full 53-bit mantissas in r_+- at N = 4000, summed by binary splitting
    for n, r in cases + [(4000, 0.3), (4000, 0.99)]:
        assert abs(input_weights(n, r).total() - 1.0) < 1e-12, (n, r)


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
            assert curve.p_zero() == float(exact)
    with pytest.raises(ValueError):
        half_spin_scaling_at_zero(4, 3)
    # no register: K_0 = 0 from the closed form would be a silent answer
    with pytest.raises(ValueError):
        _zero_slope(0)
    with pytest.raises(ValueError):
        half_spin_scaling_at_zero(0, 3)


def test_exact_zero_limit_frozen_values():
    # N=4: sum_l 2l(2l+1) d_l = 18 + 20 = 38
    assert half_spin_scaling_at_zero(4, 5) == Fraction(7 * 38, 15 * 16)
    assert half_spin_scaling_at_zero(4, 7) > 1
    assert half_spin_scaling_at_zero(4, 8) < 1
    assert half_spin_scaling_at_zero(5, 21) > 1
    # at M = 22 the limit equals 1 exactly: no superbroadcasting margin left
    assert half_spin_scaling_at_zero(5, 22) == 1
    assert half_spin_scaling_at_zero(6, 500) > 1


def _exact_p_zero(coeffs):
    """``p(0)`` of the coefficients, weights as stored, by the test-side sector sum."""
    triples = {(j.doubled, l.doubled, J.doubled): s for (j, l, J), s in coeffs.weights.items()}
    return exact.p_zero(triples, coeffs.n_in, coeffs.m_out)


def test_p_zero_of_the_optimal_map_is_exact():
    # every N <= 120 with M in N-2..N+5, 2N and 1000
    pairs = {
        (n, m) for n in range(1, 121) for m in [*range(n - 2, n + 6), 2 * n, 1000] if m >= 1
    }
    assert len(pairs) == 1192
    for n, m in sorted(pairs):
        emap = conjectured_optimal_map(n, m)
        if m >= n:
            exact = half_spin_scaling_at_zero(n, m)
            if n <= 12:
                assert _exact_p_zero(coefficients_for(emap)) == exact
        else:
            exact = _exact_p_zero(coefficients_for(emap))
        assert BlochCurve(emap).p_zero() == float(exact), (n, m)


def test_p_zero_of_any_channel_is_its_exact_sector_sum():
    for n in range(1, 13):
        for m in sorted({max(n - 2, 1), max(n - 1, 1), n + 1, 2 * n + 3}):
            best = coefficients_for(conjectured_optimal_map(n, m))
            worst = coefficients_for(_most_depolarizing_map(n, m))
            for coeffs in (worst, mix(best, worst, Fraction(2, 7)), mix(best, worst, 0.3)):
                curve = BlochCurve(coeffs)
                exact = _exact_p_zero(coeffs)
                assert curve.p_zero() == float(exact), (n, m)
                # the slope at zero of the polynomial that r_prime evaluates
                slope = curve._coeff @ (2 * curve._exp_plus - n) * 0.5**n
                assert_allclose(slope, float(exact), rtol=1e-12, atol=1e-15)


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
    # anti-stretched sectors J = |j - l| of size 2j + 2l >= 24, inside the
    # kernel's window and past it
    for dl in (0, 1, 2, 7, 12, 24, 41, 80):
        for dj in (0, 3, 12, 23, 24, 35, 60, 101, 200):
            if dj + dl < FAST_KERNEL_MIN_SIZE:
                continue
            dJ = abs(dj - dl)
            if dj + dl > FAST_KERNEL_MAX_SIZE:
                # the exact alpha moments past the kernel's window
                used = _alpha_polarization(dl, dj, dJ)
                assert _polarization(dl, dj, dJ).tobytes() == used.tobytes(), (dl, dj)
                continue
            mass, pol = _moments_fast(dl, dj, dJ)
            # each moment sums terms up to mass * 2j in size, which sets its rounding
            atol = 1e-14 * (dJ + 1) / (dl + 1) * max(dj, 1)
            assert_allclose(pol, _alpha_polarization(dl, dj, dJ), rtol=1e-11, atol=atol)
            assert_allclose(mass, (dJ + 1) / (dl + 1), rtol=1e-11)
            # the kernel's bits inside its window
            assert _polarization(dl, dj, dJ).tobytes() == pol.tobytes(), (dl, dj)


def test_convex_evaluation_matches_extremal():
    for n, m in [(1, 2), (2, 3), (3, 4), (4, 5)]:
        emap = conjectured_optimal_map(n, m)
        coeffs = coefficients_for(emap)
        for r in (0.0, 0.2, 0.5, 0.8):
            a = single_copy_bloch(emap, r)
            b = single_copy_convex(coeffs, r)
            # one evaluator serves both, so the numbers are identical
            assert a == b


def _expanded_r_prime(curve, r):
    """``r'`` with two powers per coefficient, the formula the table replaces."""
    rr = np.asarray(r, dtype=float)
    r_plus = (1.0 + rr) / 2.0
    r_minus = (1.0 - rr) / 2.0
    exp_plus = curve._exp_plus
    exp_minus = curve.n_in - curve._exp_plus
    weights = r_plus[..., None] ** exp_plus * r_minus[..., None] ** exp_minus
    return np.where(rr == 0.0, 0.0, weights @ curve._coeff)


def test_power_table_is_bit_identical_to_expanded_powers(monkeypatch):
    gathered = []
    take = np.take

    def recording_take(*args, **kwargs):
        out = take(*args, **kwargs)
        gathered.append(out)
        return out

    monkeypatch.setattr(np, "take", recording_take)
    maps = enumerate_extremal(3, 5)
    pairs = [(1, 2), (2, 8), (5, 6), (17, 23), (24, 25), (25, 26), (61, 62), (120, 126), (200, 201)]
    curves = [scaling_profile(n, m).curve for n, m in pairs]
    curves.append(BlochCurve(mix(coefficients_for(maps[3]), coefficients_for(maps[-2]), 0.3)))
    rng = np.random.default_rng(11)
    specials = [0.0, 1.0, 1 - 10**-5.5]  # 1 - 10**-5.5 underflows the high powers
    batches = [np.array([r]) for r in specials]
    for size in (16, 101, 513):
        rs = rng.random(size)
        rs[[0, size // 2, -1]] = specials
        batches.append(rs)
    for curve in curves:
        for r in specials:
            assert curve.r_prime(r) == float(_expanded_r_prime(curve, r))
        for rs in batches:
            assert np.array_equal(curve.r_prime(rs), _expanded_r_prime(curve, rs))
            nonzero = rs != 0
            expected = np.full(rs.size, curve.p_zero())
            expected[nonzero] = _expanded_r_prime(curve, rs[nonzero]) / rs[nonzero]
            assert np.array_equal(curve.p(rs), expected)
    # a gather by fancy indexing would be F-ordered, and the product would
    # take another BLAS kernel with other last bits
    batched = [w for w in gathered if w.ndim == 2]
    assert batched and all(w.flags.c_contiguous for w in batched)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.data())
def test_optimal_scaling_factor_never_increases(n, data):
    m = data.draw(st.integers(n, n + 59))
    p = scaling_profile(n, m).p(np.linspace(0.0, 1.0, 257))
    # N = 1 is flat in exact arithmetic; allow its rounding noise
    assert np.all(np.diff(p) <= 1e-12)


def test_nan_bloch_length_is_rejected():
    emap = conjectured_optimal_map(4, 5)
    nan = float("nan")
    with pytest.raises(ValueError):
        single_copy_bloch(emap, nan)
    with pytest.raises(ValueError):
        single_copy_convex(coefficients_for(emap), nan)
    with pytest.raises(ValueError):
        scaling_profile(4, 5).p(nan)
    with pytest.raises(ValueError):
        BlochCurve(emap).r_prime(np.array([0.5, nan]))


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


def test_optimal_map_counts_candidates_once_per_pair(monkeypatch):
    analysis.scaling_profile.cache_clear()
    first = optimal_map(300, 301, 0.5)

    def refuse(*args):
        raise AssertionError("counted the extremal maps again")

    monkeypatch.setattr(analysis, "extremal_count", refuse)
    for r in (0.0, 0.5, 0.99):
        again = optimal_map(300, 301, r)
        assert type(again.candidates) is int and again.candidates == first.candidates
    assert first.candidates == extremal_count(300, 301)
    analysis.scaling_profile.cache_clear()


def _scored_choices(dl, m):
    """Every legal ``(2j, 2J)`` for input spin ``dl/2`` at ``m`` outputs, in
    enumeration order, with ``4s = 2J(2J+2) - 2j(2j+2) - 2l(2l+2)``."""
    return [
        (dJ * (dJ + 2) - dj * (dj + 2) - dl * (dl + 2), dj, dJ)
        for dj in range(m % 2, m + 1, 2)
        for dJ in range(abs(dj - dl), dj + dl + 1, 2)
    ]


def test_closed_form_maps_match_a_per_sector_scan():
    # r' adds, per sector, s times a factor that is negative for 0 < r < 1,
    # so the optimum takes the smallest s (ties to the largest j) and the
    # most depolarizing map the largest s (ties to the first choice); the
    # scan visits every (j, J), including M < N
    pairs = [(n, m) for n in range(1, 31) for m in range(1, 41)] + [(8, 40), (40, 41)]
    best, worst = {}, {}
    for n, m in pairs:
        for dl in range(n % 2, n + 1, 2):
            if (dl, m) in best:
                continue
            choices = _scored_choices(dl, m)
            low = min(score for score, _, _ in choices)
            ties = [(dj, dJ) for score, dj, dJ in choices if score == low]
            assert len(ties) == 1 or dl == 0  # only the spin-0 sector ties
            best[dl, m] = max(ties)
            worst[dl, m] = max(choices, key=lambda c: c[0])[1:]

    def scanned(table, n, m):
        picks = [table[dl, m] for dl in range(n % 2, n + 1, 2)]
        return ExtremalMap(
            n, m, tuple(HalfInt(dj) for dj, _ in picks), tuple(HalfInt(dJ) for _, dJ in picks)
        )

    for n, m in pairs:
        want = scanned(best, n, m)
        assert conjectured_optimal_map(n, m) == want
        assert optimal_map(n, m, 0.5).best_map == want
        assert _most_depolarizing_map(n, m) == scanned(worst, n, m)


def test_one_copy_scaling_factor_is_constant():
    # N = 1: r' is linear in r, so p is the exact p(0) = (M+2)/(3M) that
    # verify reads; r' rounds once, and p = r'/r loses digits at small r
    grid = np.linspace(0.0, 1.0, 257)
    for m in range(1, 12):  # every M verify's dense checks take at N = 1
        want = (m + 2) / (3 * m)
        assert float(half_spin_scaling_at_zero(1, m)) == want
        profile = scaling_profile(1, m)
        assert profile.p_zero() == want
        assert_allclose(profile.r_prime(grid), want * grid, rtol=0, atol=1e-16)
        assert_allclose(profile.p(grid[32:]), want, rtol=0, atol=1e-15)


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


def test_f_n_matches_exact_sector_sum():
    # every N <= 40 and each N the large-n-thresholds benchmark draws (its
    # six centres +-2), against the test-side sector sum
    large = [c + d for c in (64, 84, 108, 136, 168, 200) for d in range(-2, 3)]
    for n in [*range(1, 41), *large]:
        for r in (0.05, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-9):
            value = exact.f_n_sector(n, r)
            assert abs(_f_n(n, r) - value) <= 1e-13 * value, (n, r)


def test_f_n_matches_the_adjacent_curve():
    # r'_{N+1} = (N+3)/(N+1) F_N: the binomial form against the per-sector
    # curve, for every N up to 66, each N the large-n-thresholds benchmark
    # draws (82..86, ..., 198..202) and every tenth N in between
    rs = np.arange(1, 65) / 64
    large = [c + d for c in (84, 108, 136, 168, 200) for d in range(-2, 3)]
    for n in sorted({*range(1, 67), *range(70, 203, 10), *large}):
        # .curve, not the profile, which from N = 101 on evaluates F_N itself
        curve = scaling_profile(n, n + 1).curve.r_prime(rs) * (n + 1) / (n + 3)
        assert_allclose([_f_n(n, r) for r in rs], curve, rtol=1e-12, atol=0, err_msg=f"N={n}")


def test_f_n_endpoints_are_exact():
    for n in (*range(1, 30), 1000, 10**5):
        assert _f_n(n, 0.0) == 0.0
        # only k = N carries weight at r = 1: F_N(1) = b_N = N/(N+2)
        top = _binomial_coefficients(n)[-1]
        assert _f_n(n, 1.0) == top
        assert abs(Fraction(top) - Fraction(n, n + 2)) <= math.ulp(top)


def test_f_n_window_matches_full_range_sum():
    # the pmf stops 40 sqrt(N) + 40 steps from its mode; against every k,
    # with the pmf from log-gamma, the omitted tail is invisible
    for n in (10**4, 10**5):
        k = np.arange(n + 1)
        log_choose = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                               for i in range(n + 1)])
        b = _binomial_coefficients(n)
        for r in (1e-3, 0.3, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-10):
            r_plus, r_minus = (1.0 + r) / 2.0, (1.0 - r) / 2.0
            log_pmf = log_choose + k * math.log(r_plus) + (n - k) * math.log(r_minus)
            pmf = np.exp(log_pmf - log_pmf.max())
            full = (b * pmf).sum() / pmf.sum()
            assert_allclose(_f_n(n, r), full, rtol=1e-9, err_msg=f"N={n}, r={r}")


def _bit_test_points(n):
    rng = np.random.default_rng(n)
    return np.concatenate([
        np.linspace(0.0, 1.0, 41),
        rng.random(40),
        1.0 - 10.0 ** -rng.uniform(1, 15, 12),
        10.0 ** -rng.uniform(1, 15, 6),
        [np.nextafter(1.0, 0.0), 5e-324],
    ])


@pytest.mark.parametrize("n", [101, 202, 1030, 1679, 1680, 1700, 5000, 10**5])
def test_batched_f_n_equals_scalar_calls_bit_for_bit(n):
    # from N = 1680 on the windows of 40 sqrt(N) + 40 steps part from [0, N]
    # and differ in length from point to point; a padded row sum would differ
    rs = _bit_test_points(n)
    got = _f_n_rows(n, rs)
    assert got.shape == rs.shape
    want = [_f_n(n, float(r)) for r in rs]
    assert [float(v).hex() for v in got] == [v.hex() for v in want]


def _f_n_direct(n, r):
    """``F_N`` by the direct arithmetic that ``_f_n`` must match bit for bit:
    each call forms its own integer ranges and integer-over-integer ratios,
    and concatenates the falling products, 1 and the rising products."""
    b = _binomial_coefficients(n)
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return float(b[-1])
    r_plus, r_minus = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    mode = min(int((n + 1) * r_plus), n)
    reach = int(40 * math.sqrt(n) + 40)
    lo, hi = max(mode - reach, 0), min(mode + reach, n)
    up, down = np.arange(mode, hi), np.arange(mode, lo, -1)
    q = np.concatenate([
        np.cumprod(down / (n - down + 1) * (r_minus / r_plus))[::-1],
        [1.0],
        np.cumprod((n - up) / (up + 1) * (r_plus / r_minus)),
    ])
    return float((b[lo : hi + 1] * q).sum() / q.sum())


def _workload_batch(rng):
    # 16 sorted points, half in the last percent below r = 1, as the
    # benchmark's curve queries draw them
    rs = np.concatenate([rng.uniform(0.05, 0.99, 8), 1.0 - 10.0 ** rng.uniform(-5.5, -2.0, 8)])
    return np.sort(rs)


@pytest.mark.parametrize(
    "n", [*range(1, 13), 30, 66, 100, 101, 136, 202, 1030, 1679, 1680, 1700, 5000, 10**5]
)
def test_f_n_keeps_the_bits_of_the_direct_arithmetic(n):
    # the ratio table holds the same IEEE quotients, and each running product
    # and each window sum runs in the same order, so no bit may move
    rs = _bit_test_points(n)
    want = [_f_n_direct(n, float(r)).hex() for r in rs]
    assert [_f_n(n, float(r)).hex() for r in rs] == want
    assert [float(v).hex() for v in _f_n_rows(n, rs)] == want
    # a batch's makeup sets its blocks: one with no exact end, and one whose
    # 0, 1 and -0.0 are masked among inner points
    rng = np.random.default_rng(n + 1)
    for batch in (_workload_batch(rng), np.array([0.3, 0.0, 1.0, -0.0, 0.999, 1e-9, 0.0, 0.75])):
        want = [_f_n_direct(n, float(r)).hex() for r in batch]
        assert [float(v).hex() for v in _f_n_rows(n, batch)] == want, batch


def test_profiles_past_the_sector_route_build_no_curve(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a BlochCurve")

    analysis.scaling_profile.cache_clear()
    monkeypatch.setattr(analysis, "_cached_curve", refuse)
    monkeypatch.setattr(BlochCurve, "__init__", refuse)
    grid = np.linspace(0.0, 1.0, 11)
    for n, m in [(101, 101), (101, 102), (150, 449), (1100, 1101), (10**5, 10**5 + 1)]:
        profile = scaling_profile(n, m)
        assert profile.r_prime(grid)[0] == 0.0
        assert profile.p(grid)[0] == profile.p_zero() == float(half_spin_scaling_at_zero(n, m))
        assert profile.r_prime(1.0) == (m + 2) / m * float(_binomial_coefficients(n)[-1])
    # N <= 100 and M < N still take the per-sector curve
    for n, m in [(100, 101), (120, 119)]:
        with pytest.raises(AssertionError, match="built a BlochCurve"):
            scaling_profile(n, m).p(0.5)
    analysis.scaling_profile.cache_clear()


def test_profiles_past_the_sector_route_match_their_curve():
    rs = np.concatenate([np.linspace(0.0, 1.0, 33), [0.07, 0.99, 1.0 - 1e-6]])
    for n in range(101, 203):
        for m in (n, n + 1) if n % 10 else (n, n + 1, 2 * n + 1):
            profile = scaling_profile(n, m)
            curve = profile.curve
            assert_allclose(profile.r_prime(rs), curve.r_prime(rs), rtol=1e-12, atol=0)
            assert_allclose(profile.p(rs), curve.p(rs), rtol=1e-12, atol=0)
            assert profile.p_zero() == curve.p_zero()


def test_profiles_past_the_sector_route_validate_and_keep_scalars():
    profile = scaling_profile(150, 151)
    for bad in (math.nan, -0.1, 1.5, [0.3, math.nan], np.array([0.2, np.nextafter(1.0, 2.0)])):
        with pytest.raises(ValueError, match="outside"):
            profile.r_prime(bad)
        with pytest.raises(ValueError, match="outside"):
            profile.p(bad)
    for r in (0.0, 0.3, 1.0, np.float64(0.3)):
        assert type(profile.r_prime(r)) is float
        assert type(profile.p(r)) is float
    assert type(profile.p_zero()) is float
    assert profile.r_prime(0.3) == profile.r_prime(np.array([0.3]))[0]
    assert profile.r_prime([0.3, 0.6]).shape == (2,)


@pytest.mark.parametrize("n", [50, 150])
def test_profile_and_curve_values_keep_the_input_shape(n):
    # N = 50 takes the per-sector curve, N = 150 the F_N route
    profile = scaling_profile(n, n + 1)
    grid = np.array([[0.0, 0.3, 0.6], [0.9, 1.0, 0.45]])
    for method in (profile.r_prime, profile.p, profile.curve.r_prime, profile.curve.p):
        assert type(method(0.3)) is float
        zero_d = method(np.array(0.3))
        assert type(zero_d) is np.ndarray and zero_d.shape == ()
        assert float(zero_d) == method(0.3)
        assert method(grid[0]).shape == (3,)
        assert method(grid).shape == (2, 3)
        assert method(np.array([])).shape == (0,)
        assert_allclose(method(grid), [method(row) for row in grid], rtol=1e-13, atol=0)
    # an F_N point does not depend on its batch, so the rows agree exactly
    if not profile._on_curve:
        for method in (profile.r_prime, profile.p):
            got = [float(v).hex() for v in method(grid).ravel()]
            assert got == [float(v).hex() for row in grid for v in method(row)]


def test_optimal_map_answers_past_the_curve_range():
    # M >= N > 100 takes its report from the F_N profile, so no multiplicity
    # turns into a float; at N = 1100 the per-sector curve overflows
    for n in (1100, 10**5):
        profile = scaling_profile(n, n + 1)
        result = optimal_map(n, n + 1, 0.5)
        assert result.best_map == profile.emap
        assert result.report.r_prime == profile.r_prime(0.5)
        assert result.report.p == profile.r_prime(0.5) / 0.5 > 1.0
        assert optimal_map(n, n + 1, 0.0).report.p == profile.p_zero()
    with pytest.raises(OverflowError):
        BlochCurve(conjectured_optimal_map(1100, 1101))
    # the other pairs keep the cached curve's report, bit for bit
    for n, m, r in [(5, 9, 0.0), (100, 101, 0.3), (120, 119, 0.7)]:
        report = optimal_map(n, m, r).report
        assert report == single_copy_bloch(conjectured_optimal_map(n, m), r)


@pytest.mark.parametrize("coupled", [HalfInt(9), HalfInt(4)], ids=["too-large", "wrong-parity"])
def test_uncoupled_total_spin_is_rejected(coupled):
    # the 2 -> 3 optimal map with its l = 1 triple moved from J = 1/2 to a J
    # that cannot couple j = 3/2 and l = 1, weighted to keep the trace sum
    weights = dict(coefficients_for(conjectured_optimal_map(2, 3)).weights)
    j, l = HalfInt(3), HalfInt(2)
    del weights[(j, l, HalfInt(1))]
    weights[(j, l, coupled)] = Fraction(l.dim, coupled.dim)
    coeffs = ChannelCoeffs(2, 3, weights)
    message = f"total spin J={coupled} cannot couple j=3/2 and l=1"
    assert validate_trace_preserving(coeffs).violations == (message,)
    with pytest.raises(ValueError, match=message):
        single_copy_convex(coeffs, 0.5)


def test_overflowing_sector_prefactor_raises():
    # at N = 1034 the float prefactor s d_j d_l / M of a small-M map passes
    # 1.8e308; inf times the zero n = 0 moment was a silent nan
    with pytest.raises(OverflowError, match=r"sector \(j=1, l=13, J=12\) .* N=1034, M=2"):
        BlochCurve(conjectured_optimal_map(1034, 2))
    with pytest.raises(OverflowError, match="N=1034, M=40"):
        BlochCurve(conjectured_optimal_map(1034, 40))


def test_numpy_integer_spin_labels():
    assert input_weights(4, 0.5).weight(np.int64(1), 0) == input_weights(4, 0.5).weight(1, 0)
    emap = conjectured_optimal_map(4, 5)
    assert emap.output_spin_for(np.int64(2)) == emap.output_spin_for(2) == HalfInt(5)
