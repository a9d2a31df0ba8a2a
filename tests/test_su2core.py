"""Exact angular-momentum kernel: half-integers, multiplicities, couplings."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from superbroadcast.analysis import perfect_broadcast_channel
from superbroadcast.su2core import (
    HalfInt,
    _is_spin_of,
    cg,
    cg_square,
    coupled_range,
    multiplicity,
    projections,
    spin_range,
)


def test_halfint_coercion():
    assert HalfInt.of(2).doubled == 4
    assert HalfInt.of(0.5).doubled == 1
    assert HalfInt.of(Fraction(3, 2)).doubled == 3
    assert HalfInt.of(HalfInt(5)) == HalfInt(5)
    with pytest.raises(ValueError):
        HalfInt.of(0.3)
    with pytest.raises(TypeError):
        HalfInt.of("1/2")


def test_halfint_accepts_numpy_integers():
    for kind in (np.int8, np.int32, np.int64, np.uint16):
        for value in (0, 1, 2, 7):
            spin = HalfInt.of(kind(value))
            assert spin == HalfInt.of(value)
            assert type(spin.doubled) is int
    assert HalfInt.of(np.int64(-3)) == HalfInt.of(-3)
    assert multiplicity(4, np.int64(1)) == 3


def test_halfint_arithmetic_and_display():
    j = HalfInt.of(Fraction(3, 2))
    assert j + HalfInt.of(0.5) == HalfInt.of(2)
    assert j - 1 == HalfInt.of(0.5)
    assert -j == HalfInt(-3)
    assert abs(HalfInt(-3)) == j
    assert j.dim == 4
    assert not j.is_whole
    assert float(j) == 1.5
    assert str(j) == "3/2"
    assert str(HalfInt.of(2)) == "2"
    assert j.as_fraction() == Fraction(3, 2)


def test_spin_range_parity():
    assert spin_range(4) == [HalfInt.of(0), HalfInt.of(1), HalfInt.of(2)]
    assert spin_range(5) == [HalfInt.of(0.5), HalfInt.of(1.5), HalfInt.of(2.5)]
    assert spin_range(1) == [HalfInt.of(0.5)]


def test_projections_and_coupled_range():
    assert projections(HalfInt.of(1)) == [HalfInt.of(-1), HalfInt.of(0), HalfInt.of(1)]
    assert coupled_range(HalfInt.of(1.5), HalfInt.of(1)) == [
        HalfInt.of(0.5),
        HalfInt.of(1.5),
        HalfInt.of(2.5),
    ]
    assert coupled_range(HalfInt.of(2), HalfInt.of(0)) == [HalfInt.of(2)]


def test_multiplicity_known_values():
    assert multiplicity(2, 1) == 1
    assert multiplicity(2, 0) == 1
    assert multiplicity(3, HalfInt.of(1.5)) == 1
    assert multiplicity(3, HalfInt.of(0.5)) == 2
    assert multiplicity(4, 2) == 1
    assert multiplicity(4, 1) == 3
    assert multiplicity(4, 0) == 2
    assert multiplicity(6, 0) == 5
    assert multiplicity(6, 1) == 9
    assert multiplicity(6, 2) == 5
    assert multiplicity(6, 3) == 1
    # spin-0 multiplicities of even registers are the Catalan numbers
    assert [multiplicity(size, 0) for size in (2, 4, 6, 8)] == [1, 2, 5, 14]



def test_is_spin_of_is_membership_in_spin_range():
    for n in range(1, 9):
        spins = {s.doubled for s in spin_range(n)}
        for d in range(-3, n + 4):
            assert _is_spin_of(n, d) == (d in spins)
            if not _is_spin_of(n, d):
                with pytest.raises(ValueError, match="is not a spin of"):
                    multiplicity(n, HalfInt(d))


def test_multiplicity_domain_errors():
    with pytest.raises(ValueError):
        multiplicity(4, HalfInt.of(0.5))  # parity mismatch
    with pytest.raises(ValueError):
        multiplicity(4, 3)  # above L/2
    with pytest.raises(ValueError):
        multiplicity(0, 0)


def test_multiplicity_takes_each_binomial_once(monkeypatch):
    # every caller of a large output register asks for the same few
    # multiplicities; each binomial C(n, k) is computed at most once
    calls = Counter()
    comb = math.comb

    def counting(n, k):
        calls[n, k] += 1
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counting)
    assert perfect_broadcast_channel(30, 10**5, 0.5) is not None
    assert max(calls.values(), default=1) == 1


def test_dimension_sum_recovers_register_size():
    for size in range(1, 13):
        total = sum(j.dim * multiplicity(size, j) for j in spin_range(size))
        assert total == 2**size


def test_cg_selection_rules():
    assert cg_square(1, 1, 1, 1, 2, 1) == 0  # projection mismatch
    assert cg_square(1, 1, 1, 0, 0, 1) == 0  # projection exceeds J
    assert cg_square(1, 0, 1, 0, 4, 0) == 0  # J outside the coupling range
    with pytest.raises(ValueError):
        cg_square(1, 0, HalfInt.of(0.5), HalfInt.of(0.5), 1, HalfInt.of(0.5))


def test_cg_known_values():
    half = HalfInt.of(0.5)
    assert_allclose(cg(half, half, half, -half, 1, 0), 1 / np.sqrt(2))
    assert_allclose(cg(half, half, half, -half, 0, 0), 1 / np.sqrt(2))
    assert_allclose(cg(half, -half, half, half, 0, 0), -1 / np.sqrt(2))
    assert_allclose(cg(1, 1, 1, -1, 2, 0), 1 / np.sqrt(6))
    assert_allclose(cg(1, 1, 1, -1, 1, 0), 1 / np.sqrt(2))
    assert_allclose(cg(1, 1, 1, -1, 0, 0), 1 / np.sqrt(3))
    assert_allclose(cg(1, 0, 1, 0, 2, 0), np.sqrt(2.0 / 3.0))
    assert cg(1, 0, 1, 0, 1, 0) == 0.0
    assert_allclose(cg(1, 0, 1, 0, 0, 0), -1 / np.sqrt(3))
    # stretched states couple with unit amplitude
    for j1, j2 in [(half, half), (1, half), (2, HalfInt.of(1.5))]:
        assert cg(j1, j1, j2, j2, j1 + j2, j1 + j2) == 1.0


def test_cg_square_is_exact_square_of_cg():
    for j1 in spin_range(2) + spin_range(3):
        for j2 in spin_range(2) + spin_range(3):
            for J in coupled_range(j1, j2):
                for m1 in projections(j1):
                    for m2 in projections(j2):
                        amp = cg(j1, m1, j2, m2, J, m1 + m2)
                        square = cg_square(j1, m1, j2, m2, J, m1 + m2)
                        assert_allclose(amp * amp, float(square), atol=1e-15)


def test_cg_completeness_exact():
    # summing the squared coupling over J resolves the identity, exactly
    for j1 in [HalfInt.of(0.5), HalfInt.of(1), HalfInt.of(1.5), HalfInt.of(3)]:
        for j2 in [HalfInt.of(0.5), HalfInt.of(1), HalfInt.of(2.5)]:
            for m1 in projections(j1):
                for m2 in projections(j2):
                    total = sum(
                        cg_square(j1, m1, j2, m2, J, m1 + m2)
                        for J in coupled_range(j1, j2)
                        if abs((m1 + m2).doubled) <= J.doubled
                    )
                    assert total == 1


def test_cg_orthogonality_between_coupled_states():
    for j1 in [HalfInt.of(1), HalfInt.of(1.5)]:
        for j2 in [HalfInt.of(0.5), HalfInt.of(1)]:
            couplings = coupled_range(j1, j2)
            for Ja in couplings:
                for Jb in couplings:
                    for M in projections(min(Ja, Jb)):
                        total = sum(
                            cg(j1, m1, j2, M - m1, Ja, M) * cg(j1, m1, j2, M - m1, Jb, M)
                            for m1 in projections(j1)
                            if abs((M - m1).doubled) <= j2.doubled
                        )
                        expected = 1.0 if Ja == Jb else 0.0
                        assert abs(total - expected) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(-50, 50))
def test_halfint_arithmetic_agrees_with_fraction(da, db, k):
    a, b = HalfInt(da), HalfInt(db)
    fa, fb = Fraction(da, 2), Fraction(db, 2)
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a + k).as_fraction() == (k + a).as_fraction() == fa + k
    assert (a - k).as_fraction() == fa - k
    assert (k - a).as_fraction() == k - fa
    assert (-a).as_fraction() == -fa
    assert abs(a).as_fraction() == abs(fa)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.data())
def test_cg_orthogonality_property(dj1, dj2, data):
    j1, j2 = HalfInt(dj1), HalfInt(dj2)
    couplings = coupled_range(j1, j2)
    Ja = data.draw(st.sampled_from(couplings))
    Jb = data.draw(st.sampled_from(couplings))
    M = data.draw(st.sampled_from(projections(min(Ja, Jb))))
    total = sum(
        cg(j1, m1, j2, M - m1, Ja, M) * cg(j1, m1, j2, M - m1, Jb, M)
        for m1 in projections(j1)
        if abs((M - m1).doubled) <= j2.doubled
    )
    assert abs(total - (1.0 if Ja == Jb else 0.0)) < 1e-12


def _lowering_matrix(j: HalfInt) -> np.ndarray:
    """J- in the basis |j, m> with m ascending along the index."""
    dim = j.dim
    out = np.zeros((dim, dim))
    jj = j.as_fraction()
    for k in range(1, dim):
        m = -jj + k
        out[k - 1, k] = float(np.sqrt(float(jj * (jj + 1) - m * (m - 1))))
    return out


def _ladder_cg_table(j1: HalfInt, j2: HalfInt, J: HalfInt) -> dict:
    """Independent coupling table via highest weight plus lowering operators.

    Finds |J, J> as the null vector of the total raising operator inside the
    m = J subspace (sign fixed by a positive leading coefficient), then walks
    down with J-; no factorial formula is involved.
    """
    d1, d2 = j1.dim, j2.dim
    low1, low2 = _lowering_matrix(j1), _lowering_matrix(j2)
    lower_total = np.kron(low1, np.eye(d2)) + np.kron(np.eye(d1), low2)
    raise_total = lower_total.T
    # basis of the m1 + m2 = J subspace (indices with m ascending per factor)
    sector = [
        (k1, k2)
        for k1 in range(d1)
        for k2 in range(d2)
        if (2 * k1 - j1.doubled) + (2 * k2 - j2.doubled) == J.doubled
    ]
    embed = np.zeros((d1 * d2, len(sector)))
    for col, (k1, k2) in enumerate(sector):
        embed[k1 * d2 + k2, col] = 1.0
    _, singular, vt = np.linalg.svd(raise_total @ embed)
    assert singular[-1] < 1e-12, "top state of the multiplet must be annihilated"
    top = embed @ vt[-1]
    # Condon-Shortley: <j1, m1=j1 | J, J> > 0
    lead = top[(d1 - 1) * d2 + (J.doubled - j1.doubled + j2.doubled) // 2]
    if lead < 0:
        top = -top
    table = {}
    vec = top
    JJ = J.as_fraction()
    m = JJ
    while True:
        for k1 in range(d1):
            for k2 in range(d2):
                if abs(vec[k1 * d2 + k2]) > 0:
                    m1 = HalfInt(2 * k1 - j1.doubled)
                    m2 = HalfInt(2 * k2 - j2.doubled)
                    table[(m1, m2, HalfInt.of(m))] = vec[k1 * d2 + k2]
        if m == -JJ:
            break
        vec = lower_total @ vec / float(np.sqrt(float(JJ * (JJ + 1) - m * (m - 1))))
        m -= 1
    return table


def test_cg_against_ladder_construction():
    pairs = [
        (HalfInt.of(0.5), HalfInt.of(0.5)),
        (HalfInt.of(1), HalfInt.of(0.5)),
        (HalfInt.of(1), HalfInt.of(1)),
        (HalfInt.of(1.5), HalfInt.of(1)),
        (HalfInt.of(2), HalfInt.of(1.5)),
        (HalfInt.of(2), HalfInt.of(2)),
    ]
    for j1, j2 in pairs:
        for J in coupled_range(j1, j2):
            table = _ladder_cg_table(j1, j2, J)
            for (m1, m2, M), amplitude in table.items():
                assert abs(cg(j1, m1, j2, m2, J, M) - amplitude) < 1e-12
            # and every formula value is present in the ladder table
            for m1 in projections(j1):
                for m2 in projections(j2):
                    M = m1 + m2
                    if abs(M.doubled) > J.doubled:
                        continue
                    expected = table.get((m1, m2, M), 0.0)
                    assert abs(cg(j1, m1, j2, m2, J, M) - expected) < 1e-12


def test_coupled_projector_trace_identity():
    # Tr P_J restricted to one (j, l) sector equals 2J+1, exactly
    for j in spin_range(4) + spin_range(5):
        for l in spin_range(4):
            for J in coupled_range(j, l):
                total = Fraction(0)
                for M in projections(J):
                    for m in projections(j):
                        n = M - m
                        if abs(n.doubled) <= l.doubled:
                            total += cg_square(j, m, l, n, J, M)
                assert total == J.dim
