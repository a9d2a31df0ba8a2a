"""Closed-form single-copy output of covariant broadcasting channels.

For a product input of ``n_in`` identically prepared qubits with Bloch
length ``r``, the single-copy output state of any covariant
permutation-invariant channel is again diagonal along the input axis, with
Bloch length

    r' = sum_l (2l+1)/(2J_l+1) * d_l * sum_{m,n} w(l,n) <J_l m+n|j_l m, l n>^2 (2m/M)

where ``(j_l, J_l)`` is the per-sector choice of the map, ``d_l`` the input
multiplicity and ``w(l, n)`` the sector weights of the input state.

The inner sum over ``m`` has a closed form.  Tracing the output spin out of
the coupled projector leaves a vector operator on spin ``l``, so by the
Wigner-Eckart theorem the polarization moment is linear in ``n``:

    sum_m <J m+n|j m, l n>^2 m = alpha n,
    alpha = (2J+1) s / (2l(l+1)(2l+1)),   s = J(J+1) - j(j+1) - l(l+1).

Sector ``l`` therefore adds ``d_l s / (M l(l+1)) * sum_n n w(l, n)`` to
``r'``: the integer score ``s`` times a factor that depends only on ``l``
and ``r`` and is negative for ``r > 0``.  The argmax of ``r'`` over the
extremal maps splits into one exact argmin of ``s`` per sector, the same
for every ``r``; it is the half-output-spin map.

Moments are the exact rational ``alpha 2n`` rounded once to float, except
in anti-stretched sectors ``J = |j - l|`` of size ``2j + 2l >=
FAST_KERNEL_MIN_SIZE``, where a vectorized log-factorial kernel stays
because the reference digests in ``perfbench/golden.json`` pin its
last-digit rounding of the figure-2 table.  The dense-matrix oracle in
:mod:`superbroadcast.oracle` checks both against explicit output states.

The purity scaling factor is ``p(r) = r'/r``; ``p > 1`` means each output
copy is purer than each input copy (superbroadcasting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .channels import (
    ChannelCoeffs,
    ExtremalMap,
    coefficients_for,
    conjectured_optimal_map,
    extremal_count,
    mix,
)
from .su2core import HalfInt, SpinLike, multiplicity, projections, spin_range

__all__ = [
    "InputWeights",
    "BlochReport",
    "OptimalMapResult",
    "BlochCurve",
    "ScalingProfile",
    "input_weights",
    "single_copy_bloch",
    "single_copy_convex",
    "half_spin_scaling_at_zero",
    "optimal_map",
    "perfect_broadcast_channel",
    "scaling_profile",
]

# Sector size (2j + 2l) from which anti-stretched couplings use the
# log-factorial kernel instead of the exact alpha moments.
FAST_KERNEL_MIN_SIZE = 24


# ---------------------------------------------------------------------------
# input sector weights


@dataclass(frozen=True)
class InputWeights:
    """Sector weights of ``n_in`` identical qubits with Bloch length ``r``.

    The weight of the eigenvalue-``n`` state in any spin-``l`` sector is
    ``w(l, n) = ((1+r)/2)^(n_in/2 - n) * ((1-r)/2)^(n_in/2 + n)``; it does
    not depend on ``l`` beyond the admissible range of ``n``.  Summed against
    the sector multiplicities the weights carry the full unit trace, which
    :meth:`total` exposes for checking.
    """

    n_in: int
    r: float

    def __post_init__(self) -> None:
        if self.n_in < 1:
            raise ValueError(f"need at least one input qubit, got {self.n_in}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"Bloch length {self.r} outside [0, 1]")

    def weight(self, l: SpinLike, n: SpinLike) -> float:
        dl = HalfInt.of(l).doubled
        dn = HalfInt.of(n).doubled
        if abs(dn) > dl or dl > self.n_in or (self.n_in + dn) % 2 != 0:
            raise ValueError(
                f"projection {HalfInt(dn)} invalid in sector l={HalfInt(dl)} "
                f"of {self.n_in} qubits"
            )
        r_plus = (1.0 + self.r) / 2.0
        r_minus = (1.0 - self.r) / 2.0
        return r_plus ** ((self.n_in - dn) // 2) * r_minus ** ((self.n_in + dn) // 2)

    def weights_for(self, l: SpinLike) -> np.ndarray:
        """Vector of ``w(l, n)`` over ``n`` ascending from ``-l`` to ``l``."""
        return np.array([self.weight(l, n) for n in projections(l)])

    def total(self) -> float:
        """Multiplicity-weighted sum of all weights; equals 1 (unit trace)."""
        return float(
            sum(
                multiplicity(self.n_in, l) * self.weights_for(l).sum()
                for l in spin_range(self.n_in)
            )
        )


def input_weights(n_in: int, r: float) -> InputWeights:
    """Sector weights of the ``n_in``-qubit product input at Bloch length ``r``."""
    return InputWeights(n_in, float(r))


# ---------------------------------------------------------------------------
# per-sector Clebsch-Gordan moments


_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """Table ``t`` with ``t[k] = ln k!`` for ``k <= n`` (grows on demand)."""
    global _LOG_FACTORIALS
    if n >= _LOG_FACTORIALS.size:
        size = max(n + 1, 2 * _LOG_FACTORIALS.size, 256)
        _LOG_FACTORIALS = np.concatenate(
            [[0.0], np.cumsum(np.log(np.arange(1, size, dtype=float)))]
        )
    return _LOG_FACTORIALS


def _sector_score(dl: int, dj: int, dJ: int) -> int:
    """``4 s = 4 [J(J+1) - j(j+1) - l(l+1)]`` from doubled spins."""
    return dJ * (dJ + 2) - dj * (dj + 2) - dl * (dl + 2)


def _alpha_polarization(dl: int, dj: int, dJ: int) -> np.ndarray:
    """``sum_m <J m+n|j m, l n>^2 * 2m = alpha * 2n`` for ``n`` ascending.

    In doubled spins ``alpha * 2n = (dJ+1) 4s dn / (2 dl (dl+1) (dl+2))``.
    Python's ``int / int`` is correctly rounded, so every entry is the exact
    rational rounded once to float.
    """
    if dl == 0:
        return np.zeros(1)
    numerator = (dJ + 1) * _sector_score(dl, dj, dJ)
    denominator = 2 * dl * (dl + 1) * (dl + 2)
    return np.array([numerator * dn / denominator for dn in range(-dl, dl + 1, 2)])


@lru_cache(maxsize=4096)
def _moments_fast(dl: int, dj: int, dJ: int) -> tuple[np.ndarray, np.ndarray]:
    """Mass ``sum_m <J m+n|j m, l n>^2`` and polarization moments, log-factorial kernel.

    Only valid for anti-stretched coupling ``J = |j - l|``, where the
    Clebsch-Gordan square collapses to a single ratio of factorials.
    """
    if dJ != abs(dj - dl):
        raise ValueError("fast kernel requires the anti-stretched coupling J = |j - l|")
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
    # Internal cross-check: each mass must equal (2J+1)/(2l+1) exactly
    # (the trace identity of the coupled projector).
    expected = (dJ + 1) / (dl + 1)
    if not np.allclose(mass, expected, rtol=1e-8, atol=1e-12):
        raise ArithmeticError(
            f"log-factorial kernel lost mass in sector l={HalfInt(dl)}, "
            f"j={HalfInt(dj)}, J={HalfInt(dJ)}"
        )
    return mass, pol


def _polarization(dl: int, dj: int, dJ: int) -> np.ndarray:
    """Polarization moment vector of one sector, ``n`` ascending."""
    if dJ == abs(dj - dl) and dj + dl >= FAST_KERNEL_MIN_SIZE:
        return _moments_fast(dl, dj, dJ)[1]
    return _alpha_polarization(dl, dj, dJ)


# ---------------------------------------------------------------------------
# Bloch-length evaluation


@dataclass(frozen=True)
class BlochReport:
    """Single-copy output of a channel at input Bloch length ``r``.

    ``p`` is the scaling factor ``r'/r``; at ``r = 0`` it carries the
    analytic limit of that ratio instead of the undefined quotient.
    """

    r: float
    r_prime: float
    p: float


class BlochCurve:
    """Vectorized ``r'(r)`` and ``p(r)`` evaluator for one extremal map.

    Precomputes the coefficient that multiplies each input weight
    ``w(l, n)``; evaluating the curve is then a single weighted power sum,
    cheap enough for dense threshold grids at hundreds of qubits.
    """

    def __init__(self, emap: ExtremalMap):
        n_in, m_out = emap.n_in, emap.m_out
        coeff_parts = []
        dn_parts = []
        for l, j, J in emap.sectors():
            pol = _polarization(l.doubled, j.doubled, J.doubled)
            prefactor = l.dim / J.dim * multiplicity(n_in, l) / m_out
            dn = np.arange(-l.doubled, l.doubled + 1, 2)
            coeff_parts.append(prefactor * pol)
            dn_parts.append(dn)
        self.emap = emap
        self.n_in = n_in
        self.m_out = m_out
        self._coeff = np.concatenate(coeff_parts)
        self._dn = np.concatenate(dn_parts)
        self._exp_plus = (n_in - self._dn) // 2
        self._exp_minus = (n_in + self._dn) // 2

    def r_prime(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Output Bloch length at input length ``r`` (scalar or array)."""
        rr = np.asarray(r, dtype=float)
        if np.any(rr < 0) or np.any(rr > 1):
            raise ValueError("Bloch length outside [0, 1]")
        r_plus = (1.0 + rr) / 2.0
        r_minus = (1.0 - rr) / 2.0
        weights = r_plus[..., None] ** self._exp_plus * r_minus[..., None] ** self._exp_minus
        value = weights @ self._coeff
        # The fully mixed input maps to fully mixed outputs; pin the exact
        # zero rather than the cancellation residue of the power sum.
        value = np.where(rr == 0.0, 0.0, value)
        return float(value) if np.isscalar(r) else value

    def p_zero(self) -> float:
        """Limit of ``r'/r`` as ``r -> 0`` (derivative of ``r'`` at zero)."""
        return float(np.dot(self._coeff, -self._dn.astype(float)) * 0.5**self.n_in)

    def p(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Scaling factor ``r'/r``, with the analytic limit at ``r = 0``."""
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        values = np.empty_like(rr)
        nonzero = rr != 0
        if np.any(nonzero):
            values[nonzero] = self.r_prime(rr[nonzero]) / rr[nonzero]
        values[~nonzero] = self.p_zero()
        return float(values[0]) if np.isscalar(r) else values

    def report(self, r: float) -> BlochReport:
        r = float(r)
        r_prime = float(self.r_prime(r))
        p = r_prime / r if r > 0 else self.p_zero()
        return BlochReport(r=r, r_prime=r_prime, p=p)


@lru_cache(maxsize=512)
def _cached_curve(emap: ExtremalMap) -> BlochCurve:
    return BlochCurve(emap)


def single_copy_bloch(emap: ExtremalMap, r: float) -> BlochReport:
    """Single-copy output Bloch data of an extremal map at input length ``r``.

    The output Bloch vector is parallel to the input one; its length is the
    closed-form sector sum described in the module docstring.  At ``r = 0``
    the report's ``p`` is the analytic ``r -> 0`` limit.
    """
    return _cached_curve(emap).report(float(r))


def _convex_sums(coeffs: ChannelCoeffs, r: float) -> tuple[float, float]:
    """(r', derivative of r' at 0) for a general coefficient channel."""
    weights = input_weights(coeffs.n_in, r)
    r_prime = 0.0
    slope = 0.0
    for (j, l, J), s in coeffs.weights.items():
        if s == 0:
            continue
        pol = _polarization(l.doubled, j.doubled, J.doubled)
        scale = (
            float(s)
            * multiplicity(coeffs.m_out, j)
            * multiplicity(coeffs.n_in, l)
            / coeffs.m_out
        )
        w = weights.weights_for(l)
        dn = np.arange(-l.doubled, l.doubled + 1, 2)
        r_prime += scale * float(w @ pol)
        slope += scale * float((-dn * 0.5**coeffs.n_in) @ pol)
    return r_prime, slope


def single_copy_convex(coeffs: ChannelCoeffs, r: float) -> BlochReport:
    """Single-copy output Bloch data of a convex-mixture channel.

    Linear in the channel weights: each triple ``(j, l, J)`` contributes
    ``s * d_j * d_l * sum_n w(l,n) * sum_m <J m+n|j m, l n>^2 (2m/M)``, which
    reduces to :func:`single_copy_bloch` for the weights of a single
    extremal map.
    """
    r = float(r)
    r_prime, slope = _convex_sums(coeffs, r)
    p = r_prime / r if r > 0 else slope
    return BlochReport(r=r, r_prime=r_prime, p=p)


def half_spin_scaling_at_zero(n_in: int, m_out: int) -> Fraction:
    """Exact ``r -> 0`` scaling limit of the half-output-spin map.

    Within a coupled projector the three Cartesian spin-spin correlations
    are equal, so the Clebsch-Gordan first moment collapses to the scalar
    ``[J(J+1) - j(j+1) - l(l+1)] / 3``, which for ``j = M/2`` and
    ``J = M/2 - l`` equals ``-l(M+2)/3``.  The limit of ``r'/r`` then
    reduces to the rational number

        p(0) = (M+2) / (3 M 2^N) * sum_l 2l (2l+1) d_l ,

    a closed form this function returns exactly.  It must (and does) agree
    with :meth:`BlochCurve.p_zero` of the conjectured map; requires
    ``m_out >= n_in`` so that every sector has ``J = M/2 - l >= 0``.
    """
    if m_out < n_in:
        raise ValueError(f"need M >= N, got N={n_in}, M={m_out}")
    weighted = sum(
        l.doubled * l.dim * multiplicity(n_in, l) for l in spin_range(n_in)
    )
    return Fraction((m_out + 2) * weighted, 3 * m_out * 2**n_in)


# ---------------------------------------------------------------------------
# optimal map search


@dataclass(frozen=True)
class OptimalMapResult:
    """Outcome of maximizing ``r'`` over the extremal maps.

    Attributes:
        best_map: the maximizing map.  Only a spin-0 input sector ties (it
            contributes nothing for every choice); there the tie goes to the
            half-output-spin choice.
        report: its Bloch data at the requested ``r``.
        matches_conjecture: whether it coincides with the half-output-spin
            rule of :func:`superbroadcast.channels.conjectured_optimal_map`.
        exhaustive: always True; the per-sector argmax covers every map.
        candidates: number of extremal maps in the search space.
    """

    best_map: ExtremalMap
    report: BlochReport
    matches_conjecture: bool
    exhaustive: bool
    candidates: int


def _per_sector_map(n_in: int, m_out: int, key: Callable[..., object]) -> ExtremalMap:
    """The map taking, for each input spin ``l``, the legal ``(j, J)`` with
    the largest ``key(2l, 2j, 2J)``; ties go to the first in the order of
    :func:`superbroadcast.channels.enumerate_extremal` (ascending ``j``,
    then ``J``)."""
    outs, coupled = [], []
    for dl in (l.doubled for l in spin_range(n_in)):
        choices = (
            (dj, dJ)
            for dj in range(m_out % 2, m_out + 1, 2)
            for dJ in range(abs(dj - dl), dj + dl + 1, 2)
        )
        dj, dJ = max(choices, key=lambda c: key(dl, *c))
        outs.append(HalfInt(dj))
        coupled.append(HalfInt(dJ))
    return ExtremalMap(n_in, m_out, tuple(outs), tuple(coupled))


def optimal_map(n_in: int, m_out: int, r: float) -> OptimalMapResult:
    """Exact argmax of ``r'`` over all extremal maps at ``r``.

    The smallest score ``s`` in every sector, for every ``r`` (see the
    module docstring; the ``r -> 0`` slope ranks maps the same way).  Ties,
    only at ``l = 0``, go to the half-output-spin choice ``j = J = M/2``.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"Bloch length {r} outside [0, 1]")
    best = _per_sector_map(n_in, m_out, lambda dl, dj, dJ: (-_sector_score(dl, dj, dJ), dj))
    return OptimalMapResult(
        best_map=best,
        report=single_copy_bloch(best, r),
        matches_conjecture=best == conjectured_optimal_map(n_in, m_out),
        exhaustive=True,
        candidates=extremal_count(n_in, m_out),
    )


def _most_depolarizing_map(n_in: int, m_out: int) -> ExtremalMap:
    """Extremal map with the smallest ``r'`` at every ``0 < r < 1``.

    The per-sector argmax of ``s``.  Ties (only at ``l = 0``) go to the
    first choice in enumeration order, which makes the map the first
    minimizer over :func:`superbroadcast.channels.enumerate_extremal`.
    """
    return _per_sector_map(n_in, m_out, _sector_score)


def perfect_broadcast_channel(n_in: int, m_out: int, r: float) -> Optional[ChannelCoeffs]:
    """A channel whose single-copy output reproduces ``r`` exactly, if any.

    When the optimal map achieves ``p(r) >= 1``, mixing it with the most
    depolarizing extremal map tunes the output length continuously, so some
    convex weight hits ``r' = r``.  Returns the mixed channel coefficients,
    or ``None`` when even the optimal map falls short (``p(r) < 1``).
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"need 0 < r < 1 for exact re-broadcasting, got {r}")
    best = optimal_map(n_in, m_out, r)
    upper = best.report.r_prime
    if upper < r:
        return None
    partner = _most_depolarizing_map(n_in, m_out)
    lower = single_copy_bloch(partner, r).r_prime
    if lower > r:
        return None
    weight = (r - lower) / (upper - lower) if upper > lower else 1.0
    return mix(coefficients_for(best.best_map), coefficients_for(partner), weight)


# ---------------------------------------------------------------------------
# scaling profiles (shared by thresholds and the command line)


@dataclass(frozen=True)
class ScalingProfile:
    """The ``p(r)`` curve of the optimal map for one ``(N, M)`` pair.

    ``exhaustive`` is always True: the map is the exact argmax of
    :func:`optimal_map`.
    """

    n_in: int
    m_out: int
    emap: ExtremalMap
    exhaustive: bool
    curve: BlochCurve

    def r_prime(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        return self.curve.r_prime(r)

    def p(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        return self.curve.p(r)

    def p_zero(self) -> float:
        return self.curve.p_zero()


@lru_cache(maxsize=64)
def scaling_profile(n_in: int, m_out: int) -> ScalingProfile:
    """Profile of the half-output-spin map, the optimum by :func:`optimal_map`."""
    emap = conjectured_optimal_map(n_in, m_out)
    return ScalingProfile(n_in, m_out, emap, True, BlochCurve(emap))
