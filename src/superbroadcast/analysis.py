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
``r'``: the score ``s`` times a factor that depends only on ``l``
and ``r``, negative for ``0 < r < 1`` and never positive.  The argmax of
``r'`` over the extremal maps splits into one exact argmin of ``s`` per
sector, the same for every ``r``; it is the half-output-spin map, whose
closed form :func:`optimal_map` derives.

Moments are the exact rational ``alpha 2n`` rounded once to float, except
in anti-stretched sectors ``J = |j - l|`` of size ``FAST_KERNEL_MIN_SIZE
<= 2j + 2l <= FAST_KERNEL_MAX_SIZE`` (24 to 201), where a log-factorial
kernel stays because the reference digests in ``perfbench/golden.json`` pin
its last-digit rounding of the figure-2 table; 201 is the largest such
sector that table builds.  It builds only each square's nonzero band, in
one pass, with the per-entry operation order of the index-gather form
those digests were taken with, so it keeps every bit.  The
dense-matrix oracle in :mod:`superbroadcast.oracle` checks both against
explicit output states.

``r'`` is linear in the channel weights, so one :class:`BlochCurve` serves
extremal maps (through their exact weights) and convex mixtures alike.

The purity scaling factor is ``p(r) = r'/r``; ``p > 1`` means each output
copy is purer than each input copy (superbroadcasting).  ``p(0)`` of the
optimal map is the exact rational :func:`half_spin_scaling_at_zero`, which
decides every ``p(0) > 1`` question without rounding.  Its ``r'`` is
``(M+2)/M * F_N(r)`` for ``M >= N``, and the thresholds evaluate ``F_N`` in
the O(N) binomial form of :func:`_f_n` instead of on a curve, as do the
profiles of :func:`scaling_profile` from ``N = 101`` on, which answer at
``N = 10^5`` (see :class:`ScalingProfile` for the pairs that keep a curve).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from .channels import (
    ChannelCoeffs,
    ExtremalMap,
    _balanced_product,
    coefficients_for,
    conjectured_optimal_map,
    extremal_count,
    mix,
)
from .su2core import (
    HalfInt, SpinLike, _couples, _is_spin_of, multiplicity, projections, spin_range
)

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

# Sector sizes (2j + 2l) between which anti-stretched couplings use the
# log-factorial kernel instead of the exact alpha moments.  The upper end is
# the largest anti-stretched sector that ``figure2`` builds, l = 50 and
# j = 101/2 of its (100, 101) curve, whose kernel bits the digest pins.
FAST_KERNEL_MIN_SIZE = 24
FAST_KERNEL_MAX_SIZE = 201


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
        if not _is_spin_of(self.n_in, dl) or abs(dn) > dl or (self.n_in + dn) % 2 != 0:
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
        """Multiplicity-weighted sum of all weights, exact from the float ``r_+-``
        by the exponent ``k = N/2 - n`` of ``r_+`` (shared by every sector
        ``l >= |n|``) and rounded once; equals 1 (unit trace)."""
        n, cum, running = self.n_in, {}, 0
        for l in reversed(spin_range(n)):
            running = cum[l.doubled] = running + multiplicity(n, l)
        (a, p), (b, q) = (((1.0 + s * self.r) / 2.0).as_integer_ratio() for s in (1, -1))
        a, b, unit = a * max(p, q) // p, b * max(p, q) // q, max(p, q)  # r_+- = a/unit, b/unit
        # sum_k cum a^k b^(N-k) by binary splitting: each run of exponents
        # [lo, hi) holds (sum of cum a^(k-lo) b^(hi-1-k), a^(hi-lo), b^(hi-lo)),
        # and neighbours join in a balanced tree, on operands of similar length
        runs = [(cum[abs(n - 2 * k)], a, b) for k in range(n + 1)]
        while len(runs) > 1:
            paired = [
                (s1 * b2 + a1 * s2, a1 * a2, b1 * b2)
                for (s1, a1, b1), (s2, a2, b2) in zip(runs[::2], runs[1::2])
            ]
            runs = paired + runs[2 * len(paired):]
        return runs[0][0] / unit**n


def input_weights(n_in: int, r: float) -> InputWeights:
    """Sector weights of the ``n_in``-qubit product input at Bloch length ``r``."""
    return InputWeights(n_in, float(r))


# ---------------------------------------------------------------------------
# per-sector Clebsch-Gordan moments


# ``ln k!`` for ``k < 256``; the kernel window reads ``k <= FAST_KERNEL_MAX_SIZE + 1``.
_LOG_FACTORIALS = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 256, dtype=float)))])


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


def _moments_fast(dl: int, dj: int, dJ: int) -> tuple[np.ndarray, np.ndarray]:
    """Mass ``sum_m <J m+n|j m, l n>^2`` and polarization moments, log-factorial kernel.

    Only valid for anti-stretched coupling ``J = |j - l|``, where the
    Clebsch-Gordan square collapses to a single ratio of factorials.  With
    row ``a = n + l`` and column ``b = m + j``, its log is a scalar, plus
    two vectors along the larger spin, minus two along the smaller, minus
    two in ``k = a + b - small``; it is nonzero only on the band
    ``0 <= k <= dJ``.  Indexed by (small-side index, ``k``) every operand is
    a view, so each band entry takes the operations of the index-gather form
    in ``tests/test_moments_kernel.py`` in the same order and the bits pinned
    by the ``figure2`` digest hold.  The band is written in one pass through
    a sheared view into the one C-ordered square, whose zeros off the band
    numpy's pairwise row sums need.  Sectors past ``FAST_KERNEL_MAX_SIZE``
    raise ValueError.
    """
    if dJ != abs(dj - dl) or dj + dl > FAST_KERNEL_MAX_SIZE:
        raise ValueError("fast kernel serves anti-stretched J = |j - l| with 2j + 2l <= 201")
    t = _LOG_FACTORIALS
    small, big = min(dl, dj), max(dl, dj)
    c = math.log(dJ + 1) + t[small] + t[dJ] - t[big + 1]
    big_side = (c + t[: big + 1]) + t[big::-1]
    # Band row s (small side) at k = a + b - small reads big_side[small - s + k].
    toeplitz = np.ndarray((small + 1, dJ + 1), float, big_side, small * 8, (-8, 8))
    up, down = t[: small + 1, None], t[small::-1, None]
    square = np.zeros((dl + 1, dj + 1))
    along, across = (dj + 1, 1) if dj >= dl else (1, small + 1)
    strides = ((along - across) * 8, across * 8)
    band = np.ndarray(toeplitz.shape, float, square, small * across * 8, strides)
    log_band = np.subtract(toeplitz, up)
    log_band -= down
    log_band -= t[: dJ + 1]
    log_band -= t[dJ::-1]
    band[...] = np.exp(log_band, out=log_band)
    mass = square.sum(axis=1)
    square *= np.arange(-dj, dj + 1, 2.0)
    pol = square.sum(axis=1)
    # Internal cross-check: each mass must equal (2J+1)/(2l+1) exactly
    # (the trace identity of the coupled projector).
    expected = (dJ + 1) / (dl + 1)
    if not (np.abs(mass - expected) <= 1e-12 + 1e-8 * expected).all():
        raise ArithmeticError(
            f"log-factorial kernel lost mass in sector l={HalfInt(dl)}, "
            f"j={HalfInt(dj)}, J={HalfInt(dJ)}"
        )
    return mass, pol


def _polarization(dl: int, dj: int, dJ: int) -> np.ndarray:
    """Polarization moment vector of one sector, ``n`` ascending: the exact
    alpha moments, except in the anti-stretched sectors of the kernel window
    ``FAST_KERNEL_MIN_SIZE <= 2j + 2l <= FAST_KERNEL_MAX_SIZE``."""
    if dJ == abs(dj - dl) and FAST_KERNEL_MIN_SIZE <= dj + dl <= FAST_KERNEL_MAX_SIZE:
        return _moments_fast(dl, dj, dJ)[1]
    return _alpha_polarization(dl, dj, dJ)


# ---------------------------------------------------------------------------
# Bloch-length evaluation


def _bloch_lengths(r: Union[float, np.ndarray]) -> np.ndarray:
    """``r`` as a float array; ValueError unless every entry lies in [0, 1]."""
    rr = np.asarray(r, dtype=float)
    if not ((rr >= 0) & (rr <= 1)).all():
        raise ValueError("Bloch length outside [0, 1]")
    return rr


def _scaling_factor(r, r_prime, p_zero) -> Union[float, np.ndarray]:
    """``r_prime(r)/r`` at each ``r``, one batch for every nonzero ``r``, and
    ``p_zero()`` at ``r = 0``; a float for a scalar ``r``, else the shape of ``r``."""
    rr = np.asarray(r, dtype=float)
    nonzero = rr != 0
    if nonzero.all():
        values = (r_prime(rr.ravel()) / rr.ravel()).reshape(rr.shape)
    else:
        values = np.full_like(rr, p_zero())
        if nonzero.any():
            values[nonzero] = r_prime(rr[nonzero]) / rr[nonzero]
    return float(values) if np.isscalar(r) else values


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
    """Vectorized ``r'(r)`` and ``p(r)`` evaluator for one channel.

    Takes an extremal map or the coefficients of any convex mixture; a
    weighted ``J`` that cannot couple its ``j`` and ``l`` raises ValueError,
    and a sector prefactor ``s d_j d_l / M`` past the float range raises
    OverflowError.  Precomputes the coefficient that multiplies each input weight
    ``w(l, n)``; evaluating the curve is then a single weighted power sum.
    Its slope at zero, ``p(0) = -2/(3 M 2^N) sum s d_j d_l (2J+1) sigma``
    with ``sigma = J(J+1) - j(j+1) - l(l+1)``, is summed exactly over the
    weighted triples and rounded once.

    ``w(l, n)`` has only ``n_in + 1`` distinct values, so each point gets
    one power table ``r_+^k r_-^(n_in-k)`` that is gathered onto the
    coefficients.  The gathered matrix must stay C-ordered: the same
    numbers in F order take another BLAS kernel in the final product,
    whose last bits differ.  Results also depend on how many points are
    evaluated together, so callers keep their batches.
    """

    def __init__(self, channel: Union[ExtremalMap, ChannelCoeffs]):
        coeffs = coefficients_for(channel) if isinstance(channel, ExtremalMap) else channel
        n_in, m_out = coeffs.n_in, coeffs.m_out
        coeff_parts = []
        exp_parts = []
        numerator, denominator = 0, 1
        for (j, l, J), s in coeffs.weights.items():
            if not _couples(j.doubled, l.doubled, J.doubled):
                raise ValueError(f"total spin J={J} cannot couple j={j} and l={l}")
            d_j, d_l = multiplicity(m_out, j), multiplicity(n_in, l)
            # s d_j is exact, (2l+1)/(2J+1) for an extremal map
            prefactor = float(s * d_j) * d_l / m_out
            if not math.isfinite(prefactor):
                sector = f"sector (j={j}, l={l}, J={J})"
                raise OverflowError(f"{sector} overflows a float at N={n_in}, M={m_out}")
            coeff_parts.append(prefactor * _polarization(l.doubled, j.doubled, J.doubled))
            exp_parts.append(np.arange((n_in + l.doubled) // 2, (n_in - l.doubled) // 2 - 1, -1))
            top, bottom = s.as_integer_ratio()
            term = top * d_j * d_l * J.dim * _sector_score(l.doubled, j.doubled, J.doubled)
            numerator, denominator = numerator * bottom + term * denominator, denominator * bottom
        self.n_in = n_in
        self.m_out = m_out
        self._coeff = np.concatenate(coeff_parts)
        self._exp_plus = np.concatenate(exp_parts)
        self._p_zero = -numerator / (6 * m_out * denominator << n_in)

    def r_prime(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Output Bloch length at input length ``r`` (scalar or array)."""
        rr = _bloch_lengths(r)
        r_plus = (1.0 + rr) / 2.0
        r_minus = (1.0 - rr) / 2.0
        k = np.arange(self.n_in + 1)
        table = r_plus[..., None] ** k * r_minus[..., None] ** k[::-1]
        # np.take, not fancy indexing, which would gather in F order
        weights = np.take(table, self._exp_plus, axis=-1)
        value = weights @ self._coeff
        # The fully mixed input maps to fully mixed outputs; pin the exact
        # zero rather than the cancellation residue of the power sum.
        value = np.where(rr == 0.0, 0.0, value)
        return float(value) if np.isscalar(r) else value

    def p_zero(self) -> float:
        """Limit of ``r'/r`` as ``r -> 0``, the exact sector sum rounded once."""
        return self._p_zero

    def p(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Scaling factor ``r'/r``, with the analytic limit at ``r = 0``."""
        return _scaling_factor(r, self.r_prime, self.p_zero)

    def report(self, r: float) -> BlochReport:
        return _report(self, r)


def _report(curve: Union[BlochCurve, ScalingProfile], r: float) -> BlochReport:
    """Bloch data at ``r`` from a curve or a profile's ``r_prime`` and ``p_zero``."""
    r = float(r)
    r_prime = float(curve.r_prime(r))
    p = r_prime / r if r > 0 else curve.p_zero()
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


def single_copy_convex(coeffs: ChannelCoeffs, r: float) -> BlochReport:
    """Single-copy output Bloch data of a convex-mixture channel.

    Linear in the channel weights: each triple ``(j, l, J)`` contributes
    ``s * d_j * d_l * sum_n w(l,n) * sum_m <J m+n|j m, l n>^2 (2m/M)``.  The
    same :class:`BlochCurve` evaluates it, so for the weights of a single
    extremal map the result equals :func:`single_copy_bloch` exactly.
    """
    return BlochCurve(coeffs).report(r)


@lru_cache(maxsize=64)
def _zero_slope(n_in: int) -> Fraction:
    """``K_N = lim_{r -> 0} F_N(r)/r``, so that ``p(0) = (M+2)/M * K_N``.

    For ``M >= N`` the half-output-spin map has ``s = -l(M+2)`` in every
    sector, so ``r' = (M+2)/M * F_N(r)`` with ``F_N`` free of ``M``.
    ``K_N = (2/3) E[l] = sum_l 2l(2l+1) d_l / (3 2^N)`` under the maximally
    mixed input.  An added qubit moves spin ``l`` to ``l +- 1/2`` in
    proportion ``2l+2 : 2l``, which raises ``E[l]`` by
    ``E[1/(2(2l+1))] = sum_l d_l / 2^N``, and ``sum_l d_l = C(N, N // 2)``:

        K_N - K_(N-1) = C(N-1, (N-1) // 2) / (3 2^(N-1)) > 0.

    With ``G_N = 3 2^N K_N`` the step reads
    ``G_N - 2 G_(N-1) = 2 C(N-1, (N-1) // 2)``, and telescoping it from
    ``G_0 = 0`` gives

        G_N = c_N C(N, N // 2) - 2^N,   c_N = 2N+2 (N odd), 2N+1 (N even),

    since ``C(2m+1, m) = C(2m, m) (2m+1)/(m+1)`` and
    ``C(2m, m) = 2 C(2m-1, m-1)`` make ``c_N C(N, N // 2) - 2 c_(N-1)
    C(N-1, (N-1) // 2)`` equal to ``2 C(N-1, (N-1) // 2)`` at either parity.
    So ``K_N`` strictly increases with ``N`` (``K_5 = 11/12 < 1 <=
    K_6 = 49/48``), grows like ``(2 sqrt(2N/pi) - 1)/3``, and costs one
    binomial coefficient.
    """
    if n_in < 1:
        raise ValueError(f"need at least one qubit, got {n_in}")
    c = 2 * n_in + 2 if n_in % 2 else 2 * n_in + 1
    return Fraction(c * _central_binomial(n_in) - 2**n_in, 3 * 2**n_in)


def _central_binomial(n: int) -> int:
    """``C(n, n // 2)`` as the product of ``p^e`` over the primes ``p <= n``,
    with ``e = sum_i (floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i))`` for
    ``k = n // 2`` (Legendre); unlike ``math.comb``, fast at ``n = 10^6``."""
    k = n // 2
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    factors = [1]
    for p in itertools.compress(range(n + 1), sieve):
        e, q = 0, p
        while q <= n:
            e, q = e + n // q - k // q - (n - k) // q, q * p
        factors.append(p**e)
    return _balanced_product(factors)


@lru_cache(maxsize=64)
def _binomial_coefficients(n_in: int) -> np.ndarray:
    """``b_k = (k - N/2) S_|N-2k|`` for ``k = 0..N``, so that ``F_N = E[b_K]``.

    Collecting the sector sum of ``F_N`` by the exponent ``k`` of ``r_+``
    leaves ``C(N, k) r_+^k r_-^(N-k)`` times ``b_k``, where ``S_dl`` is
    ``sum_{l >= dl/2} d_l/(l+1)`` over ``C(N, (N-dl)/2)``.  The recursion

        S_dl = 4(dl+1)/((N+dl+2)(dl+2)) + S_(dl+2) (N-dl)/(N+dl+2),   S_(N+2) = 0,

    uses the ratios ``d_l / C`` and ``C(N, a-1) / C(N, a)``, so no
    multiplicity or binomial coefficient is ever a float.
    """
    s_by_dl = np.zeros(n_in + 1)
    s = 0.0
    for dl in range(n_in, -1, -2):
        s = 4 * (dl + 1) / ((n_in + dl + 2) * (dl + 2)) + s * (n_in - dl) / (n_in + dl + 2)
        s_by_dl[dl] = s
    k = np.arange(n_in + 1)
    return (k - n_in / 2) * s_by_dl[np.abs(n_in - 2 * k)]


@lru_cache(maxsize=64)
def _pmf_ratios(n_in: int) -> np.ndarray:
    """``t_i = (N-i)/(i+1)`` for ``i = 0..N``, then ``min(40 sqrt(N) + 40, N)`` zeros.

    The binomial pmf steps up by ``P(k+1)/P(k) = t_k r_+/r_-`` and down by
    ``P(k-1)/P(k) = k/(N-k+1) r_-/r_+ = t_(N-k) r_-/r_+``, so one table of
    IEEE quotients of two integers serves both sides; the zeros end the
    running products of :func:`_f_n_rows` past ``k = 0`` and ``N``.
    """
    reach, i = int(40 * math.sqrt(n_in) + 40), np.arange(n_in + 1)
    return np.concatenate([(n_in - i) / (i + 1), np.zeros(min(reach, n_in))])


def _f_n(n_in: int, r: float) -> float:
    """``F_N(r) = E[b_K]`` with ``K ~ Bin(N, (1+r)/2)``, in O(sqrt N) per point.

    The optimal map has ``r' = (M+2)/M * F_N(r)`` for every ``M >= N``.
    ``q`` is the pmf over its value at the mode: a running product outward
    from it per side, of a :func:`_pmf_ratios` slice times ``r_+/r_-`` (up)
    or ``r_-/r_+`` (down), for ``40 sqrt(N) + 40`` steps at most (Hoeffding
    puts the mass beyond below ``e^-3200``); ``sum b q / sum q`` over that
    window needs no binomial coefficient, and no BLAS call sees the sums.
    ``F_N(0) = 0`` and ``F_N(1) = b_N`` are exact.
    """
    b, t = _binomial_coefficients(n_in), _pmf_ratios(n_in)
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return float(b[-1])
    r_plus, r_minus = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    mode = min(int((n_in + 1) * r_plus), n_in)
    reach = int(40 * math.sqrt(n_in) + 40)
    lo, hi = max(mode - reach, 0), min(mode + reach, n_in)
    q = np.empty(hi - lo + 1)
    q[mode - lo] = 1.0
    np.cumprod(t[n_in - mode : n_in - lo] * (r_minus / r_plus), out=q[: mode - lo][::-1])
    np.cumprod(t[mode:hi] * (r_plus / r_minus), out=q[mode - lo + 1 :])
    return float((b[lo : hi + 1] * q).sum() / q.sum())


def _f_n_rows(n_in: int, rs: np.ndarray) -> np.ndarray:
    """:func:`_f_n` at each entry of the 1-D array ``rs``, bit for bit;
    ValueError unless every entry lies in [0, 1].

    Each row takes the scalar call's window, ratios, running products and
    division.  numpy's pairwise ``sum`` adds in an order set by its length,
    so rows of one window length are summed together, unpadded, in blocks
    of about 1 MiB (O(N) memory).  A block runs every row's products as far
    as its widest row's, into the table's zeros past ``k = 0`` or ``N``,
    and reads each row's window out of them.  Up to ``N = 1679`` every
    window is ``[0, N]`` (``40 sqrt(N) + 40 >= N``), so the blocks slice the
    batch and share ``b`` as their window.  A batch inside ``(0, 1)`` passes
    one mask, which validates it, and skips those that pin the exact ends.
    """
    b, t = _binomial_coefficients(n_in), _pmf_ratios(n_in)
    inner = (rs > 0.0) & (rs < 1.0)
    every = inner.all()
    if not every:
        _bloch_lengths(rs)  # ValueError outside [0, 1]
    x = rs if every else np.where(inner, rs, 0.5)  # 0.5 stands in for an exact end
    r_plus, r_minus = (1.0 + x) / 2.0, (1.0 - x) / 2.0
    fall, rise = (r_minus / r_plus)[:, None], (r_plus / r_minus)[:, None]
    mode = np.minimum(((n_in + 1) * r_plus).astype(np.int64), n_in)
    reach = int(40 * math.sqrt(n_in) + 40)
    # a row's window is k = mode - down .. mode + up, of size down + up + 1
    if reach >= n_in:
        down, up, step = mode, n_in - mode, max(1, (1 << 17) // (n_in + 1))
        blocks = [(n_in + 1, slice(i, i + step)) for i in range(0, x.size, step)]
    else:
        down, up = np.minimum(mode, reach), np.minimum(n_in - mode, reach)
        width, blocks = down + up + 1, []
        for size in sorted(set(width.tolist())):
            same, step = np.flatnonzero(width == size), max(1, (1 << 17) // size)
            blocks += [(size, same[i : i + step]) for i in range(0, same.size, step)]
    # row i of each strided view below is a[i : i + columns] of its array a
    ratios = np.ndarray((n_in + 1, t.size - n_in), float, t, 0, (8, 8))
    values = np.empty(x.size)
    product = np.multiply.accumulate  # np.cumprod's loop; its wrapper costs more than a row
    for size, rows in blocks:
        m, d = mode[rows], down[rows]
        below, above = int(d.max()), int(up[rows].max())
        # column c holds q at k = m - below + c
        q_all = np.empty((m.size, below + 1 + above))
        q_all[:, below] = 1.0
        product(ratios[n_in - m, :below] * fall[rows], axis=1, out=q_all[:, :below][:, ::-1])
        product(ratios[m, :above] * rise[rows], axis=1, out=q_all[:, below + 1 :])
        flat = np.ndarray((q_all.size - size + 1, size), float, q_all, 0, (8, 8))
        q = flat[np.arange(below, q_all.size, q_all.shape[1]) - d]
        # the one window of size N + 1 is b itself
        windows = np.ndarray((n_in + 2 - size, size), float, b, 0, (8, 8))
        values[rows] = ((windows[m - d] if size <= n_in else b) * q).sum(axis=1) / q.sum(axis=1)
    return values if every else np.where(inner, values, np.where(rs == 1.0, b[-1], 0.0))


def half_spin_scaling_at_zero(n_in: int, m_out: int) -> Fraction:
    """Exact ``r -> 0`` scaling limit of the half-output-spin map.

    Within a coupled projector the three Cartesian spin-spin correlations
    are equal, so the Clebsch-Gordan first moment collapses to the scalar
    ``[J(J+1) - j(j+1) - l(l+1)] / 3``, which for ``j = M/2`` and
    ``J = M/2 - l`` equals ``-l(M+2)/3``.  The limit of ``r'/r`` then
    reduces to the rational number

        p(0) = (M+2) / (3 M 2^N) * sum_l 2l (2l+1) d_l = (M+2)/M * K_N ,

    which this function returns exactly, with ``K_N`` from its
    one-binomial closed form (see :func:`_zero_slope`).  Rounded once, it
    is :meth:`BlochCurve.p_zero` of the conjectured map bit for bit; requires
    ``m_out >= n_in`` so that every sector has ``J = M/2 - l >= 0``.
    """
    if m_out < n_in:
        raise ValueError(f"need M >= N, got N={n_in}, M={m_out}")
    return Fraction(m_out + 2, m_out) * _zero_slope(n_in)


# ---------------------------------------------------------------------------
# the optimal and the most depolarizing map


@dataclass(frozen=True)
class OptimalMapResult:
    """Outcome of maximizing ``r'`` over the extremal maps.

    Attributes:
        best_map: the maximizing map, the half-output-spin map of
            :func:`superbroadcast.channels.conjectured_optimal_map`.
        report: its Bloch data at the requested ``r``.
        matches_conjecture: whether it coincides with the half-output-spin
            rule; always True, since the closed form derived in
            :func:`optimal_map` is that rule.
        exhaustive: always True; the derivation covers every map.
        candidates: number of extremal maps the argmax ranges over.
    """

    best_map: ExtremalMap
    report: BlochReport
    matches_conjecture: bool
    exhaustive: bool
    candidates: int


def optimal_map(n_in: int, m_out: int, r: float) -> OptimalMapResult:
    """Exact argmax of ``r'`` over all extremal maps at ``r``.

    Each sector adds its score ``s = J(J+1) - j(j+1) - l(l+1)`` times a
    factor that depends only on ``l`` and ``r``, negative for ``0 < r < 1``
    and never positive (module docstring), so the argmax takes the smallest
    ``s`` in every sector, for every ``r``.  ``s`` grows with ``J``, so
    ``J = |j - l|``, where ``s = -2 min(j, l) (max(j, l) + 1)``: for
    ``l > 0`` strictly falling in ``j``, so the unique minimum is at
    ``j = M/2``, ``J = |M/2 - l|`` (``s = -l(M+2)`` for ``l <= M/2``).
    At ``l = 0`` every choice scores 0, and the tie goes to the
    half-output-spin choice ``j = J = M/2``.  The map is therefore
    :func:`superbroadcast.channels.conjectured_optimal_map`, and its report
    comes from :func:`scaling_profile`, so it answers past ``N = 1034``.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"Bloch length {r} outside [0, 1]")
    profile = scaling_profile(n_in, m_out)
    return OptimalMapResult(
        best_map=profile.emap,
        report=_report(profile, r),
        matches_conjecture=True,
        exhaustive=True,
        candidates=profile._candidates,
    )


def _most_depolarizing_map(n_in: int, m_out: int) -> ExtremalMap:
    """Extremal map with the smallest ``r'`` at every ``0 < r < 1``.

    The largest ``s`` in every sector: ``J = j + l``, where ``s = 2jl``,
    at ``j = M/2`` for ``l > 0``.  At ``l = 0`` every choice scores 0, and
    the tie goes to the smallest ``j``, with ``J = j``.
    """
    top = HalfInt(m_out)
    outs, coupled = [], []
    for l in spin_range(n_in):
        j = top if l.doubled else HalfInt(m_out % 2)
        outs.append(j)
        coupled.append(j + l)
    return ExtremalMap(n_in, m_out, tuple(outs), tuple(coupled))


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
# scaling profiles (the command line's r' and p columns)


# Largest N whose M >= N profiles still evaluate the per-sector BlochCurve.
# The figure2 digest in perfbench/golden.json pins that route's last digits
# for the N <= 100 it prints, and that digest is the only reason for the cut:
# the constant goes, with the log-factorial kernel, when the digest is
# re-taken (ROADMAP.md item 14).
_SECTOR_ROUTE_MAX_N = 100


@dataclass(frozen=True)
class ScalingProfile:
    """The ``p(r)`` curve of the optimal map for one ``(N, M)`` pair.

    ``exhaustive`` is always True: the map is the exact argmax of
    :func:`optimal_map`.

    Two routes evaluate ``r_prime`` and ``p_zero``, and ``p`` is their
    ratio on either, over one flat batch of its nonzero points.  For
    ``M >= N > 100`` every sector has ``s = -l(M+2)``, so
    ``r' = (M+2)/M * F_N(r)`` from :func:`_f_n_rows`, which validates the
    batch: O(sqrt N) work per point, O(N) memory, one pass each for the
    scale and the ratio, no BLAS call and no float multiplicity, so it
    answers at ``N = 10^5``; ``p(0)`` is :func:`half_spin_scaling_at_zero`
    rounded once, :meth:`BlochCurve.p_zero` bit for bit.  The other pairs
    evaluate the per-sector :attr:`curve` (its own ``p`` is the same ratio,
    bit for bit): those with ``N <= 100`` because the ``figure2`` digest
    pins that route's last digits, and those with ``M < N`` because their
    sectors above ``l = M/2`` score ``s = -M(l+1)``, so ``r'`` is no
    multiple of ``F_N`` (ROADMAP.md item 3).

    ``curve`` is the map's :class:`BlochCurve`, shared with
    :func:`single_copy_bloch` and built on first access, so the ``F_N``
    route builds none.  Its float multiplicities overflow past
    ``N = 1034``, where that access raises ``OverflowError``.
    """

    n_in: int
    m_out: int
    emap: ExtremalMap
    exhaustive: bool

    @cached_property
    def curve(self) -> BlochCurve:
        return _cached_curve(self.emap)

    @cached_property
    def _candidates(self) -> int:
        return extremal_count(self.n_in, self.m_out)

    @property
    def _on_curve(self) -> bool:
        return not self.m_out >= self.n_in > _SECTOR_ROUTE_MAX_N

    def r_prime(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        if self._on_curve:
            return self.curve.r_prime(r)
        rr = np.asarray(r, dtype=float)
        value = _f_n_rows(self.n_in, rr.ravel()) * ((self.m_out + 2) / self.m_out)
        return float(value[0]) if np.isscalar(r) else value.reshape(rr.shape)

    def p(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        return _scaling_factor(r, self.r_prime, self.p_zero)

    def p_zero(self) -> float:
        if self._on_curve:
            return self.curve.p_zero()
        return float(half_spin_scaling_at_zero(self.n_in, self.m_out))


@lru_cache(maxsize=64)
def scaling_profile(n_in: int, m_out: int) -> ScalingProfile:
    """Profile of the half-output-spin map, the optimum by :func:`optimal_map`."""
    return ScalingProfile(n_in, m_out, conjectured_optimal_map(n_in, m_out), True)
