"""Superbroadcasting thresholds and their large-register asymptotics.

For ``M > N`` output copies the scaling factor ``p(r)`` of the optimal
broadcasting channel exceeds 1 only below some input purity ``r*(N, M)``
(when it exceeds 1 at all).  This module locates those thresholds by a grid
scan plus bisection, finds the largest output count ``M*(N)`` that still
admits superbroadcasting, and fits the power laws that ``1 - r*`` follows
for large ``N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .analysis import half_spin_scaling_at_zero, scaling_profile

__all__ = [
    "GRID_STEPS",
    "ThresholdResult",
    "MStarResult",
    "PowerLawFit",
    "r_star",
    "limiting_threshold",
    "m_star",
    "asymptotic_fit",
]

# Resolution of the initial sign-change scan over r in [0, 1].
GRID_STEPS = 512

_GRID = np.arange(GRID_STEPS + 1) / GRID_STEPS
_GRID.flags.writeable = False


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold purity for one ``(N, M)`` pair.

    ``r_star`` is ``None`` when ``p(r) < 1`` over the whole scan, i.e. the
    pair admits no superbroadcasting.  ``bracket_width`` is the width of the
    final bisection bracket around the reported threshold.
    """

    n_in: int
    m_out: int
    r_star: Optional[float]
    bracket_width: float

    @property
    def exists(self) -> bool:
        return self.r_star is not None


@dataclass(frozen=True)
class MStarResult:
    """Largest verified output count with superbroadcasting for one ``N``.

    ``m_star == n_in`` means no output count ``M > N`` works at all (the
    case for ``N <= 3``).  ``capped`` is True when presence was confirmed
    all the way to ``cap`` without ever being refuted, so the true value is
    at least ``cap``.
    """

    n_in: int
    m_star: int
    cap: int
    capped: bool

    @property
    def any_output_count(self) -> bool:
        return self.m_star > self.n_in


class PowerLawFit(NamedTuple):
    """Least-squares power law ``1 - r* ~ prefactor * N**slope``."""

    slope: float
    prefactor: float


@lru_cache(maxsize=256)
def _grid_scan(n_in: int, m_out: int) -> np.ndarray:
    """``p`` of the optimal map on the ``GRID_STEPS + 1`` points of ``[0, 1]``.

    Computed once per ``(N, M)`` and shared by :func:`r_star` and the
    ``M*`` walk; read-only, because every caller receives the same array.
    """
    ps = scaling_profile(n_in, m_out).p(_GRID)  # the analytic limit at r = 0
    ps.flags.writeable = False
    return ps


def _has_superbroadcasting(n_in: int, m_out: int) -> bool:
    """Whether the optimal map reaches ``p(r) > 1`` somewhere on ``[0, 1]``.

    ``r = 0`` is decided by the exact rational ``r -> 0`` limit of the
    half-output-spin map (the optimal map), never by its rounded float; the
    grid scan over ``r > 0`` settles the rest without assuming monotonicity
    in ``r``.
    """
    if half_spin_scaling_at_zero(n_in, m_out) > 1:
        return True
    return bool(np.any(_grid_scan(n_in, m_out)[1:] > 1.0))


def r_star(n_in: int, m_out: int, tol: float = 1e-6) -> ThresholdResult:
    """Largest input purity at which broadcasting still purifies each copy.

    Scans ``p(r) - 1`` on a grid of step ``1/512``, takes the sign-change
    bracket at the largest ``r`` (no single-crossing assumption), and
    bisects it down to ``tol``.  Returns an absent result when the scaling
    factor stays below 1 everywhere.
    """
    if not m_out > n_in >= 1:
        raise ValueError(f"need M > N >= 1, got N={n_in}, M={m_out}")
    if not tol >= 1e-10:
        raise ValueError(f"tolerance {tol} below the supported 1e-10")
    ps = _grid_scan(n_in, m_out)
    above = ps >= 1.0
    crossings = np.flatnonzero(above[:-1] & ~above[1:])
    if crossings.size == 0 or not np.any(ps > 1.0):
        return ThresholdResult(n_in, m_out, None, 0.0)
    profile = scaling_profile(n_in, m_out)
    lo, hi = _GRID[crossings[-1]], _GRID[crossings[-1] + 1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if profile.p(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(n_in, m_out, 0.5 * (lo + hi), hi - lo)


def m_star(n_in: int, cap: int = 200) -> MStarResult:
    """Largest output count ``M <= cap`` that admits superbroadcasting.

    Walks ``M = N+1, N+2, ...`` and checks presence at every step (presence
    is not known to be monotone in ``M``, so no bisection over ``M``).
    Stops at the first refuted ``M``; if none is refuted up to ``cap`` the
    result is flagged as capped, meaning "at least ``cap``".

    ``p(0) = (M+2)/M * K_N`` with ``K_N`` rational and independent of ``M``
    (:func:`superbroadcast.analysis.half_spin_scaling_at_zero`).  When
    ``K_N >= 1`` presence holds at every ``M``, so the capped result is
    returned without walking.  That is every ``N >= 6``: ``K_N`` is 2/3 of
    the mean input spin, which grows with ``N``, and ``K_6 = 49/48``.
    """
    if n_in < 1:
        raise ValueError(f"need N >= 1, got {n_in}")
    if cap <= n_in:
        raise ValueError(f"cap {cap} leaves no output count above N={n_in}")
    limit = half_spin_scaling_at_zero(n_in, n_in + 1) * Fraction(n_in + 1, n_in + 3)
    if limit >= 1:
        return MStarResult(n_in, cap, cap, capped=True)
    last_good = n_in
    for m_out in range(n_in + 1, cap + 1):
        if not _has_superbroadcasting(n_in, m_out):
            return MStarResult(n_in, last_good, cap, capped=False)
        last_good = m_out
    return MStarResult(n_in, last_good, cap, capped=True)


def _threshold_or_raise(n_in: int, m_out: int, tol: float) -> float:
    result = r_star(n_in, m_out, tol=tol)
    if not result.exists:
        raise ValueError(f"no superbroadcasting threshold at N={n_in}, M={m_out}")
    return result.r_star


def limiting_threshold(n_in: int, tol: float = 1e-6) -> float:
    """``lim_{M -> oo} r*(N, M)`` by geometric extrapolation.

    Doubling ``M`` halves the remaining change of ``r*`` (the finite-``M``
    correction decays like ``1/M``), so after a ladder of doublings the
    outstanding tail equals the last observed increment.
    """
    ladder = [m for m in (256, 512, 1024, 2048) if m > n_in] or [2 * n_in, 4 * n_in]
    values = [_threshold_or_raise(n_in, m, tol) for m in ladder]
    if len(values) == 1:
        return values[0]
    return values[-1] + (values[-1] - values[-2])


def _maximal_threshold(n_in: int, tol: float, cap: int) -> float:
    """``r*(N, M*(N))``, or the ``M -> oo`` limit of ``r*`` when :func:`m_star`
    runs into ``cap`` (the true ``M*`` is then at least ``cap``)."""
    counts = m_star(n_in, cap=cap)
    if counts.capped:
        return limiting_threshold(n_in, tol)
    return _threshold_or_raise(n_in, counts.m_star, tol)


def asymptotic_fit(
    n_values: Iterable[int],
    curve: str = "adjacent",
    tol: float = 1e-6,
    cap: int = 200,
) -> PowerLawFit:
    """Power-law fit of ``1 - r*`` against ``N`` on a log-log scale.

    ``curve="adjacent"`` follows ``r*(N, N+1)``.  ``curve="maximal"``
    follows ``r*(N, M*(N))``: when :func:`m_star` finds a finite ``M*`` the
    threshold is taken there, and when it runs into the cap (the true
    ``M*`` is unbounded for these ``N``) the ``M -> oo`` limit of ``r*`` is
    used, obtained by geometric extrapolation over doublings of ``M``.
    Requires all ``N >= 10`` (the asymptotic regime); raises if any
    requested ``N`` has no threshold.
    """
    if curve not in ("adjacent", "maximal"):
        raise ValueError(f"unknown curve selector {curve!r}")
    ns = sorted(set(int(n) for n in n_values))
    if len(ns) < 2:
        raise ValueError(f"a power-law fit needs at least two distinct N, got {ns}")
    low = [n for n in ns if n < 10]
    if low:
        raise ValueError(f"fit range must stay in the asymptotic regime N >= 10, got {low}")
    gaps = []
    for n in ns:
        if curve == "adjacent":
            gaps.append(1.0 - _threshold_or_raise(n, n + 1, tol))
        else:
            gaps.append(1.0 - _maximal_threshold(n, tol, cap))
    slope, intercept = np.polyfit(np.log(ns), np.log(gaps), 1)
    return PowerLawFit(slope=float(slope), prefactor=float(math.exp(intercept)))
