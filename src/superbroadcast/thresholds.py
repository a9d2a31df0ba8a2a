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
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .analysis import ScalingProfile, half_spin_scaling_at_zero, scaling_profile

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


def _scan_values(profile: ScalingProfile) -> tuple[np.ndarray, np.ndarray]:
    """``p`` on the uniform grid ``k / GRID_STEPS``, n with the analytic
    limit at ``r = 0`` and the exact endpoint value at ``r = 1``."""
    rs = np.arange(GRID_STEPS + 1) / GRID_STEPS
    ps = np.empty_like(rs)
    ps[0] = profile.p_zero()
    ps[1:] = profile.p(rs[1:])
    return rs, ps


def _has_superbroadcasting(n_in: int, m_out: int) -> bool:
    """Whether the optimal map reaches ``p(r) > 1`` somewhere on ``[0, 1]``.

    The exact rational ``r -> 0`` limit of the half-output-spin map decides
    most cases by continuity (and it lower-bounds the optimal map); the
    grid scan settles the rest without assuming monotonicity in ``r``.
    """
    if half_spin_scaling_at_zero(n_in, m_out) > 1:
        return True
    profile = scaling_profile(n_in, m_out)
    if profile.p_zero() > 1.0:
        return True
    _, ps = _scan_values(profile)
    return bool(np.any(ps > 1.0))


def r_star(n_in: int, m_out: int, tol: float = 1e-6) -> ThresholdResult:
    """Largest input purity at which broadcasting still purifies each copy.

    Scans ``p(r) - 1`` on a grid of step ``1/512``, takes the sign-change
    bracket at the largest ``r`` (no single-crossing assumption), and
    bisects it down to ``tol``.  Returns an absent result when the scaling
    factor stays below 1 everywhere.
    """
    if not m_out > n_in >= 1:
        raise ValueError(f"need M > N >= 1, got N={n_in}, M={m_out}")
    if tol < 1e-10:
        raise ValueError(f"tolerance {tol} below the supported 1e-10")
    profile = scaling_profile(n_in, m_out)
    rs, ps = _scan_values(profile)
    above = ps >= 1.0
    bracket = None
    for k in range(GRID_STEPS - 1, -1, -1):
        if above[k] and not above[k + 1]:
            bracket = (rs[k], rs[k + 1])
            break
    if bracket is None or not np.any(ps > 1.0):
        return ThresholdResult(n_in, m_out, None, 0.0)
    lo, hi = bracket
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
    """
    if n_in < 1:
        raise ValueError(f"need N >= 1, got {n_in}")
    if cap <= n_in:
        raise ValueError(f"cap {cap} leaves no output count above N={n_in}")
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
            threshold = _threshold_or_raise(n, n + 1, tol)
        else:
            counts = m_star(n, cap=cap)
            if counts.capped:
                threshold = limiting_threshold(n, tol)
            else:
                threshold = _threshold_or_raise(n, counts.m_star, tol)
        gaps.append(1.0 - threshold)
    slope, intercept = np.polyfit(np.log(ns), np.log(gaps), 1)
    return PowerLawFit(slope=float(slope), prefactor=float(math.exp(intercept)))
