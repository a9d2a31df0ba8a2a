"""Superbroadcasting thresholds and their large-register asymptotics.

For ``M > N`` output copies the scaling factor ``p(r)`` of the optimal
broadcasting channel exceeds 1 only below some input purity ``r*(N, M)``
(when it exceeds 1 at all).  A pair superbroadcasts iff ``(M+2) K_N > M``,
decided exactly (see :func:`r_star`), so the largest output count ``M*(N)``
has a closed form.  Thresholds come from bisection of the exact bracket
``[0, 1]``, and power laws fit ``1 - r*`` at large ``N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .analysis import _zero_slope, scaling_profile

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

# Cells of [0, 1] at the coarsest bracket r_star reports: its bracket is
# never wider than 1/GRID_STEPS, whatever the tolerance.
GRID_STEPS = 512


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold purity for one ``(N, M)`` pair.

    ``r_star`` is ``None`` when the pair admits no superbroadcasting,
    ``(M+2) K_N <= M`` (see :func:`r_star`).  ``bracket_width`` is the width of the
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
    """Largest output count with superbroadcasting for one ``N``.

    ``m_star == n_in`` means no output count ``M > N`` works at all (the
    case for ``N <= 3``).  ``capped`` is True when the exact ``M*`` is at
    least ``cap`` (unbounded for every ``N >= 6``); ``m_star`` then reads
    ``cap``.
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


def r_star(n_in: int, m_out: int, tol: float = 1e-6) -> ThresholdResult:
    """Largest input purity at which broadcasting still purifies each copy.

    ``p(r) = (M+2)/M * F_N(r)/r``, and where ``K_N = lim F_N(r)/r`` is below
    1 (``N <= 5``) it is also the maximum of ``F_N(r)/r``; so a pair
    superbroadcasts iff ``(M+2) K_N > M``, and an absent one returns before
    any curve is built.  A present pair has ``p(0) > 1`` and
    ``p(1) = N(M+2)/(M(N+2)) < 1``, so ``[0, 1]`` brackets the root of
    ``p = 1``; bisection tests ``r'(r) >= r`` and stops once the bracket is
    no wider than ``tol`` and ``1/GRID_STEPS``.  This relies on ``p`` falling
    monotonically in ``r``, so that ``p = 1`` has a single crossing;
    ``test_scaling_factor_never_increases_on_grid`` is the evidence, for
    every ``N`` the CLI and the benchmark reach (``p``'s shape in ``r`` is
    free of ``M``).
    """
    if not m_out > n_in >= 1:
        raise ValueError(f"need M > N >= 1, got N={n_in}, M={m_out}")
    if not tol >= 1e-10:
        raise ValueError(f"tolerance {tol} below the supported 1e-10")
    if not (m_out + 2) * _zero_slope(n_in) > m_out:
        return ThresholdResult(n_in, m_out, None, 0.0)
    profile = scaling_profile(n_in, m_out)
    lo, hi = 0.0, 1.0
    while hi - lo > min(tol, 1.0 / GRID_STEPS):
        mid = 0.5 * (lo + hi)
        if profile.r_prime(mid) >= mid:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(n_in, m_out, 0.5 * (lo + hi), hi - lo)


def _exact_m_star(n_in: int) -> Optional[int]:
    """``M*(N)``, the largest ``M`` with ``(M+2) K_N > M``; ``None`` when
    ``K_N >= 1`` (unbounded), else ``M < 2a/(b-a)`` for ``K_N = a/b``."""
    k = _zero_slope(n_in)
    if k >= 1:
        return None
    a, b = k.numerator, k.denominator
    return max(n_in, (2 * a - 1) // (b - a))


def m_star(n_in: int, cap: int = 200) -> MStarResult:
    """Largest output count ``M <= cap`` that admits superbroadcasting.

    Presence, ``(M+2) K_N > M`` (see :func:`r_star`), is monotone in ``M``,
    so ``M*`` has a closed form and no curve is evaluated: ``M*(4) = 7``,
    ``M*(5) = 21``, unbounded from ``N = 6`` (``K_6 = 49/48``).  When
    ``M* >= cap`` the result is capped, meaning "at least ``cap``".
    """
    if n_in < 1:
        raise ValueError(f"need N >= 1, got {n_in}")
    if cap <= n_in:
        raise ValueError(f"cap {cap} leaves no output count above N={n_in}")
    exact = _exact_m_star(n_in)
    capped = exact is None or exact >= cap
    return MStarResult(n_in, cap if capped else exact, cap, capped)


def _threshold_or_raise(n_in: int, m_out: int, tol: float) -> float:
    result = r_star(n_in, m_out, tol=tol)
    if not result.exists:
        raise ValueError(f"no superbroadcasting threshold at N={n_in}, M={m_out}")
    return result.r_star


def limiting_threshold(n_in: int, tol: float = 1e-6) -> float:
    """``lim_{M -> oo} r*(N, M)`` by geometric extrapolation.

    Doubling ``M`` halves the remaining change of ``r*`` (the finite-``M``
    correction decays like ``1/M``), so the tail after the doubling
    ``M = 1024 -> 2048`` (``2N -> 4N`` from ``N = 2048``) equals its
    increment; only those two rungs are computed, and for
    ``1024 <= N < 2048`` the one rung ``r*(N, 2048)`` is returned as is.
    Raises for ``K_N <= 1`` (``N <= 5``), where ``p(0) -> K_N`` leaves no
    limit.
    """
    k = _zero_slope(n_in)
    if k <= 1:
        raise ValueError(f"r* has no M -> oo limit at N={n_in}: p(0) -> K_N = {k} <= 1")
    ladder = [m for m in (1024, 2048) if m > n_in] or [2 * n_in, 4 * n_in]
    values = [_threshold_or_raise(n_in, m, tol) for m in ladder]
    if len(values) == 1:
        return values[0]
    return values[-1] + (values[-1] - values[-2])


def _maximal_threshold(n_in: int, tol: float) -> float:
    """``r*(N, M*(N))``, or the ``M -> oo`` limit of ``r*`` when ``M*`` is
    unbounded."""
    exact = _exact_m_star(n_in)
    if exact is None:
        return limiting_threshold(n_in, tol)
    return _threshold_or_raise(n_in, exact, tol)


def asymptotic_fit(
    n_values: Iterable[int], curve: str = "adjacent", tol: float = 1e-6
) -> PowerLawFit:
    """Power-law fit of ``1 - r*`` against ``N`` on a log-log scale.

    ``curve="adjacent"`` follows ``r*(N, N+1)``.  ``curve="maximal"``
    follows ``r*(N, M*(N))``; ``M*`` is unbounded at every ``N`` of the
    fit, so that is the ``M -> oo`` limit of ``r*``, obtained by geometric
    extrapolation over one doubling of ``M``.  Requires all ``N >= 10`` (the asymptotic regime);
    raises if any requested ``N`` has no threshold.
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
            gaps.append(1.0 - _maximal_threshold(n, tol))
    slope, intercept = np.polyfit(np.log(ns), np.log(gaps), 1)
    return PowerLawFit(slope=float(slope), prefactor=float(math.exp(intercept)))
