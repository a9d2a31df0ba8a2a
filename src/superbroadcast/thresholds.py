"""Superbroadcasting thresholds and their large-register asymptotics.

For ``M > N`` output copies the scaling factor ``p(r)`` of the optimal
broadcasting channel exceeds 1 only below some input purity ``r*(N, M)``
(when it exceeds 1 at all).  The optimal map has ``r' = (M+2)/M * F_N(r)``
with ``F_N`` free of ``M``, so a pair superbroadcasts iff ``(M+2) K_N > M``,
decided exactly for ``N <= 5`` and certain from ``N = 6`` (see
:func:`r_star`), and the largest output count ``M*(N)`` has a closed form.
Every threshold bisects the exact bracket ``[0, 1]`` on ``F_N`` itself, in
its O(N) binomial form, against the ratio ``M/(M+2)`` that carries ``M``;
no curve or map is built.  Power laws fit ``1 - r*`` at large ``N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .analysis import _f_n, _zero_slope

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

# K_N increases with N and K_6 = 49/48 > 1 (see analysis._zero_slope, whose
# closed form is one binomial coefficient), so K_N < 1, a bounded M*,
# happens only up to this N.
_LAST_BOUNDED_N = 5


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
    least ``m_star``: a bounded ``M*`` (``N <= 5``) at least ``cap`` reads
    ``cap``, and an unbounded one (every ``N >= 6``) reads
    ``max(cap, N+1)``.
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
    superbroadcasts iff ``(M+2) K_N > M``, i.e. ``M <= M*(N)``, and an absent
    one returns before ``F_N`` is evaluated.  From ``N = 6`` on ``K_N > 1``
    and every pair is present.  A present pair has ``p(0) > 1`` and
    ``p(1) = N(M+2)/(M(N+2)) < 1``, so ``[0, 1]`` brackets the root of
    ``F_N(r)/r = M/(M+2)``.  Bisection tests ``F_N(r) >= ratio * r`` with
    the correctly rounded ``ratio = M/(M+2)``, each point in O(sqrt N) from
    the binomial form of ``F_N`` (O(N) memory per ``N``), and stops once the
    bracket is no wider than ``tol`` and ``1/GRID_STEPS``: an absolute bracket,
    so at the default ``tol`` the gap ``1 - r*(N, N+1) ~ 2/N^2`` goes
    unresolved from ``N`` about 1400 on (ROADMAP.md item 1).  This relies on
    ``F_N(r)/r`` falling monotonically in ``r``, so that ``p = 1`` has a
    single crossing.  ``test_f_n_is_concave_exactly`` proves it for every
    ``N <= 202``, which covers the CLI's defaults and the benchmark: it takes
    ``F_N``'s Bernstein coefficients on ``r in [0, 1]`` in exact rationals
    and finds every second difference negative but the first, which is 0,
    so ``F_N`` is concave with ``F_N(0) = 0`` and ``F_N(r)/r`` is
    non-increasing.  ``test_scaling_factor_never_increases_on_grid`` checks
    the fall in floats on to ``N = 10^5``.
    """
    if not m_out > n_in >= 1:
        raise ValueError(f"need M > N >= 1, got N={n_in}, M={m_out}")
    if not tol >= 1e-10:
        raise ValueError(f"tolerance {tol} below the supported 1e-10")
    bound = _exact_m_star(n_in)
    if bound is not None and m_out > bound:
        return ThresholdResult(n_in, m_out, None, 0.0)
    ratio = m_out / (m_out + 2)
    lo, hi = 0.0, 1.0
    while hi - lo > min(tol, 1.0 / GRID_STEPS):
        mid = 0.5 * (lo + hi)
        if _f_n(n_in, mid) >= ratio * mid:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(n_in, m_out, 0.5 * (lo + hi), hi - lo)


def _exact_m_star(n_in: int) -> Optional[int]:
    """``M*(N)``, the largest ``M`` with ``(M+2) K_N > M``; ``None`` when
    ``K_N >= 1`` (unbounded, every ``N >= 6``), else ``M < 2a/(b-a)`` for
    ``K_N = a/b``."""
    if n_in > _LAST_BOUNDED_N:
        return None
    k = _zero_slope(n_in)
    a, b = k.numerator, k.denominator
    return max(n_in, (2 * a - 1) // (b - a))


def m_star(n_in: int, cap: int = 200) -> MStarResult:
    """Largest output count ``M <= cap`` that admits superbroadcasting.

    Presence, ``(M+2) K_N > M`` (see :func:`r_star`), is monotone in ``M``,
    so ``M*`` has a closed form and no curve is evaluated: ``M*(4) = 7``,
    ``M*(5) = 21``, unbounded from ``N = 6`` (``K_6 = 49/48``).  An
    unbounded ``M*`` is capped at ``max(cap, N+1)``, meaning "at least"
    that, so every ``N`` answers; a bounded one at least ``cap`` is capped
    at ``cap``, which must then exceed ``N``.
    """
    if n_in < 1:
        raise ValueError(f"need N >= 1, got {n_in}")
    exact = _exact_m_star(n_in)
    if exact is None:
        return MStarResult(n_in, max(cap, n_in + 1), cap, True)
    if cap <= n_in:
        raise ValueError(f"cap {cap} leaves no output count above N={n_in}")
    capped = exact >= cap
    return MStarResult(n_in, cap if capped else exact, cap, capped)


def limiting_threshold(n_in: int, tol: float = 1e-6) -> float:
    """``lim_{M -> oo} r*(N, M)`` by geometric extrapolation.

    Doubling ``M`` halves the remaining change of ``r*`` (the finite-``M``
    correction decays like ``1/M``), so the tail after one doubling
    ``M = low -> 2 low`` equals its increment: the limit is
    ``b + (b - a)`` for ``a = r*(N, low)``, ``b = r*(N, 2 low)``, with
    ``low = 1024`` below ``N = 1024`` and ``low = 2N`` from there.  Both
    rungs bisect ``F_N`` (see :func:`r_star`), so ``N = 10^5`` takes well
    under a second; the result inherits their ``tol``-limited absolute
    brackets (at the default ``tol``, ``1 - limiting_threshold(10**6)`` is
    28% low; ROADMAP.md item 1).  Raises for ``K_N <= 1`` (``N <= 5``),
    where ``p(0) -> K_N`` leaves no limit.
    """
    if n_in <= _LAST_BOUNDED_N:
        k = _zero_slope(n_in)
        raise ValueError(f"r* has no M -> oo limit at N={n_in}: p(0) -> K_N = {k} <= 1")
    low = 1024 if n_in < 1024 else 2 * n_in
    a, b = (r_star(n_in, m, tol).r_star for m in (low, 2 * low))
    return b + (b - a)


def _maximal_threshold(n_in: int, tol: float) -> float:
    """``r*(N, M*(N))``, or the ``M -> oo`` limit of ``r*`` when ``M*`` is
    unbounded."""
    exact = _exact_m_star(n_in)
    if exact is None:
        return limiting_threshold(n_in, tol)
    return r_star(n_in, exact, tol).r_star


def asymptotic_fit(
    n_values: Iterable[int], curve: str = "adjacent", tol: float = 1e-6
) -> PowerLawFit:
    """Power-law fit of ``1 - r*`` against ``N`` on a log-log scale.

    ``curve="adjacent"`` follows ``r*(N, N+1)``.  ``curve="maximal"``
    follows ``r*(N, M*(N))``; ``M*`` is unbounded at every ``N`` of the
    fit, so that is the ``M -> oo`` limit of ``r*``, obtained by geometric
    extrapolation over one doubling of ``M``.  Both bisect ``F_N`` (see
    :func:`r_star`).  Requires all ``N >= 10`` (the asymptotic
    regime), where every pair superbroadcasts, and every gap ``1 - r*``
    at least ``100 * tol``, so that the bisection resolves it to 1%.
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
            gaps.append(1.0 - r_star(n, n + 1, tol).r_star)
        else:
            gaps.append(1.0 - _maximal_threshold(n, tol))
        if gaps[-1] < 100 * tol:
            raise ValueError(f"gap {gaps[-1]:.3g} at N={n} is below 100 * tol, tol={tol:g}")
    slope, intercept = np.polyfit(np.log(ns), np.log(gaps), 1)
    return PowerLawFit(slope=float(slope), prefactor=float(math.exp(intercept)))
