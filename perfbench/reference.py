"""Independent reference values for every benchmark output check.

Nothing here imports ``superbroadcast``: the checks must not reuse the
evaluation code they judge.  Two results carry the whole load.

* The alpha identity.  Within one coupled sector the polarization moment is
  linear in the input projection,
  ``sum_m <J m+n | j m, l n>^2 m = alpha n`` with
  ``alpha = (2J+1) [J(J+1) - j(j+1) - l(l+1)] / (2 l (l+1) (2l+1))``,
  because ``Tr_j[(j_z (x) 1) P_J]`` is a vector operator on spin ``l``.
  The output Bloch length of an extremal map ``l -> (j_l, J_l)`` is then

      r' = (1/M) sum_{l>0} d_l s_l / (l (l+1)) sum_n n w(l, n),
      s_l = J_l(J_l+1) - j_l(j_l+1) - l(l+1),

  with ``d_l`` the input multiplicity and
  ``w(l, n) = ((1+r)/2)^(N/2-n) ((1-r)/2)^(N/2+n)``.  Weights are formed in
  the log domain with ``lgamma``.
* The exact zero-purity limit.  For the half-output-spin map
  ``p(0) = (M+2) K_N / M`` with the rational
  ``K_N = sum_l 2l (2l+1) d_l / (3 2^N)``, so the largest output count with
  ``p(0) > 1`` is ``ceil(2K/(1-K)) - 1`` when ``K < 1`` and unbounded when
  ``K >= 1``.

Spins are passed doubled (``dl = 2l``), as plain integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

# One sector choice of an extremal map: (2l, 2j, 2J).
Sector = tuple[int, int, int]


def spin_doubles(n_qubits: int) -> list[int]:
    """Doubled total spins of ``n_qubits`` qubits, ascending."""
    return list(range(n_qubits % 2, n_qubits + 1, 2))


def multiplicity(n_qubits: int, dl: int) -> int:
    """Exact number of spin-``dl/2`` blocks in ``n_qubits`` qubits."""
    k = (n_qubits + dl) // 2
    count, rest = divmod((dl + 1) * math.comb(n_qubits, k), k + 1)
    if rest:
        raise ValueError(f"spin {dl}/2 has no integer multiplicity in {n_qubits} qubits")
    return count


def log_multiplicity(n_qubits: int, dl: int) -> float:
    k = (n_qubits + dl) // 2
    return (
        math.log(dl + 1)
        - math.log(k + 1)
        + math.lgamma(n_qubits + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n_qubits - k + 1)
    )


def half_spin_sectors(n_in: int, m_out: int) -> list[Sector]:
    """The half-output-spin map: every ``l`` goes to ``j = M/2``, ``J = |M/2 - l|``."""
    return [(dl, m_out, abs(m_out - dl)) for dl in spin_doubles(n_in)]


def sector_choices(n_in: int, m_out: int) -> list[list[tuple[int, int]]]:
    """Per input spin, every legal ``(2j, 2J)`` pair, ascending."""
    return [
        [
            (dj, dJ)
            for dj in spin_doubles(m_out)
            for dJ in range(abs(dj - dl), dj + dl + 1, 2)
        ]
        for dl in spin_doubles(n_in)
    ]


def _score_ratio(dl: int, dj: int, dJ: int) -> float:
    """``s / (l (l+1))`` in doubled units."""
    return (dJ * (dJ + 2) - dj * (dj + 2) - dl * (dl + 2)) / (dl * (dl + 2))


def r_prime(n_in: int, m_out: int, sectors: Sequence[Sector], r) -> np.ndarray:
    """Output Bloch length of an extremal map at input Bloch length(s) ``r``.

    ``r`` may be a scalar or an array; the result has its shape.
    """
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0.0) or np.any(rr > 1.0):
        raise ValueError(f"Bloch length outside [0, 1]: {r}")
    flat = rr.reshape(-1, 1)
    with np.errstate(divide="ignore"):
        log_plus = np.log((1.0 + flat) / 2.0)
        log_minus = np.log((1.0 - flat) / 2.0)
    total = np.zeros(flat.shape[0])
    for dl, dj, dJ in sectors:
        if dl == 0:
            continue
        dn = np.arange(-dl, dl + 1, 2)
        exp_plus = (n_in - dn) // 2
        exp_minus = (n_in + dn) // 2
        # 0 * log(0) is 0 here: at r = 1 only the n = -N/2 weight survives.
        with np.errstate(invalid="ignore"):
            minus_part = np.where(exp_minus == 0, 0.0, exp_minus * log_minus)
        log_w = log_multiplicity(n_in, dl) + exp_plus * log_plus + minus_part
        scale = _score_ratio(dl, dj, dJ) / m_out
        total += scale * (np.exp(log_w) @ (0.5 * dn))
    return np.where(flat[:, 0] == 0.0, 0.0, total).reshape(rr.shape)


def p_zero(n_in: int, m_out: int, sectors: Sequence[Sector]) -> Fraction:
    """Exact ``lim_{r -> 0} r'/r`` of an extremal map."""
    total = Fraction(0)
    for dl, dj, dJ in sectors:
        score = Fraction(dJ * (dJ + 2) - dj * (dj + 2) - dl * (dl + 2), 4)
        total += multiplicity(n_in, dl) * score * (dl + 1)
    return -2 * total / (3 * m_out * 2**n_in)


def p(n_in: int, m_out: int, sectors: Sequence[Sector], r) -> np.ndarray:
    """Scaling factor ``r'/r``, with the exact limit at ``r = 0``."""
    rr = np.asarray(r, dtype=float)
    safe = np.where(rr == 0.0, 1.0, rr)
    ratio = r_prime(n_in, m_out, sectors, rr) / safe
    return np.where(rr == 0.0, float(p_zero(n_in, m_out, sectors)), ratio)


def k_constant(n_in: int) -> Fraction:
    """Exact ``K_N``, so that ``p(0) = (M+2) K_N / M`` for the half-spin map."""
    weighted = sum(dl * (dl + 1) * multiplicity(n_in, dl) for dl in spin_doubles(n_in))
    return Fraction(weighted, 3 * 2**n_in)


def m_star(n_in: int) -> Optional[int]:
    """Largest ``M`` with ``p(0) > 1`` (at least ``N``), or ``None`` if unbounded."""
    k = k_constant(n_in)
    if k >= 1:
        return None
    ratio = 2 * k / (1 - k)
    return max(n_in, math.ceil(ratio) - 1)


def r_star(n_in: int, m_out: int, tol: float = 1e-13) -> Optional[float]:
    """Root of ``p(r) = 1`` for the half-output-spin map by bisection.

    Relies on ``p`` decreasing in ``r`` (checked numerically for the sizes
    the benchmark uses, not proven); ``None`` when ``p(0) <= 1``.
    """
    sectors = half_spin_sectors(n_in, m_out)
    if p_zero(n_in, m_out, sectors) <= 1:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(p(n_in, m_out, sectors, mid)) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def spin_label(doubled: int) -> str:
    """CSV spelling of a spin: ``2`` for 2, ``5/2`` for 5/2."""
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"
