"""Exact SU(2) spin bookkeeping for qubit registers.

Half-integer spin labels are stored as twice their value, so every quantity
that enters a factorial or a binomial is a plain Python integer and all
arithmetic stays exact.  Clebsch-Gordan coefficients are computed from the
Racah sum in rational arithmetic; their squares are returned as
:class:`fractions.Fraction` so identities such as completeness can be checked
without any floating-point tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

__all__ = [
    "HalfInt",
    "spin_range",
    "coupled_range",
    "projections",
    "multiplicity",
    "cg",
    "cg_square",
]

SpinLike = Union["HalfInt", int, float, Fraction]


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact half-integer (spin or spin projection), stored doubled.

    ``HalfInt(3)`` is the value 3/2.  Use :meth:`HalfInt.of` to build one
    from an ordinary number; arithmetic (+, -, unary -, abs) mixes freely
    with ints.
    """

    doubled: int

    @classmethod
    def of(cls, value: SpinLike) -> "HalfInt":
        """Coerce ``value`` to a :class:`HalfInt`, requiring exactness.

        Accepts HalfInt, int, Fraction, or float.  Raises :class:`ValueError`
        if ``2 * value`` is not an integer (e.g. ``0.3``).
        """
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        if isinstance(value, Fraction):
            two = 2 * value
            if two.denominator != 1:
                raise ValueError(f"{value} is not a half-integer")
            return cls(two.numerator)
        if isinstance(value, float):
            two = 2.0 * value
            if two != int(two):
                raise ValueError(f"{value} is not a half-integer")
            return cls(int(two))
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    # -- arithmetic ---------------------------------------------------------

    def _coerced(self, other: SpinLike) -> "HalfInt":
        return HalfInt.of(other)

    def __add__(self, other: SpinLike) -> "HalfInt":
        return HalfInt(self.doubled + self._coerced(other).doubled)

    __radd__ = __add__

    def __sub__(self, other: SpinLike) -> "HalfInt":
        return HalfInt(self.doubled - self._coerced(other).doubled)

    def __rsub__(self, other: SpinLike) -> "HalfInt":
        return HalfInt(self._coerced(other).doubled - self.doubled)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.doubled))

    # -- views --------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension 2j+1 of the spin-j irreducible representation."""
        return self.doubled + 1

    @property
    def is_whole(self) -> bool:
        """True for integer spin, False for half-odd-integer spin."""
        return self.doubled % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def __float__(self) -> float:
        return self.doubled / 2.0

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.doubled})"


def spin_range(n_qubits: int) -> list[HalfInt]:
    """Total spins occurring in a register of ``n_qubits`` qubits, ascending.

    The list runs from 0 or 1/2 (depending on parity) up to ``n_qubits / 2``.
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    return [HalfInt(d) for d in range(n_qubits % 2, n_qubits + 1, 2)]


def coupled_range(j1: SpinLike, j2: SpinLike) -> list[HalfInt]:
    """Total spins ``|j1 - j2| .. j1 + j2`` reachable by coupling, ascending."""
    a = HalfInt.of(j1)
    b = HalfInt.of(j2)
    if a.doubled < 0 or b.doubled < 0:
        raise ValueError("spins must be nonnegative")
    lo = abs(a.doubled - b.doubled)
    hi = a.doubled + b.doubled
    return [HalfInt(d) for d in range(lo, hi + 1, 2)]


def projections(j: SpinLike) -> list[HalfInt]:
    """Projections ``-j .. +j`` of a spin-j multiplet, ascending."""
    jj = HalfInt.of(j)
    if jj.doubled < 0:
        raise ValueError("spin must be nonnegative")
    return [HalfInt(d) for d in range(-jj.doubled, jj.doubled + 1, 2)]


def multiplicity(n_qubits: int, j: SpinLike) -> int:
    """Number of spin-``j`` irreducible blocks in ``n_qubits`` coupled qubits.

    Equals ``(2j+1) / (n/2 + j + 1) * C(n, n/2 + j)`` and is always an
    integer.  Raises :class:`ValueError` if ``j`` is negative, exceeds
    ``n_qubits / 2``, or has the wrong parity for the register size.
    """
    jj = HalfInt.of(j)
    d = jj.doubled
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if d < 0 or d > n_qubits:
        raise ValueError(f"spin {jj} out of range for {n_qubits} qubits")
    if (n_qubits + d) % 2 != 0:
        raise ValueError(f"spin {jj} has wrong parity for {n_qubits} qubits")
    k = (n_qubits + d) // 2
    numerator = (d + 1) * math.comb(n_qubits, k)
    denominator = k + 1
    count, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"multiplicity of spin {jj} in {n_qubits} qubits is not whole")
    return count


def _check_pair(dj: int, dm: int, label: str) -> None:
    if dj < 0:
        raise ValueError(f"{label}: spin must be nonnegative")
    if (dj + dm) % 2 != 0:
        raise ValueError(
            f"{label}: projection {HalfInt(dm)} incompatible with spin {HalfInt(dj)}"
        )


@lru_cache(maxsize=2**16)
def _cg_signed_square(
    dj1: int, dm1: int, dj2: int, dm2: int, dJ: int, dM: int
) -> tuple[int, Fraction]:
    """Sign and exact square of ⟨J M | j1 m1, j2 m2⟩ (all arguments doubled).

    Returns ``(0, 0)`` whenever a selection rule fails: ``m1+m2 != M``,
    ``J`` outside the coupling range of ``(j1, j2)``, or any projection
    exceeding its spin.  The sign follows the Condon-Shortley convention.
    """
    if dm1 + dm2 != dM:
        return 0, Fraction(0)
    if abs(dm1) > dj1 or abs(dm2) > dj2 or abs(dM) > dJ:
        return 0, Fraction(0)
    if dJ < abs(dj1 - dj2) or dJ > dj1 + dj2 or (dj1 + dj2 + dJ) % 2 != 0:
        return 0, Fraction(0)

    f = math.factorial
    # Triangle coefficient and the projection factorials; all arguments of
    # the doubled labels below are even by the checks above, so the halves
    # are exact integers.
    a = (dj1 + dj2 - dJ) // 2
    b = (dj1 - dj2 + dJ) // 2
    c = (-dj1 + dj2 + dJ) // 2
    top = (dj1 + dj2 + dJ) // 2 + 1
    square_prefactor = Fraction((dJ + 1) * f(a) * f(b) * f(c), f(top))
    square_prefactor *= (
        f((dj1 + dm1) // 2)
        * f((dj1 - dm1) // 2)
        * f((dj2 + dm2) // 2)
        * f((dj2 - dm2) // 2)
        * f((dJ + dM) // 2)
        * f((dJ - dM) // 2)
    )

    z_lo = max(0, (dj2 - dJ - dm1) // 2, (dj1 - dJ + dm2) // 2)
    z_hi = min(a, (dj1 - dm1) // 2, (dj2 + dm2) // 2)
    total = Fraction(0)
    for z in range(z_lo, z_hi + 1):
        term = Fraction(
            (-1) ** z,
            f(z)
            * f(a - z)
            * f((dj1 - dm1) // 2 - z)
            * f((dj2 + dm2) // 2 - z)
            * f((dJ - dj2 + dm1) // 2 + z)
            * f((dJ - dj1 - dm2) // 2 + z),
        )
        total += term
    if total == 0:
        return 0, Fraction(0)
    sign = 1 if total > 0 else -1
    return sign, square_prefactor * total * total


def _cg_doubled_args(
    j1: SpinLike, m1: SpinLike, j2: SpinLike, m2: SpinLike, J: SpinLike, M: SpinLike
) -> tuple[int, int, int, int, int, int]:
    a, am = HalfInt.of(j1), HalfInt.of(m1)
    b, bm = HalfInt.of(j2), HalfInt.of(m2)
    c, cm = HalfInt.of(J), HalfInt.of(M)
    _check_pair(a.doubled, am.doubled, "first spin")
    _check_pair(b.doubled, bm.doubled, "second spin")
    _check_pair(c.doubled, cm.doubled, "coupled spin")
    return a.doubled, am.doubled, b.doubled, bm.doubled, c.doubled, cm.doubled


def cg_square(
    j1: SpinLike, m1: SpinLike, j2: SpinLike, m2: SpinLike, J: SpinLike, M: SpinLike
) -> Fraction:
    """Exact square ⟨J M | j1 m1, j2 m2⟩² as a :class:`Fraction`.

    Selection-rule failures (mismatched total projection, ``J`` outside the
    coupling range, ``|M| > J``) give ``Fraction(0)``.  A projection whose
    parity is incompatible with its own spin raises :class:`ValueError`.
    """
    _, square = _cg_signed_square(*_cg_doubled_args(j1, m1, j2, m2, J, M))
    return square


def cg(
    j1: SpinLike, m1: SpinLike, j2: SpinLike, m2: SpinLike, J: SpinLike, M: SpinLike
) -> float:
    """Clebsch-Gordan coefficient ⟨J M | j1 m1, j2 m2⟩ (Condon-Shortley sign)."""
    sign, square = _cg_signed_square(*_cg_doubled_args(j1, m1, j2, m2, J, M))
    if sign == 0:
        return 0.0
    return sign * math.sqrt(float(square))
