"""Covariant, permutation-invariant qubit broadcasting channels.

A channel taking ``n_in`` qubits to ``m_out`` qubits that commutes with
collective rotations and qubit permutations is fixed by a nonnegative weight
for every compatible triple ``(j, l, J)``: ``l`` an input-register spin,
``j`` an output-register spin, ``J`` a total spin in the coupling range of
``j`` and ``l``.  The extreme points of this convex set pick exactly one
``(j, J)`` pair per input spin ``l``, which is what :class:`ExtremalMap`
records; :func:`extremal_count` counts them in closed form, and only the
tests list them, as a brute-force cross-check.  Everything here is exact:
coefficients are rationals and trace preservation needs no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

from .su2core import HalfInt, SpinLike, _couples, _is_spin_of, multiplicity, spin_range

__all__ = [
    "ExtremalMap",
    "ChannelCoeffs",
    "TracePreservationReport",
    "extremal_count",
    "conjectured_optimal_map",
    "coefficients_for",
    "mix",
    "validate_trace_preserving",
]

Weight = Union[Fraction, float]


@dataclass(frozen=True)
class ExtremalMap:
    """One extreme point of the covariant broadcasting channels.

    For each input spin ``l`` (in the order of ``spin_range(n_in)``) the map
    stores the chosen output spin and the total spin the two are coupled to.

    Attributes:
        n_in: number of input qubits.
        m_out: number of output qubits.
        output_spin: per-``l`` output-register spin, in ``spin_range(m_out)``.
        coupled_spin: per-``l`` total spin, in the coupling range of the
            output spin and ``l``.
    """

    n_in: int
    m_out: int
    output_spin: tuple[HalfInt, ...]
    coupled_spin: tuple[HalfInt, ...]

    def __post_init__(self) -> None:
        ls = spin_range(self.n_in)
        if len(self.output_spin) != len(ls) or len(self.coupled_spin) != len(ls):
            raise ValueError(
                f"need one (output, coupled) spin pair per input spin; "
                f"expected {len(ls)} entries"
            )
        for l, j, J in zip(ls, self.output_spin, self.coupled_spin):
            if not isinstance(j, HalfInt) or not _is_spin_of(self.m_out, j.doubled):
                raise ValueError(f"output spin {j} invalid for {self.m_out} qubits")
            if not isinstance(J, HalfInt) or not _couples(j.doubled, l.doubled, J.doubled):
                raise ValueError(f"coupled spin {J} invalid for pair ({j}, {l})")

    def input_spins(self) -> list[HalfInt]:
        return spin_range(self.n_in)

    def sectors(self) -> Iterator[tuple[HalfInt, HalfInt, HalfInt]]:
        """Yield ``(l, output_spin, coupled_spin)`` per input spin."""
        yield from zip(self.input_spins(), self.output_spin, self.coupled_spin)

    def output_spin_for(self, l: SpinLike) -> HalfInt:
        return self.output_spin[self._index(l)]

    def coupled_spin_for(self, l: SpinLike) -> HalfInt:
        return self.coupled_spin[self._index(l)]

    def _index(self, l: SpinLike) -> int:
        want = HalfInt.of(l)
        for i, cand in enumerate(self.input_spins()):
            if cand == want:
                return i
        raise KeyError(f"{want} is not an input spin for {self.n_in} qubits")


@dataclass
class ChannelCoeffs:
    """Weights ``(j, l, J) -> s`` defining a covariant broadcasting channel.

    ``weights`` may hold exact :class:`Fraction` values (as produced by
    :func:`coefficients_for`) or floats (e.g. after mixing with a float
    weight).  Missing triples are implicitly zero.
    """

    n_in: int
    m_out: int
    weights: dict[tuple[HalfInt, HalfInt, HalfInt], Weight] = field(default_factory=dict)

    def weight(self, j: SpinLike, l: SpinLike, J: SpinLike) -> Weight:
        key = (HalfInt.of(j), HalfInt.of(l), HalfInt.of(J))
        return self.weights.get(key, Fraction(0))


@dataclass(frozen=True)
class TracePreservationReport:
    """Per-input-spin trace residuals plus any constraint violations."""

    residuals: tuple[tuple[HalfInt, float], ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def max_residual(self) -> float:
        return max((abs(r) for _, r in self.residuals), default=0.0)


def extremal_count(n_in: int, m_out: int) -> int:
    """Number of extremal maps, the product over ``l`` of the per-``l`` choices.

    Spin ``l`` couples to output spin ``j`` in ``2 min(j, l) + 1`` ways, so
    the count is ``prod_l sum_j (min(2j, 2l) + 1)``.  The inner sum is
    ``sum_{j <= l} (2j+1)`` plus ``(2l+1)`` times the number of ``j > l``;
    with the ``k`` output spins ``2j = p, p+2, ...`` up to ``2l`` (``p`` the
    parity of ``m_out``) the first part is ``k (p + k)``.

    The factors are multiplied in a balanced tree, so each big-integer
    product joins operands of similar length; one factor at a time would be
    quadratic in the length of the result.
    """
    parity = m_out % 2
    outs = (m_out - parity) // 2 + 1
    factors = []
    for l in spin_range(n_in):
        below = max(0, (min(l.doubled, m_out) - parity) // 2 + 1)
        factors.append(below * (parity + below) + (l.doubled + 1) * (outs - below))
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[2 * len(paired):]
    return factors[0]


def conjectured_optimal_map(n_in: int, m_out: int) -> ExtremalMap:
    """The half-output-spin rule: send every input sector to the top output
    spin ``m_out / 2`` coupled down to the smallest reachable total spin
    ``|l - m_out / 2|``.

    It is the exact argmax of ``r'`` over all extremal maps at every ``r``,
    the closed form :func:`superbroadcast.analysis.optimal_map` derives and
    returns.
    """
    top = HalfInt(m_out)
    outs = []
    coupled = []
    for l in spin_range(n_in):
        outs.append(top)
        coupled.append(abs(top - l))
    return ExtremalMap(n_in, m_out, tuple(outs), tuple(coupled))


def coefficients_for(emap: ExtremalMap) -> ChannelCoeffs:
    """Exact channel weights of an extremal map.

    The chosen triple for input spin ``l`` carries weight
    ``(2l+1) / ((2J+1) * d_j)`` with ``d_j`` the output-register multiplicity
    of spin ``j``; this is precisely the normalization that makes the channel
    trace preserving, which :func:`validate_trace_preserving` confirms
    exactly.
    """
    weights: dict[tuple[HalfInt, HalfInt, HalfInt], Weight] = {}
    for l, j, J in emap.sectors():
        d_j = multiplicity(emap.m_out, j)
        weights[(j, l, J)] = Fraction(l.dim, J.dim * d_j)
    return ChannelCoeffs(emap.n_in, emap.m_out, weights)


def mix(a: ChannelCoeffs, b: ChannelCoeffs, weight: Weight) -> ChannelCoeffs:
    """Convex combination ``weight * a + (1 - weight) * b``.

    Requires matching register sizes and ``0 <= weight <= 1``.  Fraction
    weights keep the result exact; float weights give floats.
    """
    if (a.n_in, a.m_out) != (b.n_in, b.m_out):
        raise ValueError(
            f"cannot mix channels of different shape: "
            f"{a.n_in}->{a.m_out} vs {b.n_in}->{b.m_out}"
        )
    if not 0 <= weight <= 1:
        raise ValueError(f"mixing weight {weight} outside [0, 1]")
    mixed: dict[tuple[HalfInt, HalfInt, HalfInt], Weight] = {}
    for key in set(a.weights) | set(b.weights):
        value = weight * a.weights.get(key, 0) + (1 - weight) * b.weights.get(key, 0)
        if value != 0:
            mixed[key] = value
    return ChannelCoeffs(a.n_in, a.m_out, mixed)


def validate_trace_preserving(coeffs: ChannelCoeffs) -> TracePreservationReport:
    """Check the per-``l`` trace condition, weight positivity and coupling.

    For every input spin ``l`` the weights must satisfy
    ``sum_{j,J} d_j * s(j,l,J) * (2J+1)/(2l+1) = 1``.  The report lists the
    residual of that sum for each ``l``; the violation list is empty exactly
    when all residuals are below ``1e-12``, no weight is negative and every
    weighted triple has spins of the registers and a ``J`` coupling them.
    Exact rational weights produce exact residuals.
    """
    sums: dict[HalfInt, Weight] = {l: Fraction(0) for l in spin_range(coeffs.n_in)}
    violations = []
    for (j, l, J), s in coeffs.weights.items():
        if s < 0:
            violations.append(f"negative weight {s} at (j={j}, l={l}, J={J})")
        if not _couples(j.doubled, l.doubled, J.doubled):
            violations.append(f"total spin J={J} cannot couple j={j} and l={l}")
        if l not in sums:
            violations.append(f"unknown input spin {l} for {coeffs.n_in} qubits")
            continue
        if not _is_spin_of(coeffs.m_out, j.doubled):
            violations.append(f"output spin {j} invalid for {coeffs.m_out} qubits")
            continue
        sums[l] += s * Fraction(multiplicity(coeffs.m_out, j) * J.dim, l.dim)
    residuals = []
    for l, total in sums.items():
        residual = total - 1
        residuals.append((l, float(residual)))
        if abs(residual) >= 1e-12:
            violations.append(f"trace condition off by {float(residual):.3e} at l={l}")
    return TracePreservationReport(tuple(residuals), tuple(violations))
