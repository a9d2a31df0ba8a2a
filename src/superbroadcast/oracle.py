"""Dense-matrix verification of every closed-form claim on small registers.

Nothing here reuses the sector-sum evaluation path: channels are realized as
explicit Choi operators on ``C^(2^M) (x) C^(2^N)``, built from an explicit
Schur isometry (computed by coupling one qubit at a time), applied to dense
input states, and reduced by partial traces.  Agreement of the resulting
marginals with :mod:`superbroadcast.analysis` is the package's primary
correctness evidence.

:func:`verify_closed_form` reads all of the dense Choi operator ``S``
twice, whatever the number of probes: once by one count of its nonzero
entries plus the gathers of its diagonal blocks of equal charge, which the
Hermiticity and positivity checks then read alone when the count certifies
that nothing lies outside them, and once by the covariance contraction.
The trace-preservation check and the probe marginals read diagonal slices.
Positivity eigensolves one block of each mirror pair of charge blocks when
the operator is invariant under the collective pi rotation, as every
covariant Choi operator is.  Caps are fixed: above ``QUBIT_CAP = 12``
qubits (8 for the permutation twirl) :class:`SizeCapError` is raised first.

Each register's Schur basis, each Clebsch-Gordan coupling table and each
register's popcount bands are built once per process and kept; their
arrays are read-only.  The bases of every size up to ``L`` qubits hold
about ``4/3 * 4^L`` floats (11 MB for ``L = 10``).

Conventions: computational ``|0>`` is spin up along z; register tensor
factors are ordered output (x) input in Choi operators; Schur blocks store
projections in descending order (highest weight first).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .channels import ChannelCoeffs, ExtremalMap, coefficients_for
from .su2core import HalfInt, SpinLike, _is_spin_of, cg, coupled_range, multiplicity, projections

__all__ = [
    "DenseOperator",
    "SizeCapError",
    "SchurIsometry",
    "CheckResult",
    "VerificationReport",
    "schur_isometry",
    "build_choi",
    "apply_channel",
    "partial_trace",
    "single_copy_marginal",
    "qubit_state",
    "product_input",
    "random_axis",
    "random_su2",
    "kron_power",
    "verify_closed_form",
    "symmetric_marginal_deviation",
    "permutation_twirl_deviation",
]

# Dense operators are plain complex/real square ndarrays of power-of-two size.
DenseOperator = np.ndarray

QUBIT_CAP = 12
_TWIRL_CAP = 8

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Single-qubit spin-flip conjugation i*sigma_y (real matrix).
_FLIP = np.array([[0.0, 1.0], [-1.0, 0.0]])


class SizeCapError(RuntimeError):
    """Raised when a dense computation would exceed its qubit cap."""


def kron_power(a: np.ndarray, n: int) -> np.ndarray:
    """``a (x) a (x) ... (x) a`` with ``n >= 1`` factors."""
    if n < 1:
        raise ValueError(f"need at least one tensor factor, got {n}")
    out = a
    for _ in range(n - 1):
        # the products and their order of np.kron, without its set-up
        out = (out[:, None, :, None] * a[None, :, None, :]).reshape(
            out.shape[0] * a.shape[0], out.shape[1] * a.shape[1]
        )
    return out


# ---------------------------------------------------------------------------
# Schur isometry


@dataclass
class SchurIsometry:
    """Orthonormal coupled basis of ``n_qubits`` qubits.

    ``blocks[j]`` lists, per coupling path, an array of shape
    ``(2j+1, 2^L)`` whose rows are the basis vectors ``|j, m, path>`` with
    ``m`` descending from ``+j`` to ``-j``.  A path is the sequence of
    intermediate total spins ``l_1 = 1/2, l_2, ..., l_L = j`` visited while
    adding qubits one at a time; the number of paths reaching ``j`` equals
    ``multiplicity(L, j)``.
    """

    n_qubits: int
    blocks: dict[HalfInt, list[tuple[tuple[HalfInt, ...], np.ndarray]]]

    def spins(self) -> list[HalfInt]:
        return sorted(self.blocks)

    def paths(self, j: SpinLike) -> list[tuple[HalfInt, ...]]:
        return [path for path, _ in self.blocks[HalfInt.of(j)]]

    def block(self, j: SpinLike, path_index: int = 0) -> np.ndarray:
        return self.blocks[HalfInt.of(j)][path_index][1]

    def column(self, j: SpinLike, m: SpinLike, path_index: int = 0) -> np.ndarray:
        """The vector ``|j, m, path>``; raises :class:`ValueError` unless
        ``m`` is one of ``-j, -j+1, ..., j``."""
        jj = HalfInt.of(j)
        mm = HalfInt.of(m)
        if abs(mm.doubled) > jj.doubled or (jj.doubled - mm.doubled) % 2:
            raise ValueError(f"projection {mm} is not a projection of spin {jj}")
        return self.block(jj, path_index)[(jj.doubled - mm.doubled) // 2]

    def matrix(self) -> np.ndarray:
        """Full ``2^L x 2^L`` unitary; column order: ``j`` ascending, then
        path, then ``m`` descending."""
        rows = []
        for j in self.spins():
            for _, block in self.blocks[j]:
                rows.append(block)
        return np.vstack(rows).T


def schur_isometry(n_qubits: int) -> SchurIsometry:
    """Coupled spin basis of ``n_qubits`` qubits, one qubit at a time.

    Each new qubit splits every spin-``j`` block into ``j + 1/2`` and
    ``j - 1/2`` children with Clebsch-Gordan amplitudes; the recursion
    realizes the multiplicity spaces as coupling paths.

    The blocks of each register size are built once per process, from
    those of one qubit fewer, and kept; every call returns a new
    :class:`SchurIsometry` (a new dict of new lists) over those arrays,
    which are read-only.

    Raises:
        SizeCapError: for ``n_qubits`` above ``QUBIT_CAP`` (12), where the
            dense basis would not fit comfortably in memory.
    """
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > QUBIT_CAP:
        raise SizeCapError(f"{n_qubits} qubits exceed the dense cap {QUBIT_CAP}")
    return SchurIsometry(n_qubits, {j: list(paths) for j, paths in _schur_blocks(n_qubits)})


_Paths = tuple[tuple[tuple[HalfInt, ...], np.ndarray], ...]


@lru_cache(maxsize=None)
def _schur_blocks(n_qubits: int) -> tuple[tuple[HalfInt, _Paths], ...]:
    """The ``(j, paths)`` of :func:`schur_isometry`, spins descending, arrays
    read-only; the new qubit is the least significant tensor factor."""
    half = HalfInt(1)
    if n_qubits == 1:
        return ((half, (((half,), _read_only(np.eye(2))),)),)
    grown: dict[HalfInt, list[tuple[tuple[HalfInt, ...], np.ndarray]]] = {}
    for j, paths in _schur_blocks(n_qubits - 1):
        for child in (j + half, j - half):
            if child.doubled < 0:
                continue
            # amplitudes[row, qubit, old row]: <child m_new | j m_old, 1/2 +-1/2>,
            # child rows descending, the new qubit up (0) or down (1); a C-ordered
            # copy, so the product below takes the same route as on a fresh array
            amplitudes = np.ascontiguousarray(
                _coupling_amplitudes(j, half, child).transpose(2, 1, 0)[::-1]
            )
            for path, block in paths:
                rows = (amplitudes @ block).transpose(0, 2, 1).reshape(child.dim, -1)
                grown.setdefault(child, []).append((path + (child,), _read_only(rows)))
    return tuple((j, tuple(paths)) for j, paths in grown.items())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------------
# Choi operators


@lru_cache(maxsize=None)
def _coupling_amplitudes(j: HalfInt, l: HalfInt, J: HalfInt) -> np.ndarray:
    """``<J M_k | j m, l M_k-m>`` at ``[j row, l row, k]``, read-only.

    Rows run over descending projections of ``j`` and ``l``, ``k`` over the
    ascending projections of ``J``; each table is built once per process.
    """
    amplitudes = np.zeros((j.dim, l.dim, J.dim))
    for k, m_total in enumerate(projections(J)):
        for m in projections(j):
            n = m_total - m
            if abs(n.doubled) > l.doubled:
                continue
            amplitudes[(j.doubled - m.doubled) // 2, (l.doubled - n.doubled) // 2, k] = cg(
                j, m, l, n, J, m_total
            )
    return _read_only(amplitudes)


def _coupled_columns(
    j: HalfInt,
    l: HalfInt,
    J: HalfInt,
    out_blocks: np.ndarray,
    in_blocks: np.ndarray,
) -> np.ndarray:
    """Total-spin-``J`` vectors of every (output path, input path) pair.

    ``out_blocks`` and ``in_blocks`` stack Schur blocks of spins ``j`` and
    ``l`` along their first axis, shapes ``(P, 2j+1, 2^M)`` and
    ``(Q, 2l+1, 2^N)``.  Column ``(p, q, k)`` of the result is
    ``sum_m <J M_k | j m, l M_k-m> |j m, p> (x) |l M_k-m, q>``, so the
    result has shape ``(2^M 2^N, P Q (2J+1))`` with orthonormal columns.
    """
    if J not in coupled_range(j, l):
        raise ValueError(f"total spin {J} outside the coupling range of ({j}, {l})")
    if out_blocks.shape[1] != j.dim or in_blocks.shape[1] != l.dim:
        raise ValueError("Schur block shapes do not match the stated spins")
    columns = np.einsum(
        "mnk,pma,qnb->abpqk", _coupling_amplitudes(j, l, J), out_blocks, in_blocks, optimize=True
    )
    return columns.reshape(out_blocks.shape[2] * in_blocks.shape[2], -1)


def build_choi(coeffs: ChannelCoeffs) -> DenseOperator:
    """Dense Choi operator of a coefficient channel.

    Sums ``s(j,l,J)`` times the total-spin-``J`` projector over every pair
    of coupling paths (the identity on both multiplicity spaces).  The
    result is PSD with ``Tr_out = I`` for trace-preserving coefficients.

    The coupled vectors of all triples and path pairs are orthonormal, so
    stacked as the columns of ``V`` they number at most ``2^(N+M)``, and the
    whole sum is the single product ``(V w) V^T``.

    Raises:
        SizeCapError: when ``n_in + m_out`` exceeds ``QUBIT_CAP`` (12).
    """
    n_in, m_out = coeffs.n_in, coeffs.m_out
    if n_in + m_out > QUBIT_CAP:
        raise SizeCapError(f"{m_out}+{n_in} qubits exceed the dense cap {QUBIT_CAP}")
    iso_out = schur_isometry(m_out)
    iso_in = schur_isometry(n_in)
    columns = [np.zeros((2 ** (m_out + n_in), 0))]
    scales = [np.zeros(0)]
    for (j, l, J), s in coeffs.weights.items():
        weight = float(s)
        if weight == 0.0:
            continue
        if not (_is_spin_of(m_out, j.doubled) and _is_spin_of(n_in, l.doubled)):
            raise ValueError(f"no Schur block for (j={j}, l={l}, J={J}) in {m_out}+{n_in} qubits")
        coupled = _coupled_columns(
            j,
            l,
            J,
            np.stack([block for _, block in iso_out.blocks[j]]),
            np.stack([block for _, block in iso_in.blocks[l]]),
        )
        columns.append(coupled)
        scales.append(np.full(coupled.shape[1], weight))
    v = np.hstack(columns)
    return (v * np.concatenate(scales)) @ v.T


def apply_channel(choi: DenseOperator, rho_in: DenseOperator) -> DenseOperator:
    """Output state ``Tr_in[(I (x) rho~) S]`` with ``rho~ = C rho^T C``.

    ``C = (i sigma_y)^{(x) N}`` is the collective spin flip; the contraction
    reproduces ``rho`` itself when ``S`` is the Choi operator of the
    identity channel.  It is :func:`_contract` with one input, so its
    temporaries are the accumulator, ``2 / 4^N`` of the bytes of ``S``, and
    at most 1 MiB more.
    """
    dim_in = rho_in.shape[0]
    dim_total = choi.shape[0]
    if rho_in.ndim != 2 or rho_in.shape[0] != rho_in.shape[1]:
        raise ValueError("input state must be a square matrix")
    if choi.ndim != 2 or choi.shape[0] != choi.shape[1] or dim_total % dim_in:
        raise ValueError(
            f"Choi dimension {choi.shape} incompatible with input dimension {dim_in}"
        )
    n_in = dim_in.bit_length() - 1
    if 2**n_in != dim_in:
        raise ValueError(f"input dimension {dim_in} is not a power of two")
    dim_out = dim_total // dim_in
    choi4 = choi.reshape(dim_out, dim_in, dim_out, dim_in)
    return _contract(choi4, _spin_flipped(rho_in, n_in))


def _spin_flipped(rho_in: np.ndarray, n_in: int) -> np.ndarray:
    """``rho~ = C rho^T C^T`` with ``C = (i sigma_y)^{(x) N}``, for one state
    or a stack of states along the first axis."""
    flip = kron_power(_FLIP, n_in)
    return flip @ rho_in.swapaxes(-1, -2) @ flip.T


def _contract(choi4: np.ndarray, rho_tilde: np.ndarray) -> np.ndarray:
    """``out[..., x, y] = sum_{a,b} S[x b, y a] rho~[..., a, b]`` for ``S``
    shaped ``(out, in, out, in)`` and one input ``(in, in)`` or a stack
    ``(k, in, in)``.

    ``parts[b]`` holds the real and imaginary parts of every input as the
    ``2k`` columns of one ``(in, 2k)`` matrix, so ``S`` is read once for the
    whole stack and a real ``S`` is never cast to complex.  The sum over
    ``b`` of ``S[x, b] @ parts[b]`` runs over chunks of rows ``x`` through a
    temporary of at most 1 MiB.  For a real ``S`` the accumulator, real and
    imaginary columns interleaved, is returned viewed as complex.
    """
    stack = rho_tilde.reshape(-1, *rho_tilde.shape[-2:])
    dim_in = stack.shape[-1]
    parts = np.stack([stack.real, stack.imag], axis=-1)
    parts = parts.transpose(2, 1, 0, 3).reshape(dim_in, dim_in, -1)
    dim_out = choi4.shape[0]
    acc = np.empty((dim_out, choi4.shape[2], parts.shape[-1]), np.result_type(choi4, parts))
    step = max(1, 2**20 // acc[0].nbytes)
    term = np.empty_like(acc[:step])
    for start in range(0, dim_out, step):
        rows, chunk = choi4[start : start + step], acc[start : start + step]
        np.matmul(rows[:, 0], parts[0], out=chunk)
        for b in range(1, dim_in):
            chunk += np.matmul(rows[:, b], parts[b], out=term[: len(chunk)])
    if np.iscomplexobj(acc):
        out = acc[..., 0::2] + 1j * acc[..., 1::2]
    else:
        out = acc.view(complex)
    out = np.moveaxis(out, -1, 0)
    return out if rho_tilde.ndim == 3 else out[0]


def _reduced_choi(choi: DenseOperator, n_in: int, m_out: int, which: int) -> np.ndarray:
    """Choi operator of the channel followed by the trace over every output
    qubit but ``which``, shaped ``(2, 2^N, 2, 2^N)``.

    ``T[s, b, t, a] = sum_{u,v} S[(u s v) b, (u t v) a]``, where ``u`` and
    ``v`` run over the output qubits before and after ``which``; the
    summed entries form a diagonal view of ``S``, so only ``2 2^M 4^N`` of
    its ``4^(M+N)`` entries are read.  ``_contract(T, rho~)`` is then the
    single-copy marginal of output ``which``.
    """
    before, after = 2**which, 2 ** (m_out - which - 1)
    eight = choi.reshape(before, 2, after, 2**n_in, before, 2, after, 2**n_in)
    return np.einsum("usvbutva->sbta", eight)


def _rotate(u: np.ndarray, rho: DenseOperator) -> DenseOperator:
    """``U rho U^H`` for ``U = u^{(x) M} = A (x) B``, ``A = u^{(x) ceil(M/2)}``,
    ``B = u^{(x) floor(M/2)}``: on each side one product with ``A`` and one
    with ``B`` (columns take ``B^H`` and ``conj(A)``), never transposing
    the state."""
    dim = rho.shape[0]
    m_out = dim.bit_length() - 1
    big = kron_power(u, m_out - m_out // 2)
    small = kron_power(u, m_out // 2) if m_out > 1 else np.ones((1, 1))
    a, b = big.shape[0], small.shape[0]
    # each step replaces the last, so at most two states are alive at once
    out = np.matmul(small, (big @ rho.reshape(a, -1)).reshape(a, b, dim))
    out = out.reshape(dim * a, b) @ small.conj().T
    return np.matmul(big.conj(), out.reshape(dim, a, b)).reshape(dim, dim)


# ---------------------------------------------------------------------------
# states and reductions


def partial_trace(rho: DenseOperator, keep: Sequence[int], n_qubits: int) -> DenseOperator:
    """Reduced state on the ``keep`` qubits (ascending order preserved)."""
    keep = sorted(keep)
    if rho.shape != (2**n_qubits, 2**n_qubits):
        raise ValueError(f"state shape {rho.shape} does not match {n_qubits} qubits")
    if any(q < 0 or q >= n_qubits for q in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"invalid qubit selection {keep} for {n_qubits} qubits")
    tensor = rho.reshape((2,) * (2 * n_qubits))
    row_labels = list(range(n_qubits))
    col_labels = [
        n_qubits + keep.index(q) if q in keep else q for q in range(n_qubits)
    ]
    out_labels = [q for q in keep] + [n_qubits + i for i in range(len(keep))]
    return np.einsum(tensor, row_labels + col_labels, out_labels).reshape(
        2 ** len(keep), 2 ** len(keep)
    )


def single_copy_marginal(rho_out: DenseOperator, which: int) -> DenseOperator:
    """Single-qubit reduced state of output copy ``which``."""
    dim = rho_out.shape[0]
    m_out = dim.bit_length() - 1
    if 2**m_out != dim:
        raise ValueError(f"output dimension {dim} is not a power of two")
    if not 0 <= which < m_out:
        raise ValueError(f"qubit index {which} out of range for {m_out} outputs")
    return partial_trace(rho_out, [which], m_out)


def qubit_state(r: float, axis: Sequence[float]) -> DenseOperator:
    """Single-qubit state with Bloch vector ``r * axis`` (unit axis)."""
    ax = np.asarray(axis, dtype=float)
    return 0.5 * (
        np.eye(2, dtype=complex) + r * (ax[0] * PAULI_X + ax[1] * PAULI_Y + ax[2] * PAULI_Z)
    )


def product_input(n_in: int, r: float, axis: Sequence[float]) -> DenseOperator:
    """``n_in`` identical copies of :func:`qubit_state`."""
    return kron_power(qubit_state(r, axis), n_in)


def random_axis(rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=3)
    return vec / np.linalg.norm(vec)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element via a unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return np.array(
        [
            [q[0] + 1j * q[3], q[2] + 1j * q[1]],
            [-q[2] + 1j * q[1], q[0] - 1j * q[3]],
        ]
    )


# ---------------------------------------------------------------------------
# verification report


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    n_in: int
    m_out: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def deviation(self, name: str) -> float:
        for check in self.checks:
            if check.name == name:
                return check.deviation
        raise KeyError(name)


def _charge_blocks(choi: DenseOperator) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """The ``L+1`` diagonal blocks of equal charge, and the rest of ``S``.

    A covariant Choi operator conserves total ``J_z``, which on joint basis
    states is fixed by the popcount of the index, so it is block diagonal
    in the blocks of equal popcount.  Each block is gathered once.  The rest
    is ``None`` when ``S`` has no nonzero entry outside the blocks, which
    one exact count decides: its nonzero entries number exactly those of
    the blocks.  Otherwise it is ``S`` with the blocks zeroed.
    """
    bands = _charge_bands(choi.shape[0].bit_length() - 1)
    blocks = [choi[band] for band in bands]
    if np.count_nonzero(choi) == sum(np.count_nonzero(block) for block in blocks):
        return blocks, None
    rest = choi.copy()
    for band in bands:
        rest[band] = 0.0
    return blocks, rest


@lru_cache(maxsize=None)
def _charge_bands(n_qubits: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``np.ix_`` of the indices of each popcount ``0..L``, read-only."""
    index = np.arange(2**n_qubits)
    charge = np.zeros(2**n_qubits, dtype=int)
    for bit in range(n_qubits):
        charge += (index >> bit) & 1
    bands = [_read_only(np.flatnonzero(charge == value)) for value in range(n_qubits + 1)]
    return tuple(np.ix_(band, band) for band in bands)


def _skew_deviation(blocks: list[np.ndarray], rest: Optional[np.ndarray]) -> float:
    """``max |S - S^H|`` from :func:`_charge_blocks`: an entry and its
    transpose share a block or both lie in the rest, so this is exact."""
    parts = blocks if rest is None else [*blocks, rest]
    return float(np.max([np.max(np.abs(part - part.conj().T)) for part in parts]))


def _positivity_deviation(blocks: list[np.ndarray], rest: Optional[np.ndarray]) -> float:
    """Upper bound on ``max(0, -lambda_min)`` from :func:`_charge_blocks`.

    By Weyl's inequality the smallest eigenvalue is at least the smallest
    block eigenvalue minus the spectral norm of the rest, and that norm is
    at most its largest absolute row or column sum.  The bound is exact
    when the rest vanishes.

    Blocks are eigensolved in mirror pairs ``(k, L-k)``.  Complementing
    every bit, the collective pi rotation ``X^{(x) L}``, maps block ``k``
    onto block ``L-k`` reversed and leaves a covariant Choi operator
    unchanged.  When block ``L-k`` is exactly block ``k`` reversed, the two
    are similar, so the second eigensolve is skipped; any other operator,
    faulted or not covariant, gets both.
    """
    n_qubits = len(blocks) - 1
    lowest = np.inf
    for value in range(n_qubits // 2 + 1):
        near, far = blocks[value], blocks[n_qubits - value]
        lowest = min(lowest, float(np.linalg.eigvalsh(near)[0]))
        if far is not near and not np.array_equal(far, near[::-1, ::-1]):
            lowest = min(lowest, float(np.linalg.eigvalsh(far)[0]))
    off_block = 0.0
    if rest is not None:
        magnitude = np.abs(rest)
        off_block = float(max(magnitude.sum(axis=0).max(), magnitude.sum(axis=1).max()))
    return max(0.0, off_block - lowest)


def verify_closed_form(
    n_in: int,
    m_out: int,
    emap: ExtremalMap,
    seed: int = 7,
    coefficients: Optional[ChannelCoeffs] = None,
) -> VerificationReport:
    """Check one extremal map's closed form against the dense channel.

    Builds the Choi operator, validates Hermiticity, trace preservation and
    positivity, then for twelve probes, ``r`` in ``(0, 0.3, 0.7, 1)`` along
    z and two random axes drawn from ``seed``, compares the dense single-copy
    marginal against the sector-sum ``r'``: parallel component, vanishing
    transverse component, unit trace, and equality of marginals across
    output positions.  Finally conjugates by seeded Haar-random collective
    rotations to confirm covariance.

    The Choi operator ``S`` is read whole twice: :func:`_charge_blocks`
    gathers its charge blocks once for the Hermiticity and positivity
    checks, which read nothing else when its nonzero count certifies a zero
    rest, and the covariance check contracts its reference and both rotated
    inputs together, after the blocks are released.  The probe marginals
    at output positions ``0``, ``M//2`` and ``M-1`` come from one reduced
    Choi operator per position (the trace over the other outputs done
    first), each contracted with the stack of all probe inputs; their
    traces and Bloch components are ``Re tr(rho sigma)`` in one ``einsum``.
    The output side of the covariance check is rotated by the two halves of
    the output register in turn, after ``S`` is released.

    ``coefficients`` overrides the map's own weights.  ``cli.verify_lines``
    passes the map's own coefficients, which it has already built for its
    coefficient check; the tests and the ``dense-oracle`` benchmark also pass
    corrupted sets, whose deviations the trace-preservation and closed-form
    checks must report.
    """
    from .analysis import single_copy_bloch  # local import: analysis is the peer under test

    if (emap.n_in, emap.m_out) != (n_in, m_out):
        raise ValueError(
            f"map shape {emap.n_in}->{emap.m_out} does not match requested {n_in}->{m_out}"
        )
    rng = np.random.default_rng(seed)
    r_values = (0.0, 0.3, 0.7, 1.0)
    axes = [np.array([0.0, 0.0, 1.0]), random_axis(rng), random_axis(rng)]
    if coefficients is None:
        coefficients = coefficients_for(emap)
    choi = build_choi(coefficients)

    blocks, rest = _charge_blocks(choi)
    hermitian_dev = _skew_deviation(blocks, rest)
    psd_dev = _positivity_deviation(blocks, rest)
    del blocks, rest
    choi4 = choi.reshape(2**m_out, 2**n_in, 2**m_out, 2**n_in)
    trace_out = np.einsum("aiaj->ij", choi4)
    tp_dev = float(np.max(np.abs(trace_out - np.eye(2**n_in))))

    # Probe marginals: each position's reduced Choi operator is formed once
    # and contracted with the stack of every probe input.  The spin flip is
    # a signed permutation, so flipping one copy before the tensor power
    # gives the same bytes as flipping the product.
    positions = sorted({0, m_out // 2, m_out - 1})
    probes = [(r, axis) for r in r_values for axis in axes]
    flipped = np.stack(
        [kron_power(_spin_flipped(qubit_state(r, axis), 1), n_in) for r, axis in probes]
    )
    marginals = np.stack(
        [_contract(_reduced_choi(choi, n_in, m_out, which), flipped) for which in positions]
    )
    # Re tr(rho sigma) for sigma = I, X, Y, Z: the trace, then the Bloch vector
    paulis = np.stack([np.eye(2), PAULI_X, PAULI_Y, PAULI_Z])
    moments = np.einsum("pqij,sji->pqs", marginals, paulis).real
    trace_dev = float(np.max(np.abs(moments[..., 0] - 1.0)))
    uniform_dev = float(np.max(np.abs(marginals[:, None] - marginals[None])))
    expected = {r: single_copy_bloch(emap, r).r_prime for r in r_values}
    bloch = moments[0, :, 1:]
    unit = np.array([axis for _, axis in probes])
    along = np.einsum("qk,qk->q", bloch, unit)
    parallel_dev = float(np.max(np.abs(along - [expected[r] for r, _ in probes])))
    transverse_dev = float(
        np.max(np.linalg.norm(bloch - along[:, None] * unit, axis=1))
    )

    # Covariance: the reference and both rotated inputs in one read of S.
    base = product_input(n_in, 0.6, [0.0, 0.0, 1.0])
    rotations = [random_su2(rng) for _ in range(2)]
    inputs = [base]
    for u in rotations:
        u_in = kron_power(u, n_in)
        inputs.append(u_in @ base @ u_in.conj().T)
    outputs = _contract(choi4, _spin_flipped(np.stack(inputs), n_in))
    del choi, choi4  # the rotations below then share memory with the outputs only
    covariance_dev = max(
        float(np.max(np.abs(rotated_first - _rotate(u, outputs[0]))))
        for u, rotated_first in zip(rotations, outputs[1:])
    )

    checks = (
        CheckResult("choi_hermitian", hermitian_dev, 1e-12),
        CheckResult("choi_trace_preserving", tp_dev, 1e-10),
        CheckResult("choi_positive", psd_dev, 1e-10),
        CheckResult("closed_form_parallel", parallel_dev, 1e-9),
        CheckResult("output_transverse", transverse_dev, 1e-9),
        CheckResult("output_unit_trace", trace_dev, 1e-12),
        CheckResult("marginals_uniform", uniform_dev, 1e-12),
        CheckResult("covariance", covariance_dev, 1e-9),
    )
    return VerificationReport(n_in, m_out, checks)


# ---------------------------------------------------------------------------
# standalone identity checks


def symmetric_marginal_deviation() -> float:
    """Max deviation of one-qubit marginals of top-spin Schur columns.

    For the spin-``j`` column ``|j m>`` of ``2j`` qubits the single-qubit
    reduced state must equal ``I/2 + (m/2j) sigma_z``; returns the largest
    absolute entry difference over ``j <= 3`` (1 to 6 qubits) and all ``m``.
    """
    worst = 0.0
    for dj in range(1, 7):
        j = HalfInt(dj)
        iso = schur_isometry(dj)
        for m in projections(j):
            column = iso.column(j, m)
            marginal = partial_trace(np.outer(column, column), [dj - 1], dj)
            expected = 0.5 * np.eye(2) + (m.doubled / (2.0 * dj)) * PAULI_Z
            worst = max(worst, float(np.max(np.abs(marginal - expected))))
    return worst


def permutation_twirl_deviation(n_qubits: int) -> float:
    """Max deviation of the permutation twirl from the multiplicity average.

    Averaging ``|j m path_1><j m path_1|`` over all qubit permutations must
    equal ``1/d_j`` times the sum over all coupling paths, for every sector
    spin ``j`` and projection ``m``; the average runs over all ``n!`` orders.
    """
    if n_qubits > _TWIRL_CAP:
        raise SizeCapError(f"{n_qubits} qubits exceed the permutation cap {_TWIRL_CAP}")
    iso = schur_isometry(n_qubits)
    worst = 0.0
    perms = list(itertools.permutations(range(n_qubits)))
    for j in iso.spins():
        d_j = multiplicity(n_qubits, j)
        for m in projections(j):
            first = iso.column(j, m, 0)
            twirl = np.zeros((2**n_qubits, 2**n_qubits))
            for perm in perms:
                permuted = first.reshape((2,) * n_qubits).transpose(perm).reshape(-1)
                twirl += np.outer(permuted, permuted)
            twirl /= len(perms)
            spread = sum(
                np.outer(iso.column(j, m, k), iso.column(j, m, k)) for k in range(d_j)
            )
            worst = max(worst, float(np.max(np.abs(twirl - spread / d_j))))
    return worst
