"""Dense Choi-operator oracle: Schur basis, channel action, verification."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from brute_force import enumerate_extremal
from superbroadcast import oracle
from superbroadcast.analysis import perfect_broadcast_channel
from superbroadcast.channels import (
    ChannelCoeffs,
    coefficients_for,
    conjectured_optimal_map,
)
from superbroadcast.oracle import (
    SizeCapError,
    _charge_blocks,
    _contract,
    _positivity_deviation,
    _reduced_choi,
    _rotate,
    _skew_deviation,
    _spin_flipped,
    apply_channel,
    build_choi,
    kron_power,
    partial_trace,
    permutation_twirl_deviation,
    product_input,
    qubit_state,
    random_axis,
    random_su2,
    schur_isometry,
    single_copy_marginal,
    symmetric_marginal_deviation,
    verify_closed_form,
)
from superbroadcast.su2core import HalfInt, cg, coupled_range, multiplicity, projections, spin_range


def projector_J(j, l, J, out_block, in_block):
    # projector onto total spin J in one (output, input) pair of Schur blocks,
    # on the joint space ordered output (x) input, of rank 2J+1
    coupled = oracle._coupled_columns(
        HalfInt.of(j), HalfInt.of(l), HalfInt.of(J), out_block[None], in_block[None]
    )
    return coupled @ coupled.T


def bloch_vector(rho):
    # Cartesian Bloch components Re tr(rho sigma) of a single-qubit state
    paulis = (oracle.PAULI_X, oracle.PAULI_Y, oracle.PAULI_Z)
    return np.array([float(np.real(np.trace(rho @ sigma))) for sigma in paulis])


def test_schur_isometry_is_unitary():
    for size in range(1, 11):
        u = schur_isometry(size).matrix()
        assert u.shape == (2**size, 2**size)
        assert np.max(np.abs(u.T @ u - np.eye(2**size))) < 1e-12


def test_schur_path_counts_match_multiplicities():
    for size in range(1, 9):
        iso = schur_isometry(size)
        assert sorted(iso.spins()) == spin_range(size)
        for j in iso.spins():
            assert len(iso.paths(j)) == multiplicity(size, j)
            for path in iso.paths(j):
                assert len(path) == size
                assert path[0] == HalfInt.of(Fraction(1, 2))
                assert path[-1] == j


def test_schur_two_qubit_columns():
    iso = schur_isometry(2)
    inv = 1.0 / np.sqrt(2.0)
    assert_allclose(iso.column(0, 0), [0.0, inv, -inv, 0.0], atol=1e-15)
    assert_allclose(iso.column(1, 1), [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(iso.column(1, 0), [0.0, inv, inv, 0.0], atol=1e-15)
    assert_allclose(iso.column(1, -1), [0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_schur_three_qubit_paths():
    iso = schur_isometry(3)
    half = HalfInt.of(Fraction(1, 2))
    assert iso.paths(Fraction(3, 2)) == [(half, HalfInt.of(1), HalfInt.of(Fraction(3, 2)))]
    assert iso.paths(half) == [
        (half, HalfInt.of(1), half),
        (half, HalfInt.of(0), half),
    ]
    # the two multiplicity copies are orthonormal
    a = iso.column(half, half, 0)
    b = iso.column(half, half, 1)
    assert abs(a @ a - 1.0) < 1e-12
    assert abs(b @ b - 1.0) < 1e-12
    assert abs(a @ b) < 1e-12


def _reference_schur_blocks(n_qubits):
    # the one-qubit-at-a-time recursion with one su2core.cg call per entry,
    # with no cache: blocks[j] lists (path, rows) as in SchurIsometry
    half = HalfInt(1)
    blocks = {half: [((half,), np.eye(2))]}
    for _ in range(2, n_qubits + 1):
        grown = {}
        for j in sorted(blocks, reverse=True):
            for child in (j + half, j - half):
                if child.doubled < 0:
                    continue
                # amplitudes[row, qubit, old row]: <child m_new | j m_old, 1/2 +-1/2>
                amplitudes = np.zeros((child.dim, 2, j.dim))
                for row, m_new in enumerate(reversed(projections(child))):
                    for qubit, spin_state in enumerate((half, -half)):
                        m_old = m_new - spin_state
                        if abs(m_old.doubled) > j.doubled:
                            continue
                        amplitudes[row, qubit, (j.doubled - m_old.doubled) // 2] = cg(
                            j, m_old, half, spin_state, child, m_new
                        )
                for path, block in blocks[j]:
                    rows = (amplitudes @ block).transpose(0, 2, 1).reshape(child.dim, -1)
                    grown.setdefault(child, []).append((path + (child,), rows))
        blocks = grown
    return blocks


def test_schur_blocks_match_the_per_entry_recursion_byte_for_byte():
    for size in range(1, 11):
        expected = _reference_schur_blocks(size)
        blocks = schur_isometry(size).blocks
        assert list(blocks) == list(expected)
        for j, paths in expected.items():
            assert [path for path, _ in blocks[j]] == [path for path, _ in paths]
            for (_, block), (_, rows) in zip(blocks[j], paths):
                assert block.shape == rows.shape
                assert block.tobytes() == rows.tobytes()


def test_schur_isometry_returns_fresh_containers_over_read_only_arrays():
    first = schur_isometry(3)
    half, top = HalfInt(1), HalfInt(3)
    with pytest.raises(ValueError, match="read-only"):
        first.block(half)[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        first.column(top, half)[:] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        oracle._coupling_amplitudes(half, half, HalfInt(2))[0, 0, 0] = 2.0
    expected = {j: list(paths) for j, paths in first.blocks.items()}
    first.blocks[half].pop()
    del first.blocks[top]
    second = schur_isometry(3)
    assert second.blocks is not first.blocks
    assert second.blocks == expected
    assert second.blocks[half] is not schur_isometry(3).blocks[half]


def test_schur_column_rejects_projections_the_spin_does_not_have():
    one = schur_isometry(1)
    for m in (Fraction(3, 2), Fraction(-3, 2), 0, 1):
        with pytest.raises(ValueError, match="not a projection of spin 1/2"):
            one.column(Fraction(1, 2), m)
    two = schur_isometry(2)
    for m in (Fraction(1, 2), 2, -2):
        with pytest.raises(ValueError, match="not a projection of spin 1"):
            two.column(1, m)
    assert one.column(Fraction(1, 2), Fraction(-1, 2)).tolist() == [0.0, 1.0]


def test_second_verify_on_seen_registers_makes_no_cg_call(monkeypatch):
    emap = conjectured_optimal_map(3, 5)
    verify_closed_form(3, 5, emap, seed=1)
    calls = []

    def counting(*args):
        calls.append(args)
        return cg(*args)

    monkeypatch.setattr(oracle, "cg", counting)
    report = verify_closed_form(3, 5, emap, seed=2)
    assert report.ok, report.failures()
    assert calls == []


def test_schur_cap():
    with pytest.raises(SizeCapError):
        schur_isometry(13)
    with pytest.raises(ValueError):
        schur_isometry(0)


def test_projector_properties():
    iso_out = schur_isometry(3)
    iso_in = schur_isometry(2)
    for j in iso_out.spins():
        for l in iso_in.spins():
            out_block = iso_out.block(j)
            in_block = iso_in.block(l)
            total = np.zeros((32, 32))
            for J in coupled_range(j, l):
                proj = projector_J(j, l, J, out_block, in_block)
                assert_allclose(proj, proj.T, atol=1e-14)
                assert_allclose(proj @ proj, proj, atol=1e-12)
                assert abs(np.trace(proj) - J.dim) < 1e-12
                total += proj
            # summed over J they resolve the sector product space
            sector = np.kron(out_block.T @ out_block, in_block.T @ in_block)
            assert_allclose(total, sector, atol=1e-12)
    with pytest.raises(ValueError):
        projector_J(Fraction(3, 2), 1, 4, iso_out.block(Fraction(3, 2)), iso_in.block(1))


def test_identity_channel_reproduces_the_state():
    # N = M = 1 with J = 0 is the identity: s = 2, Choi = 2 P_singlet
    emap = conjectured_optimal_map(1, 1)
    choi = build_choi(coefficients_for(emap))
    rng = np.random.default_rng(11)
    for _ in range(4):
        rho = qubit_state(rng.uniform(0.0, 1.0), random_axis(rng))
        assert_allclose(apply_channel(choi, rho), rho, atol=1e-12)


def _faulted(coeffs):
    # one weight scaled by 101/100, the corruption the dense-oracle benchmark applies
    key = next(iter(coeffs.weights))
    weights = dict(coeffs.weights)
    weights[key] = weights[key] * Fraction(101, 100)
    return ChannelCoeffs(coeffs.n_in, coeffs.m_out, weights)


def _projector_sum(coeffs):
    # Choi operator as the plain sum of s * projector_J over path pairs
    iso_out = schur_isometry(coeffs.m_out)
    iso_in = schur_isometry(coeffs.n_in)
    dim = 2 ** (coeffs.n_in + coeffs.m_out)
    total = np.zeros((dim, dim))
    for (j, l, J), s in coeffs.weights.items():
        for _, out_block in iso_out.blocks[j]:
            for _, in_block in iso_in.blocks[l]:
                total += float(s) * projector_J(j, l, J, out_block, in_block)
    return total


def test_choi_trace_preserving_and_positive_small():
    # exhaustive over every extremal map on registers up to 8 qubits total,
    # plus a faulted weight and a mixed (non-extremal) channel
    mixed = perfect_broadcast_channel(4, 4, 0.5)
    assert mixed is not None
    faulted = _faulted(coefficients_for(conjectured_optimal_map(3, 4)))
    cases = [(mixed, True), (faulted, False)]
    for n in range(1, 5):
        for m in range(1, 9 - n):
            cases.extend((coefficients_for(emap), True) for emap in enumerate_extremal(n, m))
    for coeffs, trace_preserving in cases:
        dim_in, dim_out = 2**coeffs.n_in, 2**coeffs.m_out
        choi = build_choi(coeffs)
        if trace_preserving:
            four = choi.reshape(dim_out, dim_in, dim_out, dim_in)
            reduced = np.einsum("aiaj->ij", four)
            assert np.max(np.abs(reduced - np.eye(dim_in))) < 1e-10
            # total trace equals the input dimension
            assert abs(np.trace(choi) - dim_in) < 1e-9
        lowest = np.linalg.eigvalsh(choi)[0]
        assert lowest > -1e-10
        # the charge-block bound agrees with the full spectrum
        assert abs(_positivity_deviation(_charge_blocks(choi)) - max(0.0, -lowest)) < 1e-12
        assert np.max(np.abs(choi - _projector_sum(coeffs))) < 1e-12


def test_positivity_bound_sees_off_block_negativity(monkeypatch):
    # a symmetric entry between two popcount blocks, large enough to make
    # the true spectrum negative, must fail choi_positive
    emap = conjectured_optimal_map(2, 3)
    clean = build_choi(coefficients_for(emap))
    i, k = 0b00001, 0b00111  # popcounts 1 and 3
    epsilon = np.sqrt(clean[i, i] * clean[k, k]) + 1e-6
    broken = clean.copy()
    broken[i, k] += epsilon
    broken[k, i] += epsilon
    assert np.linalg.eigvalsh(broken)[0] < -1e-10
    assert _charge_blocks(broken) is None

    monkeypatch.setattr(oracle, "build_choi", lambda coeffs: broken)
    report = verify_closed_form(2, 3, emap)
    assert "choi_positive" in [c.name for c in report.failures()]
    assert report.deviation("choi_positive") == -np.linalg.eigvalsh(broken)[0]


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, UPLO="L"):
        calls.append(a.shape)
        return eigvalsh(a, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def _popcounts(dim):
    return np.array([bin(i).count("1") for i in range(dim)])


def _charge_bands(n_qubits):
    charge = _popcounts(2**n_qubits)
    return [np.flatnonzero(charge == value) for value in range(n_qubits + 1)]


def test_positivity_eigensolves_one_band_per_mirror_pair(monkeypatch):
    # every covariant Choi operator is invariant under the collective pi
    # rotation, so band L-k is band k reversed and is not eigensolved again
    operators = [
        build_choi(coefficients_for(conjectured_optimal_map(n, m)))
        for n, m in [(1, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (2, 9)]
    ]
    operators.append(build_choi(coefficients_for(enumerate_extremal(3, 4)[-1])))
    operators.append(build_choi(_faulted(coefficients_for(conjectured_optimal_map(3, 4)))))
    calls = _count_eigvalsh(monkeypatch)
    for choi in operators:
        n_qubits = choi.shape[0].bit_length() - 1
        calls.clear()
        _positivity_deviation(_charge_blocks(choi))
        assert len(calls) == n_qubits // 2 + 1
    calls.clear()
    assert verify_closed_form(2, 5, conjectured_optimal_map(2, 5)).ok
    assert len(calls) == 7 // 2 + 1


def test_positivity_mirror_falls_back_on_a_changed_band(monkeypatch):
    # one lower-triangle entry changed in a band above L/2 costs that pair
    # its second eigensolve; one in every such band gives all L+1
    n_qubits = 8
    clean = build_choi(coefficients_for(conjectured_optimal_map(3, 5)))
    bands = _charge_bands(n_qubits)
    calls = _count_eigvalsh(monkeypatch)
    broken = clean.copy()
    for count, value in enumerate(range(n_qubits // 2 + 1, n_qubits + 1), start=1):
        row, col = bands[value][-1], bands[value][0]
        broken[row, col] += 1e-9
        calls.clear()
        _positivity_deviation(_charge_blocks(broken))
        assert len(calls) == n_qubits // 2 + 1 + count
    assert len(calls) == n_qubits + 1


def test_positivity_bound_sees_each_broken_band():
    # a symmetric entry pair inside one band makes that band indefinite;
    # the bound must report it whichever band of its mirror pair it is in
    n_qubits = 8
    clean = build_choi(coefficients_for(conjectured_optimal_map(3, 5)))
    for members in _charge_bands(n_qubits):
        broken = clean.copy()
        if len(members) == 1:
            broken[members[0], members[0]] = -1e-3
        else:
            i, k = members[0], members[-1]
            broken[i, k] = broken[k, i] = np.sqrt(clean[i, i] * clean[k, k]) + 1e-3
        lowest = min(
            np.linalg.eigvalsh(broken[np.ix_(band, band)])[0]
            for band in _charge_bands(n_qubits)
        )
        bound = _positivity_deviation(_charge_blocks(broken))
        assert bound > 1e-10
        # the off-block part is zero, so the bound is tight and the full
        # eigensolve agrees only up to its rounding
        assert bound >= -np.linalg.eigvalsh(broken)[0] - 1e-15
        assert bound == max(0.0, -lowest)


def _blockwise_lowest(choi):
    # smallest eigenvalue of every charge block; a block above L/2 that is
    # exactly its mirror block reversed has the same spectrum, and is not
    # eigensolved again, since the two solves differ in the last bits
    n_qubits = choi.shape[0].bit_length() - 1
    blocks = [choi[np.ix_(band, band)] for band in _charge_bands(n_qubits)]
    return min(
        np.linalg.eigvalsh(block)[0]
        for k, block in enumerate(blocks)
        if k <= n_qubits // 2 or not np.array_equal(block, blocks[n_qubits - k][::-1, ::-1])
    )


def _assert_checked_whole(monkeypatch, broken, n, m):
    # verify_closed_form on an operator with entries outside the charge
    # blocks reports the exact whole-S values
    monkeypatch.setattr(oracle, "build_choi", lambda coeffs: broken)
    report = verify_closed_form(n, m, conjectured_optimal_map(n, m))
    assert report.deviation("choi_hermitian") == np.max(np.abs(broken - broken.conj().T))
    lowest = np.linalg.eigvalsh(broken)[0]
    assert report.deviation("choi_positive") == max(0.0, -lowest)


def _charge_block_cases():
    # covariant operators: optimal maps, every extremal 3->4 and 2->5 map and
    # a faulted map; each as built (real) and with Hermitian phases on its
    # entries (complex, with the same zeros)
    rng = np.random.default_rng(43)
    maps = [conjectured_optimal_map(n, m) for n, m in [(1, 1), (2, 3), (3, 4), (2, 5), (4, 5)]]
    maps += enumerate_extremal(3, 4) + enumerate_extremal(2, 5)
    coefficient_sets = [coefficients_for(emap) for emap in maps]
    coefficient_sets.append(_faulted(coefficients_for(conjectured_optimal_map(3, 4))))
    for coeffs in coefficient_sets:
        choi = build_choi(coeffs)
        angles = rng.uniform(-np.pi, np.pi, size=choi.shape)
        yield choi
        yield choi * np.exp(1j * (angles - angles.T))


def test_charge_blocks_certify_a_zero_rest(monkeypatch):
    # the exact nonzero count certifies the blocks of every covariant
    # operator, and a single subnormal entry between two charges is enough
    # to withhold the certificate
    for choi in _charge_block_cases():
        blocks = _charge_blocks(choi)
        assert blocks is not None
        assert _skew_deviation(blocks) == np.max(np.abs(choi - choi.conj().T))
        assert _positivity_deviation(blocks) == max(0.0, -_blockwise_lowest(choi))

        broken = choi.copy()
        broken[0b1, 0b11] = 5e-324  # popcounts 1 and 2
        assert _charge_blocks(broken) is None
    # whole-S values on the uncertified operator, real and complex
    choi = build_choi(coefficients_for(conjectured_optimal_map(2, 3)))
    angles = np.random.default_rng(53).uniform(-np.pi, np.pi, size=choi.shape)
    for clean in (choi, choi * np.exp(1j * (angles - angles.T))):
        broken = clean.copy()
        broken[0b1, 0b11] = 5e-324
        _assert_checked_whole(monkeypatch, broken, 2, 3)


def test_verify_checks_a_dense_off_block_part_whole(monkeypatch):
    # Hermitian noise on every entry, real and complex: no certificate, and
    # the checks read the whole of S exactly
    rng = np.random.default_rng(47)
    choi = build_choi(coefficients_for(conjectured_optimal_map(2, 5)))
    noise = rng.normal(size=choi.shape) * 1e-6
    for broken in (choi + noise + noise.T, choi + 1j * (noise - noise.T)):
        assert _charge_blocks(broken) is None
        _assert_checked_whole(monkeypatch, broken, 2, 5)


def test_probe_inputs_flip_one_copy_before_the_power():
    # the spin flip is a signed permutation, so the order costs no bits
    rng = np.random.default_rng(37)
    for n in range(1, 7):
        for r in (0.0, 0.3, 0.7, 1.0):
            for axis in ([0.0, 0.0, 1.0], random_axis(rng), random_axis(rng)):
                one = kron_power(_spin_flipped(qubit_state(r, axis), 1), n)
                whole = _spin_flipped(product_input(n, r, axis), n)
                assert one.tobytes() == whole.tobytes()


def test_stacked_contraction_matches_single_inputs():
    # random Hermitian, non-product inputs; a real Choi operator and a
    # complex Hermitian one
    rng = np.random.default_rng(41)
    for n, m in [(1, 2), (2, 3), (3, 4), (2, 5)]:
        dim_in, dim_out = 2**n, 2**m
        for choi in (
            build_choi(coefficients_for(conjectured_optimal_map(n, m))),
            _random_state(rng, dim_in * dim_out),
        ):
            choi4 = choi.reshape(dim_out, dim_in, dim_out, dim_in)
            stack = np.stack([_random_state(rng, dim_in) for _ in range(5)])
            batched = _contract(choi4, stack)
            assert batched.shape == (5, dim_out, dim_out)
            for rho_tilde, out in zip(stack, batched):
                assert np.max(np.abs(out - _contract(choi4, rho_tilde))) <= 1e-15
                expected = np.einsum("ab,xbya->xy", rho_tilde, choi4)
                assert np.max(np.abs(out - expected)) < 1e-13


def test_apply_channel_temporaries_stay_a_quarter_of_the_choi_operator():
    choi = build_choi(coefficients_for(conjectured_optimal_map(2, 9)))
    rho = product_input(2, 0.6, [0.0, 0.0, 1.0])
    tracemalloc.start()
    try:
        apply_channel(choi, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * choi.nbytes


def test_choi_trace_preserving_and_positive_sampled_large():
    # first, conjectured, and last maps at 9- and 10-qubit total sizes
    for n, m in [(2, 7), (4, 5), (5, 4), (3, 7), (5, 5), (7, 3)]:
        maps = enumerate_extremal(n, m)
        picks = {0, len(maps) - 1}
        sample = [maps[i] for i in sorted(picks)] + [conjectured_optimal_map(n, m)]
        dim_in, dim_out = 2**n, 2**m
        for emap in sample:
            choi = build_choi(coefficients_for(emap))
            four = choi.reshape(dim_out, dim_in, dim_out, dim_in)
            reduced = np.einsum("aiaj->ij", four)
            assert np.max(np.abs(reduced - np.eye(dim_in))) < 1e-10
            assert np.linalg.eigvalsh(choi)[0] > -1e-10


def test_build_choi_cap(monkeypatch):
    # the fixed caps refuse an oversized register before any basis is built
    def no_work(*args):
        raise AssertionError("work started past a size cap")

    monkeypatch.setattr(oracle, "cg", no_work)
    monkeypatch.setattr(oracle, "schur_isometry", no_work)
    with pytest.raises(SizeCapError, match="13 qubits exceed the dense cap 12"):
        schur_isometry(13)
    for n, m in ((6, 7), (1, 12), (12, 1)):
        with pytest.raises(SizeCapError, match=f"{m}\\+{n} qubits exceed the dense cap 12"):
            build_choi(coefficients_for(conjectured_optimal_map(n, m)))
    with pytest.raises(SizeCapError, match="9 qubits exceed the permutation cap 8"):
        permutation_twirl_deviation(9)


def test_build_choi_rejects_spins_outside_the_registers():
    # an output spin of the wrong parity, and an input spin beyond 2 qubits
    coeffs = coefficients_for(conjectured_optimal_map(2, 3))
    for triple, text in (
        ((HalfInt(2), HalfInt(0), HalfInt(3)), "j=1, l=0, J=3/2"),
        ((HalfInt(3), HalfInt(7), HalfInt(4)), "j=3/2, l=7/2, J=2"),
    ):
        weights = {**coeffs.weights, triple: Fraction(1, 4)}
        with pytest.raises(ValueError, match=f"no Schur block for \\({text}\\) in 3\\+2 qubits"):
            build_choi(ChannelCoeffs(2, 3, weights))


def test_hermitian_check_sees_one_asymmetric_entry(monkeypatch):
    # one entry far from the diagonal of a 256 x 256 operator breaks the
    # symmetry; both indices have popcount 2, so it lies in a charge block
    # and the positivity bound is unaffected
    emap = conjectured_optimal_map(3, 5)
    broken = build_choi(coefficients_for(emap))
    broken[0b00000011, 0b11000000] += 1e-9
    monkeypatch.setattr(oracle, "build_choi", lambda coeffs: broken)
    report = verify_closed_form(3, 5, emap)
    assert [c.name for c in report.failures()] == ["choi_hermitian"]
    assert report.deviation("choi_hermitian") == np.max(np.abs(broken - broken.T))


def test_apply_channel_matches_einsum_contraction():
    # random complex, non-product inputs against Tr_in[(I (x) rho~) S]
    # a complex Hermitian operator takes the same contraction
    rng = np.random.default_rng(17)
    for n, m in [(1, 2), (2, 3), (3, 4), (2, 5)]:
        dim_in, dim_out = 2**n, 2**m
        flip = kron_power(np.array([[0.0, 1.0], [-1.0, 0.0]]), n)
        for choi in (
            build_choi(coefficients_for(conjectured_optimal_map(n, m))),
            _random_state(rng, dim_in * dim_out),
        ):
            for _ in range(3):
                a = rng.normal(size=(dim_in, dim_in)) + 1j * rng.normal(size=(dim_in, dim_in))
                rho = a @ a.conj().T
                rho /= np.trace(rho)
                rho_tilde = flip @ rho.T @ flip.T
                choi4 = choi.reshape(dim_out, dim_in, dim_out, dim_in)
                expected = np.einsum("ab,xbya->xy", rho_tilde, choi4)
                assert np.max(np.abs(apply_channel(choi, rho) - expected)) < 1e-13


def _random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_qubitwise_rotation_matches_dense_product():
    rng = np.random.default_rng(23)
    for m in range(1, 11):
        rho = _random_state(rng, 2**m)
        u = random_su2(rng)
        dense = kron_power(u, m)
        expected = dense @ rho @ dense.conj().T
        assert np.max(np.abs(_rotate(u, rho) - expected)) < 1e-13


def test_reduced_choi_marginals_match_full_application():
    # a random real operator has no output symmetry, so a wrong qubit
    # position or index order shows; the optimal map's Choi operator too
    rng = np.random.default_rng(29)
    for n, m in [(1, 2), (2, 3), (3, 4), (2, 5)]:
        dim = 2 ** (n + m)
        operators = [
            rng.normal(size=(dim, dim)),
            build_choi(coefficients_for(conjectured_optimal_map(n, m))),
        ]
        for choi in operators:
            for _ in range(2):
                rho = _random_state(rng, 2**n)
                rho_out = apply_channel(choi, rho)
                for which in range(m):
                    marginal = _contract(
                        _reduced_choi(choi, n, m, which), _spin_flipped(rho, n)
                    )
                    expected = single_copy_marginal(rho_out, which)
                    assert np.max(np.abs(marginal - expected)) < 1e-13


def test_covariance_check_sees_a_non_covariant_channel(monkeypatch):
    # sigma_x on output qubit 0 after the optimal map: still trace
    # preserving and positive, but no longer covariant
    n, m = 2, 3
    emap = conjectured_optimal_map(n, m)
    flip = np.kron(np.kron(oracle.PAULI_X.real, np.eye(2 ** (m - 1))), np.eye(2**n))
    broken = flip @ build_choi(coefficients_for(emap)) @ flip
    assert np.linalg.eigvalsh(broken)[0] > -1e-12
    monkeypatch.setattr(oracle, "build_choi", lambda coeffs: broken)
    report = verify_closed_form(n, m, emap)
    assert report.deviation("choi_trace_preserving") < 1e-12
    assert "covariance" in [c.name for c in report.failures()]
    assert report.deviation("covariance") > 1e-3


def test_apply_channel_validates_shapes():
    choi = build_choi(coefficients_for(conjectured_optimal_map(1, 2)))
    with pytest.raises(ValueError):
        apply_channel(choi, np.eye(3) / 3.0)
    with pytest.raises(ValueError):
        apply_channel(choi, np.ones((2, 4)))


def test_partial_trace_on_product_states():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a @ a.conj().T
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = b @ b.conj().T
    joint = np.kron(a, b)
    assert_allclose(partial_trace(joint, [0], 2), a * np.trace(b), atol=1e-12)
    assert_allclose(partial_trace(joint, [1], 2), b * np.trace(a), atol=1e-12)
    assert_allclose(partial_trace(joint, [0, 1], 2), joint, atol=1e-12)
    three = np.kron(joint, a)
    assert_allclose(
        partial_trace(three, [0, 2], 3), np.kron(a, a) * np.trace(b), atol=1e-12
    )
    with pytest.raises(ValueError):
        partial_trace(joint, [2], 2)
    with pytest.raises(ValueError):
        partial_trace(joint, [0, 0], 2)


def test_single_copy_marginal_positions_agree():
    emap = conjectured_optimal_map(2, 3)
    choi = build_choi(coefficients_for(emap))
    rho_out = apply_channel(choi, product_input(2, 0.8, [0.0, 0.0, 1.0]))
    marginals = [single_copy_marginal(rho_out, which) for which in range(3)]
    for other in marginals[1:]:
        assert_allclose(marginals[0], other, atol=1e-12)
    with pytest.raises(ValueError):
        single_copy_marginal(rho_out, 3)


def test_bloch_vector_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(3):
        axis = random_axis(rng)
        r = rng.uniform(0.0, 1.0)
        assert_allclose(bloch_vector(qubit_state(r, axis)), r * axis, atol=1e-12)


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_su2(rng)
        assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_kron_power():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(kron_power(x, 1), x)
    assert kron_power(x, 3).shape == (8, 8)
    assert_allclose(kron_power(np.eye(2), 4), np.eye(16))
    for n in (0, -1):
        with pytest.raises(ValueError):
            kron_power(2.0 * np.eye(2), n)
    # the same bytes as chained np.kron, real and complex, square or not
    rng = np.random.default_rng(31)
    factors = [
        rng.normal(size=(2, 2)),
        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        random_su2(rng),
        rng.normal(size=(2, 3)),
    ]
    for a in factors:
        expected = a
        for n in range(1, 7):
            power = kron_power(a, n)
            assert power.shape == expected.shape
            assert power.tobytes() == expected.tobytes()
            expected = np.kron(expected, a)


def test_verify_closed_form_passes_on_valid_maps():
    for n, m in [(1, 2), (2, 2), (2, 3), (3, 4)]:
        report = verify_closed_form(n, m, conjectured_optimal_map(n, m))
        assert report.ok, report.failures()
        assert report.deviation("closed_form_parallel") < 1e-9
        assert report.deviation("covariance") < 1e-9
    with pytest.raises(ValueError):
        verify_closed_form(2, 3, conjectured_optimal_map(2, 2))
    with pytest.raises(KeyError):
        report.deviation("not_a_check")


def test_verify_closed_form_catches_corruption():
    emap = conjectured_optimal_map(2, 3)
    coeffs = coefficients_for(emap)
    key = next(iter(coeffs.weights))
    bad = dict(coeffs.weights)
    bad[key] = bad[key] * Fraction(11, 10)
    report = verify_closed_form(2, 3, emap, coefficients=ChannelCoeffs(2, 3, bad))
    assert not report.ok
    assert "choi_trace_preserving" in [c.name for c in report.failures()]


def test_symmetric_state_marginal_identity():
    # one-qubit marginal of |j m> on 2j qubits is I/2 + (m/2j) sigma_z
    assert symmetric_marginal_deviation() < 1e-12


def test_permutation_twirl_identity():
    # permutation-averaging one multiplicity copy spreads it evenly over all
    for size in range(2, 6):
        assert permutation_twirl_deviation(size) < 1e-12
    with pytest.raises(SizeCapError):
        permutation_twirl_deviation(9)
