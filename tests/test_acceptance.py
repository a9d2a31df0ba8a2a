"""End-to-end acceptance gates.

Each test covers one numbered criterion, pins its tolerances locally, and
prints a single pass/fail line (visible with ``pytest -s`` and in the
captured output of any failure).
"""

import time
from fractions import Fraction

import numpy as np

from superbroadcast.analysis import (
    BlochCurve,
    optimal_map,
    scaling_profile,
    single_copy_bloch,
)
from superbroadcast.channels import (
    coefficients_for,
    conjectured_optimal_map,
    enumerate_extremal,
    validate_trace_preserving,
)
from superbroadcast.oracle import (
    permutation_twirl_deviation,
    schur_isometry,
    verify_closed_form,
)
from superbroadcast.su2core import (
    cg_square,
    coupled_range,
    multiplicity,
    projections,
    spin_range,
)
from superbroadcast.thresholds import asymptotic_fit, m_star, r_star


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_threshold_reproduction():
    start = time.perf_counter()
    result = r_star(4, 5)
    elapsed = time.perf_counter() - start
    ok = result.exists and abs(result.r_star - 0.787) <= 1e-3 and elapsed < 30.0
    _report(
        "criterion 1 (r*(4,5) = 0.787 +/- 0.001)",
        ok,
        f"got {result.r_star:.6f} in {elapsed:.2f}s",
    )


def test_criterion_2_superbroadcasting_ranges():
    start = time.perf_counter()
    four = m_star(4)
    five = m_star(5)
    six = m_star(6, cap=200)
    elapsed = time.perf_counter() - start
    ok = (
        (four.m_star, four.capped) == (7, False)
        and (five.m_star, five.capped) == (21, False)
        and six.capped
        and six.m_star >= 200
        and elapsed < 60.0
    )
    _report(
        "criterion 2 (M*(4)=7, M*(5)=21, M*(6)>=200)",
        ok,
        f"got {four.m_star}, {five.m_star}, "
        f"{'>=' if six.capped else ''}{six.m_star} in {elapsed:.2f}s",
    )


def test_criterion_3_onset_at_four_copies():
    spurious = [
        (n, m)
        for n in (1, 2, 3)
        for m in range(n + 1, 11)
        if r_star(n, m).exists
    ]
    onset = r_star(4, 5).exists
    ok = not spurious and onset
    _report(
        "criterion 3 (no threshold below N=4, threshold at (4,5))",
        ok,
        f"spurious={spurious}, (4,5) exists={onset}",
    )


def test_criterion_4_no_broadcasting_single_copy():
    margin = 1e-6
    worst = 0.0
    grid = np.arange(1, 20) * 0.05  # 0.05 .. 0.95
    for m in range(2, 11):
        p = scaling_profile(1, m).p(grid)
        worst = max(worst, float(np.max(p)))
    ok = worst < 1.0 - margin
    _report(
        "criterion 4 (N=1 never reaches p = 1)",
        ok,
        f"max p = {worst:.6f} over M in 2..10, r in 0.05..0.95",
    )


def test_criterion_5_optimal_map_identity():
    mismatches = []
    rs = np.array([0.1, 0.5, 0.9])
    for n in range(1, 6):
        for m in range(1, 9):
            conjecture = conjectured_optimal_map(n, m)
            # brute force over every extremal map, independent of the argmax
            brute = np.max([BlochCurve(e).r_prime(rs) for e in enumerate_extremal(n, m)], axis=0)
            for r, top in zip(rs, brute):
                result = optimal_map(n, m, r)
                if not (
                    result.exhaustive
                    and result.best_map == conjecture
                    and abs(result.report.r_prime - top) <= 1e-12
                ):
                    mismatches.append((n, m, r))
    ok = not mismatches
    _report(
        "criterion 5 (exhaustive argmax = brute-force max = half-output-spin rule)",
        ok,
        f"N<=5, M<=8, r in {{0.1,0.5,0.9}}; mismatches={mismatches}",
    )


def test_criterion_6_pure_state_cloning_limit():
    tol = 1e-9
    worst = 0.0
    for n in range(1, 5):
        for m in range(n, 9):  # the cloning factor applies for M >= N
            p_one = single_copy_bloch(optimal_map(n, m, 1.0).best_map, 1.0).p
            factor = n * (m + 2) / (m * (n + 2))
            worst = max(worst, abs(p_one - factor))
    ok = worst < tol
    _report(
        "criterion 6 (p(1) = N(M+2)/(M(N+2)))",
        ok,
        f"max deviation {worst:.2e} over N<=4, N<=M<=8 (tol {tol})",
    )


def test_criterion_7_oracle_equivalence():
    closed_tol, tp_tol, psd_tol = 1e-9, 1e-10, 1e-10
    start = time.perf_counter()
    targets = []
    for n in (1, 2, 3):
        for m in range(1, 6):
            targets.extend((n, m, emap) for emap in enumerate_extremal(n, m))
    targets.append((4, 5, optimal_map(4, 5, 0.5).best_map))
    worst = {"closed_form_parallel": 0.0, "choi_trace_preserving": 0.0, "choi_positive": 0.0}
    for n, m, emap in targets:
        report = verify_closed_form(n, m, emap)
        for name in worst:
            worst[name] = max(worst[name], report.deviation(name))
    elapsed = time.perf_counter() - start
    ok = (
        worst["closed_form_parallel"] < closed_tol
        and worst["choi_trace_preserving"] < tp_tol
        and worst["choi_positive"] < psd_tol
        and elapsed < 600.0
    )
    _report(
        "criterion 7 (dense Choi oracle equivalence)",
        ok,
        f"{len(targets)} maps: closed-form {worst['closed_form_parallel']:.2e}, "
        f"TP {worst['choi_trace_preserving']:.2e}, "
        f"PSD {worst['choi_positive']:.2e} in {elapsed:.1f}s",
    )


def test_criterion_8_scaling_curve_orderings():
    grid = np.linspace(0.0, 1.0, 51)
    fixed_n = {m: scaling_profile(5, m).p(grid) for m in range(5, 10)}
    decreasing = all(
        np.all(fixed_n[m] > fixed_n[m + 1]) for m in range(5, 9)
    )
    adjacent = {n: scaling_profile(n, n + 1).p(grid) for n in range(10, 101, 10)}
    increasing = all(
        np.all(adjacent[n + 10] > adjacent[n]) for n in range(10, 91, 10)
    )
    ok = decreasing and increasing
    _report(
        "criterion 8 (curve orderings in M and N)",
        ok,
        f"N=5 decreasing in M: {decreasing}; M=N+1 increasing in N: {increasing}",
    )


def test_criterion_9_power_law_asymptotics():
    adjacent = asymptotic_fit(range(20, 101, 10), "adjacent")
    maximal = asymptotic_fit(range(20, 61, 10), "maximal")
    adjacent_ok = abs(adjacent.slope + 2.0) <= 0.15 and (
        2.0 / 1.5 <= adjacent.prefactor <= 2.0 * 1.5
    )
    maximal_ok = abs(maximal.slope + 1.0) <= 0.15
    ok = adjacent_ok and maximal_ok
    _report(
        "criterion 9 (power laws 2/N^2 and 1/N)",
        ok,
        f"adjacent slope {adjacent.slope:.3f} prefactor {adjacent.prefactor:.3f}; "
        f"maximal slope {maximal.slope:.3f}",
    )


def test_criterion_10_property_suites():
    dimension_ok = all(
        sum(j.dim * multiplicity(size, j) for j in spin_range(size)) == 2**size
        for size in range(1, 13)
    )

    completeness_ok = True
    for j1 in spin_range(3) + spin_range(4):
        for j2 in spin_range(2) + spin_range(3):
            for m1 in projections(j1):
                for m2 in projections(j2):
                    total = sum(
                        cg_square(j1, m1, j2, m2, J, m1 + m2)
                        for J in coupled_range(j1, j2)
                        if abs((m1 + m2).doubled) <= J.doubled
                    )
                    completeness_ok = completeness_ok and total == 1

    unitarity = 0.0
    for size in range(1, 11):
        u = schur_isometry(size).matrix()
        unitarity = max(unitarity, float(np.max(np.abs(u.T @ u - np.eye(2**size)))))

    normalization = 0.0
    for n in range(1, 5):
        for m in range(1, 6):
            for emap in enumerate_extremal(n, m):
                residual = validate_trace_preserving(coefficients_for(emap)).max_residual()
                normalization = max(normalization, residual)
    dense = verify_closed_form(2, 3, conjectured_optimal_map(2, 3))
    normalization = max(normalization, dense.deviation("output_unit_trace"))

    covariance = max(
        verify_closed_form(n, m, conjectured_optimal_map(n, m)).deviation("covariance")
        for n, m in [(2, 3), (3, 4)]
    )
    twirl = max(permutation_twirl_deviation(size) for size in (3, 4, 5))

    ok = (
        dimension_ok
        and completeness_ok
        and unitarity < 1e-12
        and normalization < 1e-10
        and covariance < 1e-9
        and twirl < 1e-9
    )
    _report(
        "criterion 10 (property suites)",
        ok,
        f"dim sums exact: {dimension_ok}; completeness exact: {completeness_ok}; "
        f"unitarity {unitarity:.2e}; normalization {normalization:.2e}; "
        f"covariance {covariance:.2e}; twirl {twirl:.2e}",
    )
