"""Command-line front end emitting CSV tables and verification reports.

Subcommands::

    scaling      p(r) curve of the optimal map on an r grid
    threshold    purity threshold r* for one (N, M) pair
    mstar        largest M with an above-unity scaling factor
    optimal-map  sector table of the argmax extremal map
    figure2      both scaling-curve panels (M = N+1 sweep and N = 5 sweep)
    figure3      threshold gaps 1 - r* versus N for both output choices
    verify       dense-matrix checks of the closed forms, exit 1 on failure

``optimal-map`` and ``verify`` take the half-output-spin map, the exact
argmax (:func:`superbroadcast.analysis.optimal_map`), straight from
:func:`superbroadcast.channels.conjectured_optimal_map`, so ``optimal-map``
evaluates no curve.  Their ``--r`` is accepted and validated, but has
never changed their output; it stays so that existing command lines, such
as the ``optimal-map`` queries of ``perfbench``, keep working.  Every
default lives in :class:`RunConfig`.

All numeric CSV fields use 12 significant digits.  Output is assembled in
memory, written to a temporary file beside the target and renamed over it,
so an error never leaves a partial or truncated file.
Exit codes: 0 success, 1 verification failure, 2 invalid arguments (a
request too large for memory among them) or an unwritable output file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import _scaling_factor, half_spin_scaling_at_zero, scaling_profile
from .channels import coefficients_for, conjectured_optimal_map, validate_trace_preserving
from .oracle import (
    CheckResult,
    SizeCapError,
    permutation_twirl_deviation,
    schur_isometry,
    symmetric_marginal_deviation,
    verify_closed_form,
)
from .thresholds import _maximal_threshold, m_star, r_star

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments of one CLI invocation; the one home of every
    default (the parser supplies none)."""

    command: str
    n_in: Optional[int] = None
    m_out: Optional[int] = None
    m_range: Optional[tuple[int, int]] = None
    n_range: Optional[tuple[int, int]] = None
    r: float = 0.5
    r_min: float = 0.0
    r_max: float = 1.0
    steps: int = 101
    tol: float = 1e-6
    cap: int = 200
    seed: int = 7
    output_path: Optional[str] = None

    def validate(self) -> None:
        if not 0.0 <= self.r_min < self.r_max <= 1.0:
            raise ValueError(
                f"need 0 <= r-min < r-max <= 1, got [{self.r_min}, {self.r_max}]"
            )
        if self.steps < 2:
            raise ValueError(f"need at least 2 grid steps, got {self.steps}")
        if not self.tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"Bloch length must lie in [0, 1], got {self.r}")
        if self.cap < 1:
            raise ValueError(f"cap must be positive, got {self.cap}")
        for label, value in (("--n", self.n_in), ("--m", self.m_out)):
            if value is not None and value < 1:
                raise ValueError(f"{label} must be a positive qubit count, got {value}")
        for label, pair in (("--m-range", self.m_range), ("--n-range", self.n_range)):
            if pair is not None and not 1 <= pair[0] <= pair[1]:
                raise ValueError(f"{label} bounds must satisfy 1 <= A <= B, got {pair}")


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an inclusive integer range like 4..10, got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# row builders (pure; the tests drive these directly)


def _curve_rows(prefix: list[str], n: int, m: int, config: RunConfig) -> list[list[str]]:
    """``prefix, n, m, r, r', p`` of the optimal ``(n, m)`` map on the r grid."""
    grid = np.linspace(config.r_min, config.r_max, config.steps)
    profile = scaling_profile(n, m)
    r_prime = profile.r_prime(grid)
    # an F_N point does not depend on its batch, so p divides the r' in hand;
    # a per-sector curve's last bits do, and figure2 pins both its batches
    p = (profile.p(grid) if profile._on_curve
         else _scaling_factor(grid, lambda r: r_prime[grid != 0], profile.p_zero))
    return [
        prefix + [str(n), str(m), _fmt(grid[i]), _fmt(r_prime[i]), _fmt(p[i])]
        for i in range(grid.size)
    ]


def scaling_rows(config: RunConfig) -> list[list[str]]:
    if config.m_range is not None:
        m_values = range(config.m_range[0], config.m_range[1] + 1)
    else:
        m_values = [config.m_out]
    rows = [["n", "m", "r", "r_prime", "p"]]
    for m in m_values:
        rows.extend(_curve_rows([], config.n_in, m, config))
    return rows


def threshold_rows(config: RunConfig) -> list[list[str]]:
    result = r_star(config.n_in, config.m_out, tol=config.tol)
    value = _fmt(result.r_star) if result.exists else "none"
    return [["n", "m", "r_star"], [str(config.n_in), str(config.m_out), value]]


def mstar_rows(config: RunConfig) -> list[list[str]]:
    result = m_star(config.n_in, cap=config.cap)
    at_least = ">=" if result.capped else ""
    return [["n", "m_star"], [str(config.n_in), f"{at_least}{result.m_star}"]]


def optimal_map_rows(config: RunConfig) -> list[list[str]]:
    rows = [["input_spin", "output_spin", "coupled_spin"]]
    for l, j, J in conjectured_optimal_map(config.n_in, config.m_out).sectors():
        rows.append([str(l), str(j), str(J)])
    return rows


def figure2_rows(config: RunConfig) -> list[list[str]]:
    """Both scaling-curve panels on one grid.

    Left panel: one extra output copy, ``M = N+1`` with ``N`` stepping
    from 10 to 100 by tens (curves rise with ``N``).  Right panel: five
    input copies, ``M`` from 5 to 9 (curves fall as ``M`` grows).
    """
    rows = [["panel", "n", "m", "r", "r_prime", "p"]]
    panels = [("left", [(n, n + 1) for n in range(10, 101, 10)]),
              ("right", [(5, m) for m in range(5, 10)])]
    for panel, pairs in panels:
        for n, m in pairs:
            rows.extend(_curve_rows([panel], n, m, config))
    return rows


def figure3_rows(config: RunConfig) -> list[list[str]]:
    """Threshold gaps ``1 - r*`` for adjacent and maximal output counts.

    The second column uses ``M = N+1``; the third uses the exact
    ``M = M*(N)``, or the extrapolated ``M -> oo`` limit where ``M*`` is
    unbounded (``N >= 6``).
    """
    lo, hi = config.n_range if config.n_range is not None else (4, 12)
    rows = [["n", "gap_adjacent", "gap_maximal"]]
    for n in range(lo, hi + 1):
        adjacent = r_star(n, n + 1, tol=config.tol)
        if not adjacent.exists:
            rows.append([str(n), "none", "none"])
            continue
        maximal = _maximal_threshold(n, config.tol)
        rows.append([str(n), _fmt(1.0 - adjacent.r_star), _fmt(1.0 - maximal)])
    return rows


def verify_lines(config: RunConfig) -> tuple[list[str], bool]:
    """Human-readable dense-verification report and overall pass flag."""
    n, m = config.n_in, config.m_out
    emap = conjectured_optimal_map(n, m)
    coeffs = coefficients_for(emap)

    lines = [f"verifying N={n} -> M={m} (seed {config.seed})"]
    tp = validate_trace_preserving(coeffs)
    checks = [CheckResult("coefficient_trace_preservation", tp.max_residual(), 1e-12)]
    report = verify_closed_form(n, m, emap, seed=config.seed, coefficients=coeffs)
    checks.extend(report.checks)

    unitarity = 0.0
    for qubits in {n, m}:
        u = schur_isometry(qubits).matrix()
        unitarity = max(unitarity, float(np.max(np.abs(u.T @ u - np.eye(2**qubits)))))
    checks.append(CheckResult("schur_unitarity", unitarity, 1e-12))
    checks.append(CheckResult("symmetric_marginal", symmetric_marginal_deviation(), 1e-12))
    checks.append(
        CheckResult("permutation_twirl", permutation_twirl_deviation(min(m, 4)), 1e-12)
    )

    failures = [c.name for c in checks if not c.passed]
    for c in checks:
        lines.append(
            f"{c.name}: deviation {c.deviation:.3e} (tolerance {c.tolerance:g}) "
            + ("PASS" if c.passed else "FAIL")
        )

    if n == 1 and m > 1:
        # the no-broadcasting theorem (M > N = 1): r' is linear in r, so p
        # is the constant p(0) = (M+2)/(3M) < 1, and it is the deviation
        peak = float(half_spin_scaling_at_zero(n, m))
        no_broadcast = CheckResult("no_broadcasting", peak, 1.0)
        if no_broadcast.passed:
            lines.append(f"no-broadcasting confirmed (margin {1.0 - peak:.6g} below p = 1)")
        else:
            failures.append(no_broadcast.name)
            lines.append(f"no_broadcasting: p reaches {peak:.12g} FAIL")

    if failures:
        lines.append(f"FAIL: {len(failures)} of {len(checks)} checks: " + ", ".join(failures))
    else:
        lines.append(f"PASS: all {len(checks)} checks")
    return lines, not failures


_BUILDERS = {
    "scaling": scaling_rows,
    "threshold": threshold_rows,
    "mstar": mstar_rows,
    "optimal-map": optimal_map_rows,
    "figure2": figure2_rows,
    "figure3": figure3_rows,
}


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first :func:`main` call
    (not at import, which stays cheap); parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="superbroadcast",
        description="Optimal universal broadcasting: scaling curves, "
        "thresholds, and dense verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        # absent options stay out of the namespace, so RunConfig's defaults apply
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--out", dest="output_path", help="output file (default stdout)")
        return p

    p = add("scaling", "p(r) of the optimal map on an r grid")
    p.add_argument("--n", dest="n_in", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", dest="m_out", type=int)
    group.add_argument("--m-range", dest="m_range", type=_parse_range,
                       metavar="A..B", help="inclusive output-count range")
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--steps", type=int)

    p = add("threshold", "purity threshold r*(N, M)")
    p.add_argument("--n", dest="n_in", type=int, required=True)
    p.add_argument("--m", dest="m_out", type=int, required=True)
    p.add_argument("--tol", type=float, help="largest bracket width around r*")

    p = add("mstar", "largest output count with p(0) > 1")
    p.add_argument("--n", dest="n_in", type=int, required=True)
    p.add_argument("--cap", type=int, help="print >=CAP from this count up, or >=N+1 if CAP <= N")

    p = add("optimal-map", "sector table of the argmax extremal map")
    p.add_argument("--n", dest="n_in", type=int, required=True)
    p.add_argument("--m", dest="m_out", type=int, required=True)
    p.add_argument("--r", type=float)

    p = add("figure2", "both scaling-curve panels")
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--steps", type=int)

    p = add("figure3", "threshold gaps 1 - r* versus N")
    p.add_argument("--n-range", dest="n_range", type=_parse_range, metavar="A..B")
    p.add_argument("--tol", type=float, help="largest bracket width around r*")

    p = add("verify", "dense checks of the closed forms")
    p.add_argument("--n", dest="n_in", type=int, required=True)
    p.add_argument("--m", dest="m_out", type=int, required=True)
    p.add_argument("--r", type=float)
    p.add_argument("--seed", type=int, help="random seed")

    return parser


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    staging = f"{path}.{os.getpid()}.tmp"
    try:
        with open(staging, "w") as handle:
            handle.write(text)
        os.replace(staging, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(staging)
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    config = RunConfig(**vars(args))
    try:
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if config.command == "verify":
            lines, ok = verify_lines(config)
            text, code = "\n".join(lines) + "\n", 0 if ok else 1
        else:
            rows = _BUILDERS[config.command](config)
            text, code = "\n".join(",".join(row) for row in rows) + "\n", 0
    except (SizeCapError, ValueError, OverflowError) as exc:
        parser.error(str(exc))
    except MemoryError as exc:
        parser.error(f"out of memory: {exc}")
    try:
        _write(config.output_path, text)
    except OSError as exc:
        parser.error(f"cannot write {config.output_path}: {exc.strerror or exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
