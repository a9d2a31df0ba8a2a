"""Seeded query lists for the three workloads, and the check of every output.

A query is a plain dict that :mod:`worker` knows how to run; the library
never sees the seed, only the generated arguments.  Each workload keeps the
cost-determining shape of its query list fixed (how many queries of each
kind, and the sizes that set their cost up to a small seeded jitter), so
that runs with different seeds measure comparable work; the seed draws the
actual arguments, the maps, the order and which queries revisit earlier
inputs.

Checks compare against :mod:`reference`, which shares no code with the
package, and against golden digests of fixed-argument CLI outputs taken at
the commit that introduced this benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent

# --------------------------------------------------------------------------
# large-n-thresholds

# Centres of the six N strata, smallest first, so that the first result is
# a cheap cold build and probe launches stay short.  Each N is drawn within
# +-2 of its centre: cold builds cost roughly N^3, and a wider draw would make
# the run-to-run spread a property of the seed rather than of the code.
LARGE_N_CENTRES = (64, 84, 108, 136, 168, 200)
LARGE_N_JITTER = 2
WARM_THRESHOLDS_PER_N = 4
# Warm curve queries per stratum.  Curve latency grows with N, so the
# latencies sort by stratum; these counts put the median query in the middle
# of the N ~ 136 group rather than on the edge between two groups, where it
# would jump with small timing changes.
WARM_CURVE_QUERIES = (24, 24, 24, 28, 20, 18)
# Each warm curve query evaluates p on this many seeded r values, a short
# curve rather than a single point, so that its latency is the curve kernel
# and not interpreter overhead.
CURVE_POINTS_PER_QUERY = 16


def large_n_thresholds(rng: random.Random) -> list[dict]:
    queries: list[dict] = []
    for centre, curve_queries in zip(LARGE_N_CENTRES, WARM_CURVE_QUERIES):
        n = centre + rng.randint(-LARGE_N_JITTER, LARGE_N_JITTER)
        queries.append({"kind": "r_star", "n": n, "m": n + 1, "tol": None})
        queries.append({"kind": "r_star", "n": n, "m": n + 2, "tol": None})
        warm = [
            {
                "kind": "r_star",
                "n": n,
                "m": n + rng.randint(1, 2),
                "tol": 10 ** rng.uniform(-8.0, -6.0),
            }
            for _ in range(WARM_THRESHOLDS_PER_N)
        ]
        for _ in range(curve_queries):
            m = n + rng.randint(1, 2)
            # Half the points sit in the last percent below r = 1, where the
            # thresholds of large N live (and where the tiny (1-r)/2 powers
            # underflow, which costs differently).
            half = CURVE_POINTS_PER_QUERY // 2
            rs = [rng.uniform(0.05, 0.99) for _ in range(half)] + [
                1.0 - 10 ** rng.uniform(-5.5, -2.0) for _ in range(CURVE_POINTS_PER_QUERY - half)
            ]
            warm.append({"kind": "curve_p", "n": n, "m": m, "r": sorted(rs)})
        rng.shuffle(warm)
        queries.extend(warm)
    return queries


# --------------------------------------------------------------------------
# cli-tables

CLI_THRESHOLDS = 68
CLI_REVISITS = 40
CLI_SCALING_WIDTHS = (1, 2, 2, 3, 3, 4)
# Every small optimal-map problem with M >= N: the exhaustive searches are the
# slow tail of the light commands, so the set is fixed and only r is drawn.
CLI_SMALL_MAPS = tuple((n, n + k) for n in range(2, 6) for k in range(4))
# The mid-size exhaustive search: 28405 extremal maps.  Its size is fixed,
# because its cost is a large share of the pass; the seed draws its r.
CLI_MID_SIZE_MAP = (6, 8)

def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over ``lo..hi``, each jittered within
    its stratum, in random order."""
    width = (hi - lo + 1) / count
    values = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def _cli(argv: list[str], pairs: list[tuple[int, int]] = ()) -> dict:
    return {"kind": "cli", "argv": argv, "pairs": [list(p) for p in pairs]}


def cli_tables(rng: random.Random) -> list[dict]:
    kinds = (
        ["figure2", "figure3", "optimal-map-4-5", "optimal-map-mid"]
        + ["mstar"] * 5
        + ["threshold"] * CLI_THRESHOLDS
        + ["scaling"] * len(CLI_SCALING_WIDTHS)
        + ["optimal-map"] * len(CLI_SMALL_MAPS)
    )
    rng.shuffle(kinds)
    mstar_ns = list(range(4, 9))
    rng.shuffle(mstar_ns)
    revisit = [True] * CLI_REVISITS + [False] * (CLI_THRESHOLDS - CLI_REVISITS)
    rng.shuffle(revisit)
    # Fresh thresholds from N = 6 up: below that a cold profile runs an
    # exhaustive search whose cost depends on M, and N = 4 is covered by the
    # golden 4 -> 5 and the revisits of it.
    fresh_ns = _stratified(rng, 6, 40, CLI_THRESHOLDS - CLI_REVISITS)
    # From N = 6 up, where profiles no longer run an exhaustive search per M.
    scaling_ns = _stratified(rng, 6, 30, len(CLI_SCALING_WIDTHS))
    widths = list(CLI_SCALING_WIDTHS)
    rng.shuffle(widths)
    small_maps = list(CLI_SMALL_MAPS)
    rng.shuffle(small_maps)
    # The golden threshold 4 -> 5 always comes first: it is the one-shot
    # command whose first-result time the workload reports.
    queries = [_cli(["threshold", "--n", "4", "--m", "5"], [(4, 5)])]
    # Pairs whose scaling profile an earlier threshold or scaling command
    # built; a revisit draws from these, so that it shares a cached profile.
    profiled: list[tuple[int, int]] = [(4, 5)]
    for kind in kinds:
        if kind in ("figure2", "figure3"):
            query = _cli([kind])
        elif kind == "mstar":
            query = _cli(["mstar", "--n", str(mstar_ns.pop())])
        elif kind == "optimal-map-4-5":
            query = _cli(["optimal-map", "--n", "4", "--m", "5"], [(4, 5)])
        elif kind == "threshold":
            if revisit.pop():
                n, m = rng.choice([(n, m) for n, m in profiled if n < m <= n + 4])
            else:
                n = fresh_ns.pop()
                m = n + rng.randint(1, 4)
            query = _cli(["threshold", "--n", str(n), "--m", str(m)], [(n, m)])
        elif kind == "scaling":
            n = scaling_ns.pop()
            lo = n + rng.randint(1, 2)
            hi = lo + widths.pop() - 1
            pairs = [(n, m) for m in range(lo, hi + 1)]
            query = _cli(["scaling", "--n", str(n), "--m-range", f"{lo}..{hi}"], pairs)
        else:
            n, m = CLI_MID_SIZE_MAP if kind == "optimal-map-mid" else small_maps.pop()
            r = f"{rng.uniform(0.05, 0.95):.3f}"
            query = _cli(["optimal-map", "--n", str(n), "--m", str(m), "--r", r], [(n, m)])
        queries.append(query)
        if query["argv"][0] in ("threshold", "scaling"):
            # Distinct pairs only, so that a revisit picks every earlier pair
            # alike rather than the ones already revisited most.
            profiled.extend(p for p in map(tuple, query["pairs"]) if p not in profiled)
    return queries


def revisit_share(queries: list[dict]) -> float:
    """Share of CLI commands whose (N, M) pair an earlier command used."""
    seen: set[tuple[int, int]] = set()
    revisits = 0
    for query in queries:
        pairs = [tuple(p) for p in query["pairs"]]
        if any(p in seen for p in pairs):
            revisits += 1
        seen.update(pairs)
    return revisits / len(queries)


# --------------------------------------------------------------------------
# dense-oracle

# Total qubits of the verify_closed_form queries.  The list is fixed so that
# each pass does comparable dense work; the seed draws the N/M split.
VERIFY_TOTALS = (11, 11, 10, 10, 10, 10, 9, 9, 9, 9, 9, 9, 8, 8, 8, 8, 7, 7, 6, 6)
FAULTED_VERIFIES = 5
# Random extremal maps only on registers this small: a map that sends a
# sector to a low output spin multiplies the dense work by that spin's
# multiplicity, which on large registers would swamp the pass.
RANDOM_MAP_MAX_QUBITS = 8
# Registers (N, M) of the Choi operators the apply queries use; fixed, since
# the cost of an application depends on the split.
CHOI_REGISTERS = ((4, 6), (3, 6), (4, 5), (3, 5))
APPLY_QUERIES = 80


def _split(rng: random.Random, total: int) -> tuple[int, int]:
    n = rng.randint(2, total // 2)
    return n, total - n


def _random_map(rng: random.Random, n: int, m: int) -> list[list[int]]:
    if n + m > RANDOM_MAP_MAX_QUBITS or rng.random() < 0.5:
        sectors = ref.half_spin_sectors(n, m)
    else:
        sectors = [
            (dl, *rng.choice(choices))
            for dl, choices in zip(ref.spin_doubles(n), ref.sector_choices(n, m))
        ]
    return [list(s) for s in sectors]


def dense_oracle(rng: random.Random) -> list[dict]:
    first = {
        "kind": "verify",
        "n": 3,
        "m": 3,
        "sectors": [list(s) for s in ref.half_spin_sectors(3, 3)],
        "seed": rng.randrange(2**31),
        "fault": False,
    }
    faulted = set(rng.sample(range(len(VERIFY_TOTALS)), FAULTED_VERIFIES))
    rest: list[dict] = []
    for i, total in enumerate(VERIFY_TOTALS):
        n, m = _split(rng, total)
        rest.append(
            {
                "kind": "verify",
                "n": n,
                "m": m,
                "sectors": _random_map(rng, n, m),
                "seed": rng.randrange(2**31),
                "fault": i in faulted,
            }
        )
    builds = []
    for key, (n, m) in enumerate(CHOI_REGISTERS):
        builds.append({"kind": "build_choi", "key": key, "n": n, "m": m,
                       "sectors": _random_map(rng, n, m)})
    for i in range(APPLY_QUERIES):
        build = builds[i % len(builds)]
        axis = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        rest.append(
            {
                "kind": "apply",
                "key": build["key"],
                "n": build["n"],
                "m": build["m"],
                "sectors": build["sectors"],
                "r": rng.uniform(0.0, 1.0),
                "axis": (axis / np.linalg.norm(axis)).tolist(),
                "which": rng.randrange(build["m"]),
            }
        )
    rest.extend(builds)
    rng.shuffle(rest)
    # Every Choi operator is built before its first use.
    ordered: list[dict] = []
    built: set[int] = set()
    for query in rest:
        if query["kind"] == "build_choi":
            if query["key"] not in built:
                ordered.append(query)
                built.add(query["key"])
            continue
        if query["kind"] == "apply" and query["key"] not in built:
            ordered.append(builds[query["key"]])
            built.add(query["key"])
        ordered.append(query)
    return [first] + ordered


WORKLOADS: dict[str, Callable[[random.Random], list[dict]]] = {
    "large-n-thresholds": large_n_thresholds,
    "cli-tables": cli_tables,
    "dense-oracle": dense_oracle,
}


def generate(workload: str, seed: int) -> list[dict]:
    queries = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    for i, query in enumerate(queries):
        query["id"] = i
    return queries


# --------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason

# Sign tolerance on p - 1 at bracket ends; the reference and the library
# agree to about 1e-13 on the sizes used here.
SIGN_EPS = 1e-11
CURVE_RTOL = 1e-9


def _half_spin_p(n: int, m: int, r) -> np.ndarray:
    return ref.p(n, m, ref.half_spin_sectors(n, m), r)


@lru_cache(maxsize=None)
def _golden() -> dict[str, str]:
    """SHA-256 of fixed-argument CLI outputs, keyed by the argument string."""
    return json.loads((HERE / "golden.json").read_text())


@lru_cache(maxsize=None)
def _ref_r_star(n: int, m: int) -> Optional[float]:
    return ref.r_star(n, m)


def _check_bracket(n: int, m: int, r_star: Optional[float], width: float,
                   tol: float) -> Optional[str]:
    if r_star is None:
        if ref.p_zero(n, m, ref.half_spin_sectors(n, m)) > 1:
            return f"r*({n},{m}) reported absent but p(0) > 1"
        return None
    if not 0.0 <= width <= tol:
        return f"r*({n},{m}) bracket width {width} exceeds tol {tol}"
    lo, hi = r_star - width / 2, r_star + width / 2
    p_lo, p_hi = _half_spin_p(n, m, [lo, hi])
    if p_lo < 1 - SIGN_EPS or p_hi > 1 + SIGN_EPS:
        return f"r*({n},{m}): p-1 does not change sign on [{lo}, {hi}] ({p_lo - 1}, {p_hi - 1})"
    return None


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= CURVE_RTOL * np.maximum(1.0, np.abs(want))))


def _parse_csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _check_cli(query: dict, output: dict) -> Optional[str]:
    argv = query["argv"]
    text = output["text"]
    if output["rc"] != 0:
        return f"{' '.join(argv)} exited {output['rc']}"
    key = " ".join(argv)
    golden = _golden()
    if key in golden and hashlib.sha256(text.encode()).hexdigest() != golden[key]:
        return f"{key}: output differs from the golden digest"
    rows = _parse_csv(text)
    args = dict(zip(argv[1::2], argv[2::2]))
    command = argv[0]
    if command == "threshold":
        n, m = int(args["--n"]), int(args["--m"])
        want = _ref_r_star(n, m)
        got = rows[1][2]
        if want is None:
            return None if got == "none" else f"{key}: expected none, got {got}"
        if got == "none" or abs(float(got) - want) > 1e-6:
            return f"{key}: r* {got} vs reference {want}"
    elif command == "mstar":
        n = int(args["--n"])
        want = ref.m_star(n)
        expect = ">=200" if want is None or want >= 200 else str(want)
        if rows[1] != [str(n), expect]:
            return f"{key}: got {rows[1]}, expected {expect}"
    elif command == "optimal-map":
        n, m = int(args["--n"]), int(args["--m"])
        expect = [["input_spin", "output_spin", "coupled_spin"]] + [
            [ref.spin_label(dl), ref.spin_label(dj), ref.spin_label(dJ)]
            for dl, dj, dJ in ref.half_spin_sectors(n, m)
        ]
        if rows != expect:
            return f"{key}: rows do not follow the half-output-spin rule"
    elif command in ("scaling", "figure2"):
        # Columns [panel,] n, m, r, r_prime, p; checked one (n, m) curve at a time.
        table = np.array([row[-5:] for row in rows[1:]], dtype=float)
        for n, m in sorted({(int(a), int(b)) for a, b in table[:, :2]}):
            curve = table[(table[:, 0] == n) & (table[:, 1] == m)]
            p_ref = _half_spin_p(n, m, curve[:, 2])
            if not (_close(curve[:, 4], p_ref) and _close(curve[:, 3], curve[:, 2] * p_ref)):
                return f"{key}: curve {n}->{m} differs from the reference"
    elif command == "figure3":
        for row in rows[1:]:
            n = int(row[0])
            adjacent = _ref_r_star(n, n + 1)
            if adjacent is None:
                if row[1:] != ["none", "none"]:
                    return f"{key}: row {row} should read none"
                continue
            if abs(float(row[1]) - (1 - adjacent)) > 1e-6:
                return f"{key}: adjacent gap {row[1]} vs reference {1 - adjacent}"
            finite = ref.m_star(n)
            if finite is not None and finite > n:
                if abs(float(row[2]) - (1 - _ref_r_star(n, finite))) > 1e-6:
                    return f"{key}: maximal gap {row[2]} at M*={finite}"
    return None


def _bloch(marginal: list[float]) -> tuple[np.ndarray, float]:
    """Bloch vector and trace of a 2x2 marginal sent as its four real parts."""
    re00, re01, im01, re11 = marginal
    return np.array([2 * re01, -2 * im01, re00 - re11]), re00 + re11


def check(query: dict, output: dict) -> Optional[str]:
    """None when ``output`` is the right answer to ``query``, else why not."""
    kind = query["kind"]
    if kind == "r_star":
        tol = query["tol"] if query["tol"] is not None else 1e-6
        return _check_bracket(query["n"], query["m"], output["r_star"], output["width"], tol)
    if kind == "curve_p":
        if len(output["p"]) != len(query["r"]):
            return f"{len(output['p'])} values of p for {len(query['r'])} points"
        want = _half_spin_p(query["n"], query["m"], query["r"])
        if not _close(output["p"], want):
            worst = float(np.max(np.abs(np.asarray(output["p"]) - want)))
            return f"p on {query['n']}->{query['m']} off the reference by up to {worst:.3e}"
        return None
    if kind == "cli":
        return _check_cli(query, output)
    if kind == "verify":
        if output["ok"] == query["fault"]:
            state = "faulted" if query["fault"] else "clean"
            return f"verify on a {state} map reported ok={output['ok']}: {output['failures']}"
        if query["fault"] and "choi_trace_preserving" not in output["failures"]:
            return f"fault went undetected by the trace check: {output['failures']}"
        return None
    if kind == "build_choi":
        if abs(output["trace"] - 2 ** query["n"]) > 1e-9 * 2 ** query["n"]:
            return f"Choi trace {output['trace']} != 2^{query['n']}"
        return None
    if kind == "apply":
        sectors = [tuple(s) for s in query["sectors"]]
        want = ref.r_prime(query["n"], query["m"], sectors, query["r"])
        bloch, trace = _bloch(output["marginal"])
        err = np.max(np.abs(bloch - want * np.asarray(query["axis"])))
        if err > 1e-9 or abs(trace - 1.0) > 1e-12:
            return f"marginal Bloch vector off by {err:.3e} (trace {trace})"
        return None
    return f"unknown query kind {kind}"
