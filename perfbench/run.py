#!/usr/bin/env python3
"""Benchmark of the superbroadcast package: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src`` in a
fresh worker interpreter per pass (see ``worker.py``), so caches and lazy
set-up start cold as they do for a command-line user.  The parent generates
the seeded queries, feeds them to the worker one at a time (one client,
closed loop), times them, and checks every output against ``reference.py``
and the golden digests.  Passes repeat until the run is closest to
``--seconds``; figures are medians over passes, and set-up and first-result
times also take in short probe launches that answer only the first query.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  The last line of
standard output is the result object; the line before it is the full record
with provenance and sample counts.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import queue  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "superbroadcast"

# One BLAS thread for the worker and the parent: at most nproc, and a closed
# loop with a single client gains nothing from more but run-to-run noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Before each untraced pass, this many fresh workers answer only the first
# query: more set-up and first-result samples, spread over the whole run.
PROBES_PER_PASS = 2
# Whole-run limit: a run that gets here is reported as failed, not hung.
RUN_DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A worker interpreter and a thread that reads its result lines."""

    def __init__(self, flags: list[str], deadline: float, log_path: Path):
        self.deadline = deadline
        self.log = open(log_path, "w")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *flags],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=worker_env(),
            cwd=ROOT,
            text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def receive(self) -> tuple[float, dict]:
        timeout = self.deadline - time.perf_counter()
        try:
            line = self.lines.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            raise BenchmarkError("run deadline exceeded") from None
        if line is None:
            self.log.flush()
            tail = Path(self.log.name).read_text()[-2000:]
            raise BenchmarkError(f"worker exited early:\n{tail}")
        return time.perf_counter(), json.loads(line)

    def send(self, obj: dict) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)
        self.log.close()


def run_pass(queries: list[dict], traced: bool, deadline: float, scratch: Path) -> dict:
    """One fresh worker through the whole query list."""
    flags = ["--scratch", str(scratch)] + (["--trace"] if traced else [])
    worker = Worker(flags, deadline, scratch / "worker.log")
    try:
        ready_at, _ = worker.receive()
        results = []
        first_sent = time.perf_counter()
        received = first_sent
        for query in queries:
            worker.send(query)
            received, reply = worker.receive()
            results.append(reply)
            if len(results) == 1:
                first_result = received - worker.launched
        worker.send({"done": True})
        _, final = worker.receive()
    finally:
        worker.close()
    return {
        "traced": traced,
        "setup_s": ready_at - worker.launched,
        "first_result_s": first_result,
        "wall_s": received - first_sent,
        "duration_s": time.perf_counter() - worker.launched,
        "results": results,
        "peak_rss_mb": final["peak_rss_kb"] / 1024.0,
        "trace": final.get("trace"),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no package source under {PACKAGE} or no {spec_path.name}: nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    import numpy  # after the BLAS thread pinning above

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    queries = workloads.generate(args.workload, args.seed)

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        passes: list[dict] = []
        probes: list[dict] = []
        measure_start = time.perf_counter()
        while True:
            untraced = [p for p in passes if not p["traced"]]
            traced_passes = [p for p in passes if p["traced"]]
            want_traced = bool(args.trace) and len(traced_passes) < len(untraced)
            enough = untraced and (traced_passes or not args.trace)
            if enough:
                # Stop where the run ends closest to --seconds.
                typical = statistics.median(p["duration_s"] for p in passes)
                if time.perf_counter() - measure_start + typical / 2 > args.seconds:
                    break
            if not want_traced:
                probes += [run_pass(queries[:1], False, deadline, scratch)
                           for _ in range(PROBES_PER_PASS)]
            passes.append(run_pass(queries, want_traced, deadline, scratch))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    # -- checks -------------------------------------------------------------
    attempted = failed = 0
    failures: list[str] = []
    verdicts: dict[tuple, str | None] = {}
    for p in passes + probes:
        for query, reply in zip(queries, p["results"]):
            attempted += 1
            if "error" in reply:
                problem = reply["error"]
            else:
                key = (query["id"], json.dumps(reply["output"], sort_keys=True))
                if key not in verdicts:
                    verdicts[key] = workloads.check(query, reply["output"])
                problem = verdicts[key]
            if problem is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"query {query['id']}: {problem}")

    # -- metrics ------------------------------------------------------------
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    latencies = [r["latency_s"] for p in untraced for r in p["results"] if "latency_s" in r]
    launches = untraced + probes
    wall = statistics.median(p["wall_s"] for p in untraced)
    end_to_end = {
        "setup_s": (statistics.median(p["setup_s"] for p in launches), len(launches)),
        "first_result_s": (statistics.median(p["first_result_s"] for p in launches), len(launches)),
        "wall_s": (wall, len(untraced)),
        "query_p50_ms": (1e3 * statistics.median(latencies), len(latencies)),
        "query_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[-1], len(latencies)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), len(untraced)),
        "success_rate": (1.0 - failed / attempted, attempted),
    }
    per_layer: dict[str, float] = {}
    if traced_passes:
        names = traced_passes[0]["trace"]
        per_layer = {
            name: statistics.median(p["trace"][name] for p in traced_passes)
            for name in names if name != "trace.root_s"
        }
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        per_layer["trace.overhead_s"] = traced_wall - wall
        per_layer["trace.coverage_ratio"] = statistics.median(
            p["trace"]["trace.root_s"] / p["wall_s"] for p in traced_passes
        )

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else {k: v for k, (v, _) in end_to_end.items()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark does not produce {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": args.seed,
            "queries_per_pass": len(queries),
            "passes_untraced": len(untraced),
            "passes_traced": len(traced_passes),
            "first_query_probes": len(probes),
            "loop": "closed, one client",
        },
        "end_to_end": {
            name: {"value": value, "unit": units[name], "samples": samples}
            for name, (value, samples) in end_to_end.items()
        },
        "pass_samples": {
            name: [round(p[name], 6) for p in untraced]
            for name in ("setup_s", "first_result_s", "wall_s", "peak_rss_mb")
        },
        "probe_samples": {
            name: [round(p[name], 6) for p in probes] for name in ("setup_s", "first_result_s")
        },
        "error_rate": failed / attempted,
        "failures": failures,
        "run_s": time.perf_counter() - started,
    }
    if args.workload == "cli-tables":
        record["revisit_share"] = workloads.revisit_share(queries)
    if args.trace:
        record["per_layer"] = per_layer
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
