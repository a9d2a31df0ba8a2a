"""One pass of a workload in a fresh interpreter.

Started by :mod:`run` with ``src`` on ``PYTHONPATH``.  Protocol, one JSON
object per line: the worker imports the package and writes ``ready``; the
parent then sends one query at a time and waits for its result (a closed
loop with a single client); ``done`` ends the pass, and the worker answers
with its peak resident set and, when traced, the per-layer totals.

With ``--trace`` the worker installs the wrappers of :mod:`tracing` after
the import; without it nothing is wrapped.
"""

import json
import resource
import sys
import time
from fractions import Fraction

# The import of the package is what set-up time measures, so it comes first.
import superbroadcast  # noqa: F401
from superbroadcast import analysis, channels, cli, oracle, thresholds
from superbroadcast.su2core import HalfInt


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _emap(query):
    sectors = query["sectors"]
    return channels.ExtremalMap(
        query["n"],
        query["m"],
        tuple(HalfInt(dj) for _, dj, _ in sectors),
        tuple(HalfInt(dJ) for _, _, dJ in sectors),
    )


class Runner:
    """Executes queries; ``run`` returns (seconds spent in the library, output)."""

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir
        self.chois = {}

    def run(self, query):
        handler = getattr(self, "q_" + query["kind"])
        return handler(query)

    def q_r_star(self, query):
        kwargs = {} if query["tol"] is None else {"tol": query["tol"]}
        start = time.perf_counter()
        result = thresholds.r_star(query["n"], query["m"], **kwargs)
        elapsed = time.perf_counter() - start
        return elapsed, {"r_star": result.r_star, "width": result.bracket_width}

    def q_curve_p(self, query):
        start = time.perf_counter()
        values = analysis.scaling_profile(query["n"], query["m"]).p(query["r"])
        elapsed = time.perf_counter() - start
        return elapsed, {"p": [float(v) for v in values]}

    def q_cli(self, query):
        path = f"{self.scratch_dir}/q{query['id']}.csv"
        start = time.perf_counter()
        rc = cli.main(query["argv"] + ["--out", path])
        elapsed = time.perf_counter() - start
        with open(path) as handle:
            text = handle.read()
        return elapsed, {"rc": rc, "text": text}

    def q_verify(self, query):
        emap = _emap(query)
        n, m = query["n"], query["m"]
        start = time.perf_counter()
        coefficients = None
        if query["fault"]:
            # The corruption the CLI's --inject-fault applies.
            coefficients = channels.coefficients_for(emap)
            key = next(iter(coefficients.weights))
            weights = dict(coefficients.weights)
            weights[key] = weights[key] * Fraction(101, 100)
            coefficients = channels.ChannelCoeffs(n, m, weights)
        report = oracle.verify_closed_form(
            n, m, emap, seed=query["seed"], coefficients=coefficients
        )
        elapsed = time.perf_counter() - start
        return elapsed, {"ok": report.ok, "failures": [c.name for c in report.failures()]}

    def q_build_choi(self, query):
        emap = _emap(query)
        start = time.perf_counter()
        choi = oracle.build_choi(channels.coefficients_for(emap))
        elapsed = time.perf_counter() - start
        self.chois[query["key"]] = choi
        return elapsed, {"trace": float(choi.trace())}

    def q_apply(self, query):
        choi = self.chois[query["key"]]
        start = time.perf_counter()
        rho_in = oracle.product_input(query["n"], query["r"], query["axis"])
        rho_out = oracle.apply_channel(choi, rho_in)
        marginal = oracle.single_copy_marginal(rho_out, query["which"])
        elapsed = time.perf_counter() - start
        return elapsed, {
            "marginal": [
                float(marginal[0, 0].real),
                float(marginal[0, 1].real),
                float(marginal[0, 1].imag),
                float(marginal[1, 1].real),
            ]
        }


def main(argv) -> int:
    trace = "--trace" in argv
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    _send({"ready": True})
    runner = Runner(argv[argv.index("--scratch") + 1])
    while True:
        query = json.loads(sys.stdin.readline())
        if query.get("done"):
            break
        try:
            elapsed, output = runner.run(query)
        except Exception as exc:  # reported back as a failed query
            _send({"id": query["id"], "error": f"{type(exc).__name__}: {exc}"})
            continue
        _send({"id": query["id"], "latency_s": elapsed, "output": output})
    final = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["trace"] = tracer.totals()
    _send(final)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
