"""Per-layer spans and counters for a traced worker pass.

The package is not instrumented.  :func:`install` replaces each layer's
public functions at the place where the calling module looks them up (for
example ``analysis.cg_square``, ``oracle.cg``, ``thresholds.scaling_profile``,
``ScalingProfile.p``, ``BlochCurve.__init__``, ``oracle.build_choi`` and
``numpy.linalg.eigvalsh``) with a wrapper that records a span.  Spans nest
through a stack; a layer's time is its self time, the span's duration minus
the durations of the spans directly inside it.  Spans and totals stay in
memory and are returned once, at the end of the pass.

A lookup site that a later version of the package no longer has is skipped,
and the metrics it feeds read 0.
"""

from __future__ import annotations

import functools
import os
import resource
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

import numpy as np

import reference
from superbroadcast import analysis, channels, cli, oracle, thresholds

Hook = Callable[[Any, tuple, dict, Any], None]


def _current_rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * resource.getpagesize()
    except OSError:
        return 0


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    def __init__(self) -> None:
        # Open spans, innermost last: [name, start, time covered by children].
        self.stack: list[list] = []
        self.open_spans: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: defaultdict = defaultdict(float)
        self.root_s = 0.0

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        after: Optional[Hook] = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``; hooks see arguments and result."""
        stack, open_spans = self.stack, self.open_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            open_spans[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
                open_spans[name] -= 1
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    self.root_s += duration
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return traced

    def count_calls(self, counter: str, fn: Callable) -> Callable:
        """``fn`` counted under ``counter``, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks --------------------------------------------------------------

    def _rss_before(self, args, kwargs):
        return _current_rss_bytes()

    def _rss_after(self, before, args, kwargs, result):
        growth = max(0, _peak_rss_bytes() - before) / 2**20
        self.peaks["extremal_count_rss_mb"] = max(self.peaks["extremal_count_rss_mb"], growth)

    def _builds_before(self, args, kwargs):
        return self.counts["curve_builds"]

    def _profile_after(self, builds_before, args, kwargs, result):
        self.counts["profile_calls"] += 1
        if self.counts["curve_builds"] > builds_before:
            self.counts["profile_builds"] += 1

    def _curve_built(self, token, args, kwargs, result):
        self.counts["curve_builds"] += 1
        self.counts["curve_coeffs"] += int(np.size(getattr(args[0], "_coeff", ())))

    def _curve_eval_before(self, args, kwargs):
        # Only the outermost evaluation counts points (ScalingProfile.p calls
        # BlochCurve.p, which calls BlochCurve.r_prime).
        if self.open_spans["analysis.curve_eval"]:
            return
        r = args[1] if len(args) > 1 else kwargs.get("r")
        points = 1 if r is None else int(np.size(r))
        self.counts["curve_points"] += points
        if self.open_spans["thresholds.r_star"] and r is not None and np.ndim(r) == 0:
            self.counts["bisect_evals"] += 1
        elif self.open_spans["thresholds.r_star"] or self.open_spans["thresholds.m_star"]:
            self.counts["scan_points"] += points

    def _enumerated(self, token, args, kwargs, result):
        self.counts["maps_enumerated"] += len(result)

    def _searched(self, token, args, kwargs, result):
        if getattr(result, "exhaustive", False):
            self.counts["argmax_candidates"] += result.candidates
            # What a per-sector argmax would score: every (j, J) choice once.
            choices = reference.sector_choices(args[0], args[1])
            self.counts["argmax_sector_choices"] += sum(len(c) for c in choices)

    def _choi_built(self, token, args, kwargs, result):
        self.counts["choi_bytes"] += int(result.nbytes)

    def _cli_written(self, token, args, kwargs, result):
        argv = list(args[0]) if args else []
        if "--out" in argv:
            self.counts["bytes_out"] += os.path.getsize(argv[argv.index("--out") + 1])

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        s, calls, c = self.self_s, self.calls, self.counts
        profile_calls = c["profile_calls"]
        candidates = c["argmax_candidates"]
        return {
            "su2core.cg_calls": calls["su2core.cg"],
            "su2core.cg_s": s["su2core.cg"],
            "su2core.cg_square_calls": calls["su2core.cg_square"],
            "su2core.cg_square_s": s["su2core.cg_square"],
            "su2core.coupled_range_calls": calls["su2core.coupled_range"],
            "su2core.coupled_range_s": s["su2core.coupled_range"],
            "channels.extremal_count_s": s["channels.extremal_count"],
            "channels.extremal_count_rss_mb": self.peaks["extremal_count_rss_mb"],
            "channels.enumerate_s": s["channels.enumerate"],
            "channels.maps_enumerated": c["maps_enumerated"],
            "channels.coefficients_s": s["channels.coefficients"],
            "analysis.profile_calls": profile_calls,
            "analysis.curve_builds": c["curve_builds"],
            "analysis.profile_reuse_ratio": (
                1.0 - c["profile_builds"] / profile_calls if profile_calls else 0.0
            ),
            "analysis.curve_build_s": s["analysis.curve_build"],
            "analysis.curve_coeffs": c["curve_coeffs"],
            "analysis.curve_points": c["curve_points"],
            "analysis.curve_eval_s": s["analysis.curve_eval"],
            "analysis.optimal_map_s": s["analysis.optimal_map"],
            "analysis.argmax_candidates": candidates,
            "analysis.argmax_useful_ratio": (
                c["argmax_sector_choices"] / candidates if candidates else 0.0
            ),
            "thresholds.r_star_calls": calls["thresholds.r_star"],
            "thresholds.r_star_s": s["thresholds.r_star"],
            "thresholds.scan_points": c["scan_points"],
            "thresholds.bisect_evals": c["bisect_evals"],
            "thresholds.m_star_s": s["thresholds.m_star"],
            "thresholds.m_walk_steps": c["m_walk_steps"],
            "thresholds.limiting_s": s["thresholds.limiting"],
            "oracle.schur_calls": calls["oracle.schur"],
            "oracle.schur_s": s["oracle.schur"],
            "oracle.projector_calls": calls["oracle.projector"],
            "oracle.projector_s": s["oracle.projector"],
            "oracle.choi_s": s["oracle.choi"],
            "oracle.choi_bytes": c["choi_bytes"],
            "oracle.eigvalsh_s": s["oracle.eigvalsh"],
            "oracle.verify_s": s["oracle.verify"],
            "oracle.apply_calls": calls["oracle.apply"],
            "oracle.apply_s": s["oracle.apply"],
            "oracle.partial_trace_s": s["oracle.partial_trace"],
            "cli.commands": calls["cli.main"],
            "cli.rows_s": s["cli.rows"],
            "cli.self_s": s["cli.main"],
            "cli.bytes_out": c["bytes_out"],
            "trace.root_s": self.root_s,
        }


def install() -> Tracer:
    """Wrap every lookup site; returns the tracer that collects the spans."""
    tracer = Tracer()
    t = tracer
    # (owner, attribute, span name, before hook, after hook)
    sites: list[tuple[Any, str, str, Any, Any]] = [
        (oracle, "cg", "su2core.cg", None, None),
        (analysis, "cg_square", "su2core.cg_square", None, None),
        (channels, "coupled_range", "su2core.coupled_range", None, None),
        (oracle, "coupled_range", "su2core.coupled_range", None, None),
        (analysis, "extremal_count", "channels.extremal_count", t._rss_before, t._rss_after),
        (channels, "extremal_count", "channels.extremal_count", t._rss_before, t._rss_after),
        (analysis, "enumerate_extremal", "channels.enumerate", None, t._enumerated),
        (channels, "coefficients_for", "channels.coefficients", None, None),
        (analysis, "coefficients_for", "channels.coefficients", None, None),
        (oracle, "coefficients_for", "channels.coefficients", None, None),
        (cli, "coefficients_for", "channels.coefficients", None, None),
        (analysis, "scaling_profile", "analysis.profile", t._builds_before, t._profile_after),
        (thresholds, "scaling_profile", "analysis.profile", t._builds_before, t._profile_after),
        (cli, "scaling_profile", "analysis.profile", t._builds_before, t._profile_after),
        (analysis.BlochCurve, "__init__", "analysis.curve_build", None, t._curve_built),
        (analysis, "optimal_map", "analysis.optimal_map", None, t._searched),
        (cli, "optimal_map", "analysis.optimal_map", None, t._searched),
        (thresholds, "r_star", "thresholds.r_star", None, None),
        (cli, "r_star", "thresholds.r_star", None, None),
        (thresholds, "m_star", "thresholds.m_star", None, None),
        (cli, "m_star", "thresholds.m_star", None, None),
        (thresholds, "limiting_threshold", "thresholds.limiting", None, None),
        (cli, "limiting_threshold", "thresholds.limiting", None, None),
        (oracle, "schur_isometry", "oracle.schur", None, None),
        (cli, "schur_isometry", "oracle.schur", None, None),
        (oracle, "projector_J", "oracle.projector", None, None),
        (oracle, "build_choi", "oracle.choi", None, t._choi_built),
        (np.linalg, "eigvalsh", "oracle.eigvalsh", None, None),
        (oracle, "verify_closed_form", "oracle.verify", None, None),
        (cli, "verify_closed_form", "oracle.verify", None, None),
        (oracle, "apply_channel", "oracle.apply", None, None),
        (oracle, "partial_trace", "oracle.partial_trace", None, None),
        (oracle, "single_copy_marginal", "oracle.partial_trace", None, None),
        (cli, "main", "cli.main", None, t._cli_written),
    ]
    for cls in (analysis.ScalingProfile, analysis.BlochCurve):
        for method in ("p", "r_prime", "p_zero", "report"):
            sites.append((cls, method, "analysis.curve_eval", t._curve_eval_before, None))
    for owner, attr, name, before, after in sites:
        fn = getattr(owner, attr, None)
        if callable(fn):
            setattr(owner, attr, tracer.wrap(name, fn, before, after))
    if hasattr(thresholds, "_has_superbroadcasting"):
        thresholds._has_superbroadcasting = tracer.count_calls(
            "m_walk_steps", thresholds._has_superbroadcasting
        )
    for command, builder in list(getattr(cli, "_BUILDERS", {}).items()):
        cli._BUILDERS[command] = tracer.wrap("cli.rows", builder)
    return tracer
