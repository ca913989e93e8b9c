"""Spans at scoutsim's module boundaries, recorded from outside the package.

Wrappers are installed on the name that callers actually look up: a module
attribute (``streams.raw64``, ``engine.hit_times``, ``engine.VectorSim.step``)
or a name another module imported (``renewal.fit_tail``,
``cli.analyze_protocol``).  Spans stay in memory as
``(name, start, end, parent, job, count)`` and are written once the run
ends.  A span's self time is its duration minus the time its child spans
cover; the layer of a span is the part of its name before the first dot.

The same wrappers keep the last result of the two functions whose result
a job's caller consumes without returning it (``engine.hit_times`` under
``monte_carlo_hitting_multi``, ``engine.meeting_gap_samples`` under
``meeting_tail``), so that the job's digest can cover it.  Those two are
installed in every run; the rest, and span recording, only when tracing.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from time import perf_counter

from scoutsim import analysis, cli, engine, protocol, renewal, streams, tails, walks

LAYERS = ("protocol", "streams", "engine", "tails", "renewal", "analysis",
          "walks", "cli")
# attribute naming the innermost layer an exception left
ORIGIN = "scoutsim_bench_layer"


def _horizon(args, kwargs):
    return args[1]  # run(p, horizon, seed)


def _active_replicas(args, kwargs):
    return args[0].n_active


def _size(out):
    return int(out.size)


# (owner, attribute, span name, count before the call, count from the result)
WRAPS = (
    (streams, "raw64", "streams.raw64", None, _size),
    (engine, "monte_carlo_hitting_multi", "engine.monte_carlo_hitting_multi", None, None),
    (engine, "hit_times", "engine.hit_times", None, None),
    (engine.VectorSim, "step", "engine.vectorsim_step", _active_replicas, None),
    (engine.VectorSim, "compact", "engine.compact", None, None),
    (engine, "run", "engine.run", _horizon, None),
    (engine, "first_meeting_times", "engine.meetings", None, None),
    (engine, "meeting_gap_samples", "engine.meetings", None, None),
    (engine, "summarize_censored", "tails.summarize_censored", None, None),
    (renewal, "fit_tail", "tails.fit_tail", None, None),
    (tails.SurvivalCurve, "from_samples", "tails.from_samples", None, None),
    (renewal, "extract_renewal", "renewal.extract", None, None),
    (renewal, "meeting_tail", "renewal.meeting_tail", None, None),
    (renewal, "divergence_report", "renewal.divergence", None, None),
    (analysis, "analyze_protocol", "analysis.analyze_protocol", None, None),
    (cli, "analyze_protocol", "analysis.analyze_protocol", None, None),
    (analysis, "difference_drift", "analysis.difference_drift", None, None),
    (analysis, "stationary_distribution", "analysis.stationary", None, None),
    (walks, "exact_dp_oracle", "walks.dp", None, None),
    (protocol, "parse_protocol", "protocol.parse", None, None),
    (protocol, "validate", "protocol.validate", None, None),
    (protocol, "protocol_hash", "protocol.hash", None, None),
    (engine, "protocol_hash", "protocol.hash", None, None),
    (renewal, "protocol_hash", "protocol.hash", None, None),
    (protocol, "builtin", "protocol.builtin", None, None),
    (cli, "builtin", "protocol.builtin", None, None),
    (cli, "main", "cli.main", None, None),
)
# attributes whose last result is kept for the job's digest, in every run
KEEP = ((engine, "hit_times"), (engine, "meeting_gap_samples"))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.errors: dict[str, int] = defaultdict(int)
        self.kept: dict[str, object] = {}
        self.tracing = False

    def wrap(self, name: str, attr: str, fn, pre=None, post=None, keep=False):
        spans, stack, kept = self.spans, self.stack, self.kept
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            if not self.tracing:
                out = fn(*args, **kwargs)
                if keep:
                    kept[attr] = out
                return out
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            count = pre(args, kwargs) if pre else 0
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if not hasattr(exc, ORIGIN):
                    setattr(exc, ORIGIN, layer)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, count)
            if post:
                spans[idx] = (name, start, end, parent, self.job, post(out))
            if keep:
                kept[attr] = out
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _install(self, kept_only: bool) -> None:
        for owner, attr, name, pre, post in WRAPS:
            keep = (owner, attr) in KEEP
            if keep != kept_only:
                continue
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(
                    self.wrap(name, attr, raw.__func__, pre, post, keep)))
            else:
                setattr(owner, attr, self.wrap(name, attr, raw, pre, post, keep))

    def install_capture(self) -> None:
        """Wrap only the functions whose results jobs keep; record no spans."""
        self._install(kept_only=True)

    def start_tracing(self) -> None:
        """Wrap every other boundary and record spans from now on."""
        self._install(kept_only=False)
        self.tracing = True

    def take(self, attr: str):
        """The last result of a kept function, once."""
        return self.kept.pop(attr)

    def job_failed(self, exc: BaseException) -> None:
        """Charge a job's exception to the layer it was first seen leaving."""
        layer = getattr(exc, ORIGIN, None)
        if layer is not None:
            self.errors[layer] += 1

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "job", "count"))
            out.writerows(self.spans)

    def layer_metrics(self, rounds: int, logical: dict[str, int],
                      scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round of the job list, from the spans.

        Times are multiplied, and rates divided, by ``scale``: the machine
        speed factor of calibrate.py, so that they compare with the scaled
        end-to-end times."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job, count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        for idx, (name, start, end, parent, job, count) in enumerate(self.spans):
            total_s[name] += (end - start) * scale
            self_s[name] += (end - start - child[idx]) * scale
            calls[name] += 1
            counts[name] += count
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        for name, value in self_s.items():
            layer_self[name.split(".", 1)[0]] += value
            layer_calls[name.split(".", 1)[0]] += calls[name]

        def ratio(a, b):
            return a / b if b else 0.0

        r = float(rounds)
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer] / r, "s")
            m[f"{layer}.errors"] = (self.errors[layer], "count")
        variates = counts["streams.raw64"]
        engine_s = layer_self["engine"] + layer_self["streams"]
        m.update({
            "streams.calls": (calls["streams.raw64"] / r, "count"),
            "streams.variates": (variates / r, "count"),
            "streams.variates_per_s": (ratio(variates, self_s["streams.raw64"]), "1/s"),
            "streams.variates_per_call": (ratio(variates, calls["streams.raw64"]), "count"),
            "streams.variates_per_scout_step": (ratio(variates, logical["scout_steps"]), "ratio"),
            "engine.hit_times.self_s": (self_s["engine.hit_times"] / r, "s"),
            "engine.vectorsim_step.self_s": (self_s["engine.vectorsim_step"] / r, "s"),
            "engine.vectorsim_step.calls": (calls["engine.vectorsim_step"] / r, "count"),
            "engine.replica_steps": (counts["engine.vectorsim_step"] / r, "count"),
            "engine.compactions": (calls["engine.compact"] / r, "count"),
            "engine.useful_step_ratio": (ratio(logical["vectorsim_replica_steps"],
                                               counts["engine.vectorsim_step"]), "ratio"),
            "engine.run.self_s": (self_s["engine.run"] / r, "s"),
            "engine.run.steps_per_s": (ratio(counts["engine.run"], total_s["engine.run"]), "1/s"),
            "engine.meetings.self_s": (self_s["engine.meetings"] / r, "s"),
            "engine.replica_steps_per_s": (ratio(logical["replica_steps"], engine_s), "1/s"),
            "renewal.extract.self_s": (self_s["renewal.extract"] / r, "s"),
            "renewal.meetings": (logical["meetings"] / r, "count"),
            "renewal.meetings_per_s": (ratio(logical["meetings"],
                                             total_s["renewal.extract"]), "1/s"),
            "renewal.divergence.self_s": (self_s["renewal.divergence"] / r, "s"),
            "tails.calls": (layer_calls["tails"] / r, "count"),
            "analysis.stationary.self_s": (self_s["analysis.stationary"] / r, "s"),
            "analysis.stationary_solves": (calls["analysis.stationary"] / r, "count"),
            "analysis.product_states": (logical["product_states"] / r, "count"),
            "walks.dp.self_s": (self_s["walks.dp"] / r, "s"),
            "walks.dp_cells": (logical["dp_cells"] / r, "count"),
            "walks.dp_cells_per_s": (ratio(logical["dp_cells"], total_s["walks.dp"]), "1/s"),
            "protocol.calls": (layer_calls["protocol"] / r, "count"),
            "cli.output_bytes": (logical["output_bytes"] / r, "bytes"),
        })
        return m


TRACER = Tracer()
