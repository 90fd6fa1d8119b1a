"""Outside-in span recorder for the ris_lab benchmark.

The recorder wraps the public functions of each ris_lab module at the
binding its caller looks up (``from ... import`` copies a function into
the importing module, so the wrapper goes on ``ris_lab.montecarlo.
sample_realizations``, not on ``ris_lab.geometry``). Nothing inside
``ris_lab`` is edited.

Spans are kept per thread. Work submitted to the Monte Carlo thread pool
is parented to the span that was open on the submitting thread, so a
span's self time is its duration minus the union of its children's
intervals, wherever those children ran. ``busy_s`` sums span durations
over all threads.
"""
from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = "cli.main"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    blocks: int = 0


class Recorder:
    """Thread-aware span store; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self.pools: list[tuple[float, int]] = []   # (open seconds, max workers)
        self.pool_task_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost span open on this thread (or adopted by it)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, blocks: int = 0) -> Span:
        t0 = time.perf_counter()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, self.current(), name, threading.get_ident(), 0.0, blocks=blocks)
        self._stack().append(sid)
        span.start = time.perf_counter()
        self._add_overhead(span.start - t0)
        return span

    def close(self, span: Span) -> None:
        span.end = t0 = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)
        self._add_overhead(time.perf_counter() - t0)

    def _add_overhead(self, seconds: float) -> None:
        with self._lock:
            self.overhead_s += seconds

    def adopt(self, parent: int | None, fn):
        """Wrap ``fn`` so spans it opens on another thread get ``parent``."""
        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                with self._lock:
                    self.pool_task_s += elapsed
        return run

    def wrap(self, name: str, fn, blocks=None):
        """Record a span named ``name`` around every call of ``fn``.

        ``blocks(args, kwargs)``, if given, returns the work count of a call.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, blocks(args, kwargs) if blocks else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def pool_class(self):
        """ThreadPoolExecutor subclass that parents tasks and times pool lifetime."""
        recorder = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._opened = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(recorder.adopt(recorder.current(), fn),
                                      *args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                with recorder._lock:
                    recorder.pools.append((time.perf_counter() - self._opened,
                                           self._max_workers))

        return TracedPool


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.sid, ())]
        covered = [iv for iv in covered if iv[1] > iv[0]]
        out[s.sid] = (s.end - s.start) - _union_length(covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, busy_s (sum of durations), self_s, blocks."""
    selfs = self_times(spans)
    agg: dict = {}
    for s in spans:
        a = agg.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "blocks": 0})
        a["calls"] += 1
        a["busy_s"] += s.end - s.start
        a["self_s"] += selfs[s.sid]
        a["blocks"] += s.blocks
    return agg


# --------------------------------------------------------------------------
# ris_lab instrumentation
# --------------------------------------------------------------------------

def _n_draws(args, kwargs):
    return int(kwargs["n_draws"] if "n_draws" in kwargs else args[2])


def _batch(args, kwargs):
    return int((kwargs["h_hat"] if "h_hat" in kwargs else args[0]).shape[0])


# (module holding the caller's binding, attribute, span name, work counter)
_FUNCTIONS = [
    ("experiments", "build_setup", "experiments.build_setup", None),
    ("experiments", "build_ris_correlation", "geometry.build_ris_correlation", None),
    ("experiments", "build_channel_statistics", "geometry.build_channel_statistics", None),
    ("geometry", "herm_sqrt", "linalg.herm_sqrt", None),
    ("montecarlo", "sample_realizations", "geometry.sample_realizations", _n_draws),
    ("montecarlo", "simulate_pilot_phase", "estimation.simulate_pilot_phase", None),
    ("montecarlo", "null_space_an_batch", "precoding.null_space_an_batch", _batch),
    ("experiments", "estimate_user_rate", "montecarlo.estimate_user_rate", None),
    ("experiments", "estimate_eve_capacity", "montecarlo.estimate_eve_capacity", None),
    ("experiments", "estimate_nmse", "montecarlo.estimate_nmse", None),
    ("experiments", "secrecy_rate", "rates.secrecy_rate", None),
    ("experiments", "compute_rate_terms", "rates.compute_rate_terms", None),
    ("rates", "compute_rate_terms", "rates.compute_rate_terms", None),
    ("experiments", "emit_csv", "experiments.emit_csv", None),
    ("experiments", "write_manifest", "experiments.write_manifest", None),
]

# methods are looked up on the class, so they are wrapped there
_METHODS = [
    ("estimation", "ChannelEstimator", "__init__", "estimation.ChannelEstimator"),
    ("estimation", "ChannelEstimator", "estimate", "estimation.ChannelEstimator.estimate"),
]


def install(recorder: Recorder) -> None:
    """Wrap every traced ris_lab binding; raises if one has gone missing."""
    import importlib

    t0 = time.perf_counter()
    for module, attr, name, blocks in _FUNCTIONS:
        mod = importlib.import_module(f"ris_lab.{module}")
        setattr(mod, attr, recorder.wrap(name, getattr(mod, attr), blocks))
    for module, cls_name, attr, name in _METHODS:
        cls = getattr(importlib.import_module(f"ris_lab.{module}"), cls_name)
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr)))
    montecarlo = importlib.import_module("ris_lab.montecarlo")
    if montecarlo.ThreadPoolExecutor is not ThreadPoolExecutor:
        raise RuntimeError("ris_lab.montecarlo no longer uses ThreadPoolExecutor")
    montecarlo.ThreadPoolExecutor = recorder.pool_class()
    recorder.overhead_s += time.perf_counter() - t0


# Per-layer metrics reported by a traced run: (metric, span name, field).
LAYER_FIELDS = [
    ("experiments.build_setup.self_s", "experiments.build_setup", "self_s"),
    ("experiments.build_setup.calls", "experiments.build_setup", "calls"),
    ("geometry.build_ris_correlation.self_s", "geometry.build_ris_correlation", "self_s"),
    ("geometry.build_channel_statistics.self_s", "geometry.build_channel_statistics", "self_s"),
    ("linalg.herm_sqrt.self_s", "linalg.herm_sqrt", "self_s"),
    ("linalg.herm_sqrt.calls", "linalg.herm_sqrt", "calls"),
    ("estimation.ChannelEstimator.self_s", "estimation.ChannelEstimator", "self_s"),
    ("estimation.ChannelEstimator.calls", "estimation.ChannelEstimator", "calls"),
    ("geometry.sample_realizations.busy_s", "geometry.sample_realizations", "busy_s"),
    ("geometry.sample_realizations.calls", "geometry.sample_realizations", "calls"),
    ("geometry.sample_realizations.blocks", "geometry.sample_realizations", "blocks"),
    ("estimation.simulate_pilot_phase.busy_s", "estimation.simulate_pilot_phase", "busy_s"),
    ("estimation.ChannelEstimator.estimate.busy_s",
     "estimation.ChannelEstimator.estimate", "busy_s"),
    ("precoding.null_space_an_batch.busy_s", "precoding.null_space_an_batch", "busy_s"),
    ("precoding.null_space_an_batch.blocks", "precoding.null_space_an_batch", "blocks"),
    ("montecarlo.estimate_user_rate.self_s", "montecarlo.estimate_user_rate", "self_s"),
    ("montecarlo.estimate_eve_capacity.self_s", "montecarlo.estimate_eve_capacity", "self_s"),
    ("montecarlo.estimate_nmse.self_s", "montecarlo.estimate_nmse", "self_s"),
    ("rates.secrecy_rate.self_s", "rates.secrecy_rate", "self_s"),
    ("rates.secrecy_rate.calls", "rates.secrecy_rate", "calls"),
    ("rates.compute_rate_terms.self_s", "rates.compute_rate_terms", "self_s"),
    ("rates.compute_rate_terms.calls", "rates.compute_rate_terms", "calls"),
    ("experiments.emit_csv.self_s", "experiments.emit_csv", "self_s"),
    ("experiments.write_manifest.self_s", "experiments.write_manifest", "self_s"),
]


def layer_metrics(recorder: Recorder, blocks_requested: int) -> dict:
    """Flat per-layer metrics from a finished traced run.

    ``blocks_requested`` is the Monte Carlo budget the CSV asked for
    (rows x blocks per row); blocks drawn by the sampler are divided by it.
    """
    agg = summarize(recorder.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "blocks": 0}
    out = {metric: agg.get(span, empty)[fld] for metric, span, fld in LAYER_FIELDS}
    drawn = agg.get("geometry.sample_realizations", empty)["blocks"]
    out["montecarlo.blocks_requested"] = blocks_requested
    out["montecarlo.blocks_drawn_per_requested"] = drawn / blocks_requested
    capacity = sum(seconds * workers for seconds, workers in recorder.pools)
    out["montecarlo.pool_busy_ratio"] = recorder.pool_task_s / capacity if capacity else 0.0
    root = agg[ROOT]
    out["trace.wall_s"] = root["busy_s"]
    out["trace.coverage"] = 1.0 - root["self_s"] / root["busy_s"] if root["busy_s"] else 0.0
    out["trace.overhead_s"] = recorder.overhead_s
    return out
