"""Traced-run instrumentation: spans around the program's layer calls.

:class:`LayerTracer` wraps public entry points of each layer with spans
recorded into the program's own process-wide tracer
(:mod:`repro.telemetry.trace`).  Using that tracer, rather than a
private one, is what carries spans out of process-backend shard
children: a forked child inherits the patched classes and the enabled
tracer, and ships its buffer back in its ``done`` message, where the
service re-ingests it.

:func:`layer_metrics` turns the recorded spans into the per-layer
metrics.  A layer's busy time is its *self* time: the span's duration
minus the spans of other layers nested inside it (found by walking
parent ids through any of the program's own spans in between), so the
layers add up instead of double counting.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from stats import quantile, ratio

__all__ = ["PREFIX", "LayerTracer", "layer_metrics", "self_times"]

#: Name prefix of every span this benchmark records; the program's own
#: spans (``shard.block``, ``kernel.bounds``...) carry no prefix.
PREFIX = "pb."

#: Ring capacity for a traced run: a stream run records a few tens of
#: thousands of spans; the program's default ring (65536) could evict.
TRACE_CAPACITY = 1 << 19


def _spanned(layer: str, fn):
    name = PREFIX + layer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        from repro.telemetry import trace

        with trace.span(name):
            return fn(*args, **kwargs)

    return wrapper


class LayerTracer:
    """Install (and later remove) the span wrappers."""

    def __init__(self):
        self._saved: list[tuple[type, str, object, bool]] = []

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _method(self, owner, attr: str, layer: str) -> None:
        self._set(owner, attr, _spanned(layer, getattr(owner, attr)))

    def _classmethod(self, owner, attr: str, layer: str) -> None:
        raw = vars(owner)[attr]
        self._set(owner, attr, classmethod(_spanned(layer, raw.__func__)))

    def install(self) -> None:
        from repro.data.snapshot import MarketSnapshot
        from repro.data.synthetic import SyntheticMarketGenerator
        from repro.engine.core import EvaluationEngine, LoopUniverse
        from repro.market import BatchEvaluator, MarketArrays, SharedMarketArrays
        from repro.replay import apply as replay_apply
        from repro.replay.log import MarketEventLog
        from repro.service import worker as service_worker
        from repro.service.book import OpportunityBook
        from repro.service.pipeline import OpportunityService
        from repro.strategies import (
            ConvexOptimizationStrategy,
            MaxMaxStrategy,
            MaxPriceStrategy,
            TraditionalStrategy,
        )

        self._method(SyntheticMarketGenerator, "generate", "data.generate")
        self._classmethod(MarketSnapshot, "load", "data.load")
        self._classmethod(MarketEventLog, "load", "data.load")
        self._method(LoopUniverse, "__init__", "graph.enumerate")
        self._classmethod(MarketArrays, "from_registry", "market.compile")
        self._method(SharedMarketArrays, "__init__", "market.compile")
        self._method(BatchEvaluator, "__init__", "market.compile")
        self._method(OpportunityService, "__init__", "service.init")
        # the process backend forks its shard children inside run():
        # that spawn is set-up work, attributed to service.init
        self._method(service_worker.ProcessShardPool, "start", "service.init")
        self._method(service_worker.ProcessShardPool, "submit", "service.ipc.submit")
        self._method(OpportunityBook, "apply", "service.book")
        # imported by name into the worker module, so both bindings
        for module in (replay_apply, service_worker):
            self._set(
                module,
                "apply_block_events",
                _spanned("replay.apply", module.apply_block_events),
            )
        self._set(
            SharedMarketArrays,
            "write_block",
            _traced_write_block(SharedMarketArrays.write_block),
        )
        self._set(
            BatchEvaluator,
            "monetized_bounds",
            _traced_bounds(BatchEvaluator.monetized_bounds),
        )
        self._set(
            BatchEvaluator, "evaluate_many", _traced_quote(BatchEvaluator.evaluate_many)
        )
        self._set(
            BatchEvaluator, "evaluate_top_k", _traced_top_k(BatchEvaluator.evaluate_top_k)
        )
        for strategy in (MaxMaxStrategy, MaxPriceStrategy, TraditionalStrategy):
            self._method(strategy, "evaluate_cached", "strategies.scalar")
        self._set(
            ConvexOptimizationStrategy,
            "evaluate_cached",
            _traced_convex(ConvexOptimizationStrategy.evaluate_cached),
        )
        self._set(
            EvaluationEngine, "sweep_results", _traced_grid(EvaluationEngine.sweep_results)
        )
        for shard_worker in (service_worker.ShardWorker, service_worker.SharedShardWorker):
            self._set(
                shard_worker,
                "process_block",
                _traced_shard(shard_worker.process_block),
            )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value, had = self._saved.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def _traced_write_block(original):
    @contextmanager
    def write_block(self):
        from repro.telemetry import trace

        with trace.span(PREFIX + "market.shm.write"):
            with original(self):
                yield

    return write_block


def _traced_bounds(original):
    @functools.wraps(original)
    def monetized_bounds(self, *args, **kwargs):
        from repro.telemetry import trace

        with trace.span(PREFIX + "market.bounds") as sp:
            out = original(self, *args, **kwargs)
            sp.set(rows=len(out))
        return out

    return monetized_bounds


def _traced_quote(original):
    @functools.wraps(original)
    def evaluate_many(self, *args, **kwargs):
        from repro.telemetry import trace

        stats = self.stats
        kernel0, scalar0 = stats.kernel_loops, stats.scalar_loops
        with trace.span(PREFIX + "market.quote") as sp:
            out = original(self, *args, **kwargs)
            sp.set(
                rows=len(out),
                kernel=stats.kernel_loops - kernel0,
                scalar=stats.scalar_loops - scalar0,
            )
        return out

    return evaluate_many


def _traced_top_k(original):
    @functools.wraps(original)
    def evaluate_top_k(self, *args, **kwargs):
        from repro.telemetry import trace

        with trace.span(PREFIX + "market.topk") as sp:
            scored, pruned = original(self, *args, **kwargs)
            sp.set(dirty=len(self.loops), pruned=pruned)
        return scored, pruned

    return evaluate_top_k


def _traced_convex(original):
    @functools.wraps(original)
    def evaluate_cached(self, *args, **kwargs):
        from repro.telemetry import trace

        with trace.span(PREFIX + "strategies.convex") as sp:
            result = original(self, *args, **kwargs)
            sp.set(fallback=result.details.get("backend") == "slsqp-fallback")
        return result

    return evaluate_cached


def _traced_grid(original):
    @functools.wraps(original)
    def sweep_results(self, strategies, loop, base_prices, token, grid):
        from repro.telemetry import trace

        with trace.span(PREFIX + "engine.grid", points=len(strategies) * len(grid)):
            return original(self, strategies, loop, base_prices, token, grid)

    return sweep_results


def _traced_shard(original):
    @functools.wraps(original)
    def process_block(self, work):
        from repro.telemetry import trace

        # queue wait: pipeline dispatch -> this worker picking the block
        # up (perf_counter is system-wide on Linux, so the stamp taken
        # in the parent compares with this one in a shard child)
        wait_s = time.perf_counter() - work.t_dispatch
        with trace.span(PREFIX + "service.shard", queue_wait_s=wait_s) as sp:
            update = original(self, work)
            sp.set(dirty=update.evaluated + update.pruned, pruned=update.pruned)
        return update

    return process_block


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------


def self_times(spans) -> list[tuple[object, int]]:
    """``(span, self_ns)`` for every benchmark span in ``spans``."""
    by_key = {(s.pid, s.span_id): s for s in spans}
    ours = [s for s in spans if s.name.startswith(PREFIX)]
    nested_ns: dict[tuple, int] = defaultdict(int)
    for span in ours:
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_key.get((span.pid, parent_id))
            if parent is None:
                break
            if parent.name.startswith(PREFIX):
                nested_ns[(span.pid, parent_id)] += span.dur_ns
                break
            parent_id = parent.parent_id
    return [
        (span, max(0, span.dur_ns - nested_ns[(span.pid, span.span_id)]))
        for span in ours
    ]


class _Layers:
    """Spans grouped by layer name, with self times in milliseconds."""

    def __init__(self, pairs):
        self.by_name: dict[str, list[tuple[object, float]]] = defaultdict(list)
        for span, self_ns in pairs:
            self.by_name[span.name[len(PREFIX):]].append((span, self_ns / 1e6))

    def calls(self, layer: str) -> int:
        return len(self.by_name.get(layer, ()))

    def busy_ms(self, layer: str) -> float:
        return sum(ms for _, ms in self.by_name.get(layer, ()))

    def self_ms(self, layer: str) -> list[float]:
        return [ms for _, ms in self.by_name.get(layer, ())]

    def durations_ms(self, layer: str) -> list[float]:
        return [span.dur_ns / 1e6 for span, _ in self.by_name.get(layer, ())]

    def attr(self, layer: str, key: str) -> list:
        return [
            span.attrs[key]
            for span, _ in self.by_name.get(layer, ())
            if key in span.attrs
        ]


def layer_metrics(spans, ready_ns: int, windows: list[tuple[int, int]]) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Set-up layers count spans that started before the run was ready;
    steady-state layers count spans that started inside one of the
    measured ``windows`` (perf-counter nanoseconds), which leaves out
    checks and any set-up done between two measured passes.
    """
    pairs = self_times(spans)
    setup = _Layers(p for p in pairs if p[0].start_ns < ready_ns)
    steady = _Layers(
        p for p in pairs if any(lo <= p[0].start_ns <= hi for lo, hi in windows)
    )
    quote_rows = steady.attr("market.quote", "rows")
    kernel_rows = sum(steady.attr("market.quote", "kernel"))
    quoted_rows = kernel_rows + sum(steady.attr("market.quote", "scalar"))
    dirty = sum(steady.attr("service.shard", "dirty")) + sum(
        steady.attr("market.topk", "dirty")
    )
    pruned = sum(steady.attr("service.shard", "pruned")) + sum(
        steady.attr("market.topk", "pruned")
    )
    queue_wait_ms = [s * 1e3 for s in steady.attr("service.shard", "queue_wait_s")]
    convex_fallbacks = sum(bool(f) for f in steady.attr("strategies.convex", "fallback"))
    return {
        "data.generate_s": setup.busy_ms("data.generate") / 1e3,
        "data.load_s": setup.busy_ms("data.load") / 1e3,
        "graph.enumerate_s": setup.busy_ms("graph.enumerate") / 1e3,
        "market.compile_s": setup.busy_ms("market.compile") / 1e3,
        "service.init_s": setup.busy_ms("service.init") / 1e3,
        "replay.apply.calls": steady.calls("replay.apply"),
        "replay.apply.busy_ms": steady.busy_ms("replay.apply"),
        "market.shm.write_busy_ms": steady.busy_ms("market.shm.write"),
        "market.bounds.calls": steady.calls("market.bounds"),
        "market.bounds.busy_ms": steady.busy_ms("market.bounds"),
        "market.bounds.rows": sum(steady.attr("market.bounds", "rows")),
        "market.bounds.prune_ratio": ratio(pruned, dirty),
        "market.quote.calls": steady.calls("market.quote"),
        "market.quote.busy_ms": steady.busy_ms("market.quote"),
        "market.quote.call_p50_us": quantile(steady.self_ms("market.quote"), 0.5) * 1e3,
        "market.quote.rows_per_call_p50": quantile(quote_rows, 0.5),
        "market.quote.kernel_share": ratio(kernel_rows, quoted_rows),
        "strategies.scalar.calls": steady.calls("strategies.scalar"),
        "strategies.scalar.busy_ms": steady.busy_ms("strategies.scalar"),
        "service.shard.busy_ms": steady.busy_ms("service.shard"),
        "service.shard.block_p50_us": quantile(
            steady.durations_ms("service.shard"), 0.5
        ) * 1e3,
        "service.book.calls": steady.calls("service.book"),
        "service.book.busy_ms": steady.busy_ms("service.book"),
        "service.ipc.queue_wait_p50_ms": quantile(queue_wait_ms, 0.5),
        "service.ipc.queue_wait_p99_ms": quantile(queue_wait_ms, 0.99),
        "service.ipc.submit_busy_ms": steady.busy_ms("service.ipc.submit"),
        "engine.grid.points": sum(steady.attr("engine.grid", "points")),
        "engine.grid.busy_ms": steady.busy_ms("engine.grid"),
        "strategies.convex.calls": steady.calls("strategies.convex"),
        "strategies.convex.busy_ms": steady.busy_ms("strategies.convex"),
        "strategies.convex.fallback_ratio": ratio(
            convex_fallbacks, steady.calls("strategies.convex")
        ),
    }
