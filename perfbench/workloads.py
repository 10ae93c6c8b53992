"""The benchmark's four workloads, each run inside one measured subprocess.

Every workload drives the program through its public functions only,
makes its inputs from the seed, splits its work into a set-up phase
(ended by ``t_ready``) and a measured phase, and checks the program's
outputs afterwards.  See README.md for why each workload exists.

Work counters are taken over a fixed prefix of the measured work (the
first pass over the price scenarios, the open-loop pass, the first pass
of convex evaluations and sweeps), so they do not depend on how much
work fits in the time budget.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.amm import PoolRegistry, WeightedPool
from repro.amm.families import FAMILY_CPMM, FAMILY_G3M, pool_family
from repro.core import PriceMap
from repro.data import MarketSnapshot, SyntheticMarketGenerator, paper_market
from repro.engine import EvaluationEngine
from repro.graph import find_arbitrage_loops
from repro.market import WEIGHTED_PARITY_RTOL, BatchEvaluator, MarketArrays
from repro.replay import MarketEventLog, generate_event_stream
from repro.service import OpportunityService, batch_detect_ranking
from repro.service.book import opportunity_sort_key
from repro.strategies import (
    ConvexOptimizationStrategy,
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
)
from repro.telemetry import trace

from hostspeed import HostClock
from layers import PREFIX
from loadgen import BlockClock, Pass, interleaved
from stats import digest, quantile, ratio

__all__ = ["WORKLOADS", "make", "prepare"]

#: Top-K of every pruned ranking (``detect --top``, ``serve --prune-top-k``).
TOP_K = 10

#: Seed of every generated market: the generator's default.  The market
#: is the deployment; ``--seed`` draws the traffic on it (price
#: scenarios, the event stream), so runs with different seeds sample
#: one population of loops and differ in what arrives.
MARKET_SEED = 20230901


def _per_item_medians(timings) -> tuple[list[float], list[float]]:
    """Per item (a scenario, a loop), the median of its repeats'
    ``(raw, scaled)`` seconds: ``(scaled medians, raw medians)``."""
    scaled = [quantile([t for _, t in item], 0.5) for item in timings]
    raw = [quantile([t for t, _ in item], 0.5) for item in timings]
    return scaled, raw


def _rank_key(pair):
    return opportunity_sort_key(*pair)


def _nudged(ranking):
    """``ranking`` with its first profit moved by one ulp: the negative
    self-test's stand-in for a wrong book entry."""
    (profit, loop_id), *rest = ranking
    return [(float(np.nextafter(profit, np.inf)), loop_id), *rest]


class Workload:
    """One workload: ``run`` then ``verify``, then read the results."""

    #: Processes doing the measured work: this one, plus the shard
    #: child on the process backend.  Each gets a vCPU of ``cpus`` while
    #: there are enough, and host-speed readings are taken on each of
    #: them.
    processes = 1

    def __init__(
        self,
        seed: int,
        seconds: float,
        smoke: bool,
        inputs: Path,
        perturb: bool,
        cpus: list[int],
    ):
        self.seed = seed
        self.perturb = perturb
        self.seconds = seconds
        self.smoke = smoke
        self.inputs = inputs
        self.t_ready = 0.0
        # host-speed readings around the measured work, which is scaled
        # by them
        self.host = HostClock(cpus[: self.processes])
        self.windows: list[tuple[float, float]] = []
        self.ops = 0
        self.failed_ops = 0
        self.checks: list[tuple[str, bool]] = []
        self.work: dict[str, tuple[int, bool]] = {}
        self.ranking_digest = ""
        # layer values only a workload can see (zero where not exercised)
        self.layer_values: dict[str, float] = {
            "engine.cache.hit_ratio": 0.0,
            "market.shm.epoch_waits": 0,
            "market.shm.torn_retries": 0,
            "loadgen.lag_p99_ms": 0.0,
        }
        # this workload's own names for its end-to-end numbers, and
        # context printed next to them
        self.native: dict[str, tuple[float, str]] = {}
        self.latency_p50_ms = self.latency_p90_ms = self.throughput_per_s = 0.0

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def _work(self, exact: bool, **counters) -> None:
        self.work = {name: (int(value), exact) for name, value in counters.items()}


# ----------------------------------------------------------------------
# scan-mixed: the cold detect path on a three-family market
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSize:
    n_tokens: int
    n_pools: int
    stableswap_fraction: float = 0.10
    g3m_fraction: float = 0.15
    scenarios: int = 8
    scenario_sigma: float = 0.05
    samples_per_scenario: int = 16


def with_weighted_share(snapshot: MarketSnapshot, fraction: float):
    """Rebuild a seeded share of the constant-product pools as G3M pools
    with the same spot price (reserves re-weighted, weights in
    [0.3, 0.7])."""
    rng = np.random.default_rng([MARKET_SEED, 3])
    registry = PoolRegistry()
    for pool in snapshot.registry:
        if pool_family(pool) == FAMILY_CPMM and rng.random() < fraction:
            w0 = float(rng.uniform(0.3, 0.7))
            reserve0 = pool.reserve_of(pool.token0)
            reserve1 = pool.reserve_of(pool.token1)
            pool = WeightedPool(
                pool.token0,
                pool.token1,
                reserve0,
                reserve1 * (1.0 - w0) / w0,
                weight0=w0,
                weight1=1.0 - w0,
                fee=pool.fee,
                pool_id=pool.pool_id,
            )
        registry.add(pool)
    return MarketSnapshot(
        registry=registry,
        prices=snapshot.prices,
        label=snapshot.label,
        metadata=dict(snapshot.metadata, g3m_fraction=fraction),
    )


class ScanMixed(Workload):
    FULL = ScanSize(n_tokens=600, n_pools=5000)
    SMOKE = ScanSize(n_tokens=60, n_pools=300)

    def run(self, measure: bool) -> None:
        size = self.SMOKE if self.smoke else self.FULL
        self.size = size
        snapshot = SyntheticMarketGenerator(
            n_tokens=size.n_tokens,
            n_pools=size.n_pools,
            seed=MARKET_SEED,
            stableswap_fraction=size.stableswap_fraction,
        ).generate()
        with trace.span(PREFIX + "data.generate"):
            snapshot = with_weighted_share(snapshot, size.g3m_fraction)
        with trace.span(PREFIX + "graph.enumerate"):
            loops = find_arbitrage_loops(snapshot.graph(), 3)
        evaluator = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(snapshot.registry)
        )
        self.loops, self.evaluator = loops, evaluator
        self.ids = [loop.canonical_id for loop in loops]
        rng = np.random.default_rng([self.seed, 5])
        base = dict(snapshot.prices.items())
        self.scenarios = [
            PriceMap(
                {
                    token: price * math.exp(size.scenario_sigma * rng.standard_normal())
                    for token, price in base.items()
                }
            )
            for _ in range(size.scenarios)
        ]
        self.t_ready = time.perf_counter()
        if measure:
            self._measure(rng)

    def _measure(self, rng) -> None:
        size, evaluator, ids, host = self.size, self.evaluator, self.ids, self.host
        strategy = MaxMaxStrategy()
        stats0 = evaluator.stats.to_dict()
        # per scenario: (raw seconds, seconds at nominal host speed)
        exhaustive_s: list[list[tuple[float, float]]] = [[] for _ in range(size.scenarios)]
        top_k_s: list[list[tuple[float, float]]] = [[] for _ in range(size.scenarios)]
        self.first_cycle: list[tuple[int, list, list]] = []
        host.read()
        t_begin = time.perf_counter()
        i = 0
        while True:
            scenario = i % size.scenarios
            prices = self.scenarios[scenario]
            t0 = time.perf_counter()
            results = evaluator.evaluate_many(strategy, prices)
            ranking = sorted(
                ((r.monetized_profit, ids[p]) for p, r in enumerate(results)),
                key=_rank_key,
            )
            t1 = time.perf_counter()
            scored, _ = evaluator.evaluate_top_k(strategy, prices, TOP_K)
            top = sorted(((profit, ids[p]) for profit, p in scored), key=_rank_key)
            t2 = time.perf_counter()
            host.read()
            exhaustive_s[scenario].append((t1 - t0, host.scaled(t1 - t0, t0, t1)))
            top_k_s[scenario].append((t2 - t1, host.scaled(t2 - t1, t1, t2)))
            top = top[:TOP_K]
            if self.perturb and i == 0:
                top = _nudged(top)
            self.check("top_k", ranking[:TOP_K] == top)
            if i < size.scenarios:
                picks = rng.choice(
                    len(results), min(size.samples_per_scenario, len(results)), replace=False
                )
                samples = [(int(p), results[int(p)].monetized_profit) for p in picks]
                self.first_cycle.append((scenario, top, samples))
                if i + 1 == size.scenarios:
                    stats1 = evaluator.stats.to_dict()
            i += 1
            if i % size.scenarios == 0 and time.perf_counter() - t_begin >= self.seconds:
                break
        self.windows = [(t_begin, time.perf_counter())]
        spent = {k: stats1[k] - stats0[k] for k in stats0}
        self._work(
            True,
            exact_quotes=spent["kernel_loops"] + spent["scalar_loops"],
            pruned_loops=spent["pruned_loops"],
            scalar_fallbacks=spent["scalar_loops"],
            kernel_passes=spent["kernel_passes"],
            convex_fallbacks=0,
        )
        self.ranking_digest = digest(top for _, top, _ in self.first_cycle)
        # a scenario's time is the median of its repeats; latency is
        # the pruned top-K (what ``detect --top`` waits for), throughput
        # the exhaustive ranking over every scenario
        top_k, top_k_raw = _per_item_medians(top_k_s)
        exhaustive, exhaustive_raw = _per_item_medians(exhaustive_s)
        self.latency_p50_ms = quantile(top_k, 0.5) * 1e3
        self.latency_p90_ms = quantile(top_k, 0.9) * 1e3
        self.throughput_per_s = len(ids) * size.scenarios / sum(exhaustive)
        self.native = {
            "scan_loops_per_s": (self.throughput_per_s, "1/s"),
            "scan_top_k_p50_ms": (self.latency_p50_ms, "ms"),
            "scan_top_k_p90_ms": (self.latency_p90_ms, "ms"),
            "scan_exhaustive_p50_ms": (quantile(exhaustive, 0.5) * 1e3, "ms"),
            "raw.scan_loops_per_s": (len(ids) * size.scenarios / sum(exhaustive_raw), "1/s"),
            "raw.scan_top_k_p50_ms": (quantile(top_k_raw, 0.5) * 1e3, "ms"),
            "rankings": (i, "count"),
        }

    def verify(self) -> None:
        """Sampled scalar re-check of the exhaustive pass, within each
        family's parity contract (the pruned-vs-exhaustive top-K
        comparison is checked per ranking)."""
        strategy = MaxMaxStrategy()
        for scenario, _, samples in self.first_cycle:
            prices = self.scenarios[scenario]
            for position, batch_profit in samples:
                loop = self.loops[position]
                scalar = strategy.evaluate(loop, prices).monetized_profit
                if any(pool_family(pool) == FAMILY_G3M for pool in loop.pools):
                    ok = abs(batch_profit - scalar) <= WEIGHTED_PARITY_RTOL * max(
                        1.0, abs(scalar)
                    )
                else:
                    ok = batch_profit == scalar
                self.check("scalar_parity", ok)


# ----------------------------------------------------------------------
# stream-inline / stream-process: serve on a pure-CPMM market
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamSize:
    n_tokens: int
    n_pools: int
    n_blocks: int
    events_per_block: int = 8
    price_ticks_per_block: int = 1


def prepare(seed: int, smoke: bool, inputs: Path) -> None:
    """Write the stream workloads' snapshot JSON and event JSONL."""
    size = Stream.SMOKE if smoke else Stream.FULL
    market = SyntheticMarketGenerator(
        n_tokens=size.n_tokens, n_pools=size.n_pools, seed=MARKET_SEED, price_noise=0.02
    ).generate()
    log = generate_event_stream(
        market,
        n_blocks=size.n_blocks,
        events_per_block=size.events_per_block,
        seed=seed,
        price_ticks_per_block=size.price_ticks_per_block,
    )
    market.save(inputs / "market.json")
    log.save(inputs / "events.jsonl")


class Stream(Workload):
    """``serve`` on a pure-CPMM market read from the prepared files: one
    shard, prune top-K, lossless ingest, fed by
    :func:`loadgen.interleaved`."""

    FULL = StreamSize(n_tokens=300, n_pools=2000, n_blocks=6000)
    SMOKE = StreamSize(n_tokens=40, n_pools=200, n_blocks=600)
    #: Offered block rate of the open-loop segments, the same on both
    #: backends: about an eighth of the process backend's burst capacity
    #: on two calm cores (~420 blocks/s) and a quarter of it in the
    #: slowest phases of a shared machine seen (~190 blocks/s).  At 100
    #: blocks/s such phases queued the process backend: its median block
    #: latency ranged 6-20 ms over ten runs, and blocks missed the limit.
    RATE = 50.0
    #: Share of the time budget spent in open-loop segments.
    OPEN_SHARE = 1 / 2
    #: Open-loop segments, each followed by an unthrottled burst.
    SEGMENTS = 8
    #: Blocks per second of budget the bursts are sized for (about the
    #: inline backend's capacity here).
    BURST_SIZING_RATE = 600.0
    #: A block applied later than this after its closing event was due
    #: counts as failed.
    LATENCY_LIMIT_MS = 250.0
    backend = "inline"

    def run(self, measure: bool) -> None:
        market = MarketSnapshot.load(self.inputs / "market.json")
        log = MarketEventLog.load(self.inputs / "events.jsonl")
        self.market = market
        self.blocks = [events for _, events in log.iter_blocks()]
        budget = self.seconds / self.SEGMENTS if measure else 0.0
        segment_blocks = max(1, round(self.RATE * budget * self.OPEN_SHARE))
        burst_blocks = max(1, round(self.BURST_SIZING_RATE * budget * (1 - self.OPEN_SHARE)))
        if self.SEGMENTS * (segment_blocks + burst_blocks) >= len(self.blocks):
            raise ValueError(
                f"--seconds {self.seconds:g} needs more than the {len(self.blocks)} "
                "blocks of the prepared stream"
            )
        service = OpportunityService(
            market,
            n_shards=1,
            backend=self.backend,
            prune_top_k=TOP_K,
            ingest_policy="block",
            shared=self.backend == "process",
        )
        try:
            record = Pass(warmup=self._warmup_block(service))
            self.clock = BlockClock(service.book)
            stats0 = service.workers[0].evaluator_stats.to_dict()
            source = interleaved(
                self.blocks,
                record,
                self.clock,
                self.host,
                self.RATE,
                self.SEGMENTS if measure else 0,
                segment_blocks,
                burst_blocks,
            )
            self.report = asyncio.run(service.run(source))
        finally:
            service.close()
        self.record, self.plan = record, service.plan
        self.t_ready = record.t_ready
        if measure:
            self._results(stats0)

    def _warmup_block(self, service) -> int:
        for index in range(len(self.blocks) - 1):
            if service.plan.route_block(self.blocks[index]):
                return index
        raise RuntimeError("no block of the stream reaches any loop")

    def _results(self, stats0: dict) -> None:
        report, clock, record, host = self.report, self.clock, self.record, self.host
        latencies: list[float] = []
        failed = 0
        for index, due in zip(record.open, record.due):
            if not self.plan.route_block(self.blocks[index]):
                continue  # touches no loop: the service has nothing to do
            self.ops += 1
            applied = clock.applied.get(index)
            if applied is None:
                failed += 1  # dropped
                continue
            latency_ms = (applied - due) * 1e3
            latencies.append(latency_ms)
            failed += latency_ms > self.LATENCY_LIMIT_MS
        raw_p50_ms, raw_max_ms = quantile(latencies, 0.5), max(latencies)
        # the deadline holds for the latency as measured; the
        # percentiles are at the nominal host speed, by the run's phase
        latencies = [host.scaled_by_run(latency) for latency in latencies]
        self.failed_ops += failed + report.blocks_dropped
        self.windows = [(record.t_start, max(clock.applied.values()))]

        rates = []
        burst_events = burst_s = burst_raw_s = 0.0
        for t_start, burst in record.bursts:
            self.ops += len(burst)
            events = sum(len(self.blocks[b]) for b in burst)
            t_end = clock.applied[burst[-1]]
            elapsed = host.scaled(t_end - t_start, t_start, t_end)
            rates.append(events / elapsed)
            burst_events += events
            burst_s += elapsed
            burst_raw_s += t_end - t_start
        # over every burst: one burst's rate moves with its blocks'
        # content and with the collector's pauses inside it
        capacity = burst_events / burst_s

        self.latency_p50_ms = quantile(latencies, 0.5)
        self.latency_p90_ms = quantile(latencies, 0.9)
        self.throughput_per_s = capacity
        self.native = {
            "block_p50_ms": (self.latency_p50_ms, "ms"),
            "block_p90_ms": (self.latency_p90_ms, "ms"),
            "block_p99_ms": (quantile(latencies, 0.99), "ms"),
            "block_max_ms": (max(latencies), "ms"),
            "open_loop_blocks": (len(latencies), "count"),
            "open_loop_rate": (self.RATE, "1/s"),
            "capacity_eps": (capacity, "1/s"),
            "capacity_fastest_burst_eps": (max(rates), "1/s"),
            "capacity_slowest_burst_eps": (min(rates), "1/s"),
            "raw.block_p50_ms": (raw_p50_ms, "ms"),
            "raw.block_max_ms": (raw_max_ms, "ms"),
            "raw.capacity_eps": (burst_events / burst_raw_s, "1/s"),
        }
        gauges = report.metrics["gauges"]
        spent = {
            name: gauges.get(f"shard0_{name}", value) - value
            for name, value in stats0.items()
        }
        # the prune threshold excludes loops still in flight, so whether
        # the previous block was published before the next one was
        # dispatched moves these counters: in every burst, and in the
        # open-loop segments whenever one block outlasts the offered
        # period; the quiesced top-K digest does not move
        self._work(
            False,
            exact_quotes=report.evaluations,
            pruned_loops=report.loops_pruned,
            scalar_fallbacks=spent["scalar_loops"],
            kernel_passes=spent["kernel_passes"],
            convex_fallbacks=0,
        )
        self.top = [(o.profit_usd, o.loop_id) for o in report.book.top(TOP_K)]
        self.ranking_digest = digest(self.top)
        counters = report.metrics["counters"]
        lookups = report.cache_hits + report.cache_misses
        self.layer_values.update({
            "engine.cache.hit_ratio": ratio(report.cache_hits, lookups),
            "market.shm.epoch_waits": counters.get("shm_epoch_waits", 0),
            "market.shm.torn_retries": counters.get("shm_torn_retries", 0),
            "loadgen.lag_p99_ms": quantile([s * 1e3 for s in record.lag_s], 0.99),
        })

    def verify(self) -> None:
        """The quiesced top-K book equals batch detection over the events
        the service consumed, bit for bit (pruning guarantees the top-K
        only; entries below it may hold provably stale values)."""
        events = [event for b in self.record.consumed() for event in self.blocks[b]]
        expected = batch_detect_ranking(self.market, events)[:TOP_K]
        got = _nudged(self.top) if self.perturb else self.top
        self.check("book", got == expected)


class StreamInline(Stream):
    backend = "inline"


class StreamProcess(Stream):
    backend = "process"
    processes = 2


# ----------------------------------------------------------------------
# paper-strategies: Fig. 7 and the Fig. 2/3/6 sweeps on the §VI market
# ----------------------------------------------------------------------


class PaperStrategies(Workload):
    """The §VI-calibrated market (about 120 profitable loops) under a
    seeded CEX price scenario: every token's price moves by a lognormal
    step of ``PRICE_SIGMA``, the size of one block's price tick in the
    stream workloads.  Whole passes over every loop (in a seeded order),
    at least ``MIN_PASSES``, each evaluating a loop with Convex and then
    sweeping it, so that both figures sample the same stretch of time; a
    loop's time is the median of its passes, each scaled to the nominal
    host speed (``hostspeed.py``), and the percentiles run over loops."""

    MIN_PASSES = 2
    PRICE_SIGMA = 0.002
    #: Px grid as multiples of the swept token's scenario price.
    GRID = np.linspace(0.05, 2.0, 101)
    SAMPLES_PER_SWEEP = 4
    #: Convex ``>=`` MaxMax tolerance (relative, floor 1 USD).
    THEOREM_RTOL = 1e-9

    def run(self, measure: bool) -> None:
        snapshot = paper_market(seed=MARKET_SEED)
        with trace.span(PREFIX + "graph.enumerate"):
            loops = find_arbitrage_loops(snapshot.graph(), 3)
        rng = np.random.default_rng([self.seed, 7])
        self.prices = PriceMap(
            {
                token: price * math.exp(self.PRICE_SIGMA * rng.standard_normal())
                for token, price in snapshot.prices.items()
            }
        )
        order = rng.permutation(len(loops))
        if self.smoke:
            order = order[:4]
        self.loops = [loops[int(i)] for i in order]
        self.t_ready = time.perf_counter()
        if measure:
            self._measure(rng)

    def _passes(self, *evaluators) -> list[list[list[tuple[float, float]]]]:
        """Whole passes over every loop, each calling every
        ``evaluate(position, first_pass) -> (t0, t1)`` in turn and then
        taking a host-speed reading, at least ``MIN_PASSES`` and until
        ``--seconds`` have elapsed; return each evaluator's ``(raw,
        scaled)`` seconds per loop and pass."""
        host = self.host
        timings = [[[] for _ in self.loops] for _ in evaluators]
        host.read()
        t_begin = time.perf_counter()
        passes = 0
        while passes < self.MIN_PASSES or time.perf_counter() - t_begin < self.seconds:
            for position in range(len(self.loops)):
                spans = [evaluate(position, passes == 0) for evaluate in evaluators]
                host.read()
                for per_loop, (t0, t1) in zip(timings, spans):
                    per_loop[position].append((t1 - t0, host.scaled(t1 - t0, t0, t1)))
            passes += 1
        self.windows = [(t_begin, time.perf_counter())]
        return timings

    def _measure(self, rng) -> None:
        prices = self.prices
        convex = ConvexOptimizationStrategy()
        self.convex_results: list[tuple[int, float]] = []
        fallbacks = 0

        def convex_one(position: int, first: bool) -> tuple[float, float]:
            nonlocal fallbacks
            t0 = time.perf_counter()
            result = convex.evaluate(self.loops[position], prices)
            t1 = time.perf_counter()
            self.convex_results.append((position, result.monetized_profit))
            if first:
                fallbacks += result.details.get("backend") == "slsqp-fallback"
            return t0, t1

        points_per_sweep = 3 * len(self.GRID)
        hits = lookups = 0
        self.grid_samples: list[tuple[int, str, float, float]] = []

        def sweep_one(position: int, first: bool) -> tuple[float, float]:
            nonlocal hits, lookups
            loop = self.loops[position]
            token = loop.tokens[0]
            grid = prices[token] * self.GRID
            engine = EvaluationEngine()
            t0 = time.perf_counter()
            series = engine.sweep_results(
                self._sweep_strategies(token), loop, prices, token, grid
            )
            t1 = time.perf_counter()
            hits += engine.cache.hits
            lookups += engine.cache.hits + engine.cache.misses
            self.ops += 1
            if first:
                for k in rng.choice(len(grid), self.SAMPLES_PER_SWEEP, replace=False):
                    for label, results in series.items():
                        self.grid_samples.append(
                            (position, label, float(grid[k]), results[k].monetized_profit)
                        )
            return t0, t1

        convex_timings, sweep_timings = self._passes(convex_one, sweep_one)
        # a loop's time is the median of its passes; percentiles run
        # over loops
        convex_s, convex_raw = _per_item_medians(convex_timings)
        sweep_s, sweep_raw = _per_item_medians(sweep_timings)
        n = len(self.loops)
        self._work(
            True,
            exact_quotes=n + points_per_sweep * n,
            pruned_loops=0,
            scalar_fallbacks=0,
            kernel_passes=0,
            convex_fallbacks=fallbacks,
        )
        self.ranking_digest = digest(self.convex_results[:n] + self.grid_samples)
        self.latency_p50_ms = quantile(convex_s, 0.5) * 1e3
        self.latency_p90_ms = quantile(convex_s, 0.9) * 1e3
        self.throughput_per_s = points_per_sweep * n / sum(sweep_s)
        self.native = {
            "convex_p50_ms": (self.latency_p50_ms, "ms"),
            "convex_p90_ms": (self.latency_p90_ms, "ms"),
            "convex_evaluations": (len(self.convex_results), "count"),
            "sweep_points_per_s": (self.throughput_per_s, "1/s"),
            "raw.convex_p50_ms": (quantile(convex_raw, 0.5) * 1e3, "ms"),
            "raw.sweep_points_per_s": (points_per_sweep * n / sum(sweep_raw), "1/s"),
        }
        self.layer_values["engine.cache.hit_ratio"] = ratio(hits, lookups)

    @staticmethod
    def _sweep_strategies(token) -> dict:
        """Fig. 2/3/6's fixed-start strategies, traditional anchored at
        the swept token."""
        return {
            "traditional": TraditionalStrategy(start_token=token),
            "maxprice": MaxPriceStrategy(),
            "maxmax": MaxMaxStrategy(),
        }

    def verify(self) -> None:
        """Convex >= MaxMax - tol on every evaluation (the paper's
        theorem), and sampled grid points equal the scalar
        ``Strategy.evaluate`` at that price, bit for bit."""
        prices = self.prices
        maxmax = MaxMaxStrategy()
        floor = {
            position: maxmax.evaluate(loop, prices).monetized_profit
            for position, loop in enumerate(self.loops)
        }
        results = self.convex_results
        if self.perturb:
            position, _ = results[0]
            results = [(position, floor[position] - abs(floor[position]) - 1.0), *results[1:]]
        for position, profit in results:
            mm = floor[position]
            self.check("theorem", profit >= mm - self.THEOREM_RTOL * max(1.0, abs(mm)))
        for position, label, price, profit in self.grid_samples:
            loop = self.loops[position]
            token = loop.tokens[0]
            strategy = self._sweep_strategies(token)[label]
            scalar = strategy.evaluate(loop, prices.with_price(token, price))
            self.check("grid_point", scalar.monetized_profit == profit)


WORKLOADS = {
    "scan-mixed": ScanMixed,
    "stream-inline": StreamInline,
    "stream-process": StreamProcess,
    "paper-strategies": PaperStrategies,
}


def make(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool,
    inputs: Path,
    perturb: bool,
    cpus: list[int],
):
    return WORKLOADS[name](seed, seconds, smoke, inputs, perturb, cpus)
