"""The stream workloads' block source and per-block clock.

:func:`interleaved` feeds :meth:`repro.service.OpportunityService.run`
two kinds of load in turn:

* open-loop segments offer blocks on an absolute schedule (block ``j``
  of a segment is due at ``t0 + j / rate``) whatever the service does,
  and record how late the generator ran.  A block is closed by the
  event that follows it (the next block's marker), so a block's latency
  runs from when that closing event was due to the book update for it;
* unthrottled bursts offer blocks as fast as the service takes them.
  The service's bounded queues with the ``block`` policy push back, so
  nothing is dropped.

The source first sends one warm-up block and waits until the book has
applied it: that marks the service ready (the process backend forks its
shard inside ``run``), and everything before it is set-up time.

Each burst starts and ends on an idle service, with a host-speed
reading (``hostspeed.py``) right before and right after it.

:class:`BlockClock` wraps one service's ``book.apply``.  The book emits
a delta only when content changes, so subscribing would miss blocks
whose re-quotes changed nothing; the wrapper sees every applied block.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

__all__ = ["BlockClock", "Pass", "interleaved"]

#: Give up on a block that never reaches the book (seconds).
SETTLE_TIMEOUT_S = 60.0


class BlockClock:
    """Per-block completion times of one service's book."""

    def __init__(self, book):
        self.applied: dict[int, float] = {}
        original = book.apply

        def apply(block, shard, entries):
            delta = original(block, shard, entries)
            # with several shards the last shard's update completes it
            self.applied[block] = time.perf_counter()
            return delta

        book.apply = apply

    async def wait_for(self, block: int, timeout_s: float = SETTLE_TIMEOUT_S) -> None:
        deadline = time.perf_counter() + timeout_s
        while block not in self.applied:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"block {block} never reached the book")
            await asyncio.sleep(0.0005)


@dataclass
class Pass:
    """What the source offered, and when."""

    warmup: int
    t_ready: float = 0.0  # perf_counter when the warm-up block was applied
    t_start: float = 0.0  # perf_counter when timed offering began
    open: list[int] = field(default_factory=list)  # open-loop blocks, in order
    due: list[float] = field(default_factory=list)  # their closing events' due times
    lag_s: list[float] = field(default_factory=list)  # generator lateness
    #: unthrottled bursts: (perf_counter at start, blocks)
    bursts: list[tuple[float, list[int]]] = field(default_factory=list)

    def consumed(self) -> list[int]:
        """Every block whose events all reached the service, in order."""
        return sorted([self.warmup, *self.open, *(b for _, bs in self.bursts for b in bs)])


async def _warm_up(blocks, record: Pass, clock: BlockClock):
    for event in blocks[record.warmup]:
        yield event
    async for event in _settle(blocks, clock, record.warmup):
        yield event
    record.t_ready = time.perf_counter()


async def _settle(blocks, clock: BlockClock, last: int):
    """Close block ``last`` with the next block's marker and wait until
    the book has applied it."""
    yield blocks[last + 1][0]
    await clock.wait_for(last)


async def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


async def interleaved(
    blocks,
    record: Pass,
    clock: BlockClock,
    host,
    rate: float,
    segments: int,
    segment_blocks: int,
    burst_blocks: int,
):
    """After the warm-up, ``segments`` times: an open-loop segment of
    ``segment_blocks`` blocks at ``rate`` blocks per second, then a
    burst of ``burst_blocks`` blocks offered back to back.  Each burst
    starts and ends on a drained service, with a reading of ``host``
    (a ``hostspeed.HostClock``, which also pins the service's shard
    children after the warm-up) on either side.  ``segments=0`` stops
    after the warm-up (a set-up-only run).

    Alternating the two makes the latency and the capacity figures
    sample the same stretch of time: co-tenants of a shared machine
    slow it in phases lasting seconds.  Segments start on an idle
    service, so a burst's backlog never leaks into the open-loop
    latencies.
    """
    async for event in _warm_up(blocks, record, clock):
        yield event
    host.pin_children()
    record.t_start = time.perf_counter()
    index = record.warmup + 1  # its marker went out with the warm-up
    for _ in range(segments):
        t0 = time.perf_counter()
        for j in range(segment_blocks):
            due = t0 + j / rate
            await _sleep_until(due)
            record.lag_s.append(time.perf_counter() - due)
            if j:
                record.due.append(due)  # this block's marker closes the last one
            for event in blocks[index][1:] if j == 0 else blocks[index]:
                yield event
            record.open.append(index)
            index += 1
        end_due = t0 + segment_blocks / rate
        await _sleep_until(end_due)
        record.due.append(end_due)
        # the burst's first marker closes the segment's last block
        async for event in _settle(blocks, clock, index - 1):
            yield event
        host.read()
        burst = (time.perf_counter(), list(range(index, index + burst_blocks)))
        for index in burst[1]:
            for event in blocks[index][1:] if index == burst[1][0] else blocks[index]:
                yield event
            # one cooperative yield per block, like the service's log_source
            await asyncio.sleep(0)
        async for event in _settle(blocks, clock, index):
            yield event
        host.read()
        record.bursts.append(burst)
        index += 1
