"""The market event log: an ordered, replayable stream of events.

A :class:`MarketEventLog` is an append-only, block-ordered sequence of
:mod:`repro.amm.events` records with lossless JSONL (de)serialization —
one event per line, a ``type`` tag plus the event's fields.  Floats
round-trip exactly (JSON numbers are emitted with ``repr`` precision),
so a saved stream replays bit-identically to the in-memory one.

Format example::

    {"type": "block", "block": 0}
    {"type": "tick", "block": 0, "token": {"symbol": "WETH", ...}, "price": 1650.3}
    {"type": "swap", "block": 0, "pool_id": "syn-0007", "token_in": {...},
     "token_out": {...}, "amount_in": 12.5, "amount_out": 30.1}
    {"type": "mint", "block": 1, "pool_id": "syn-0002", "amount0": 5.0, "amount1": 9.1}
    {"type": "burn", "block": 1, "pool_id": "syn-0003", "fraction": 0.01,
     "amount0": 1.0, "amount1": 2.0}
"""

from __future__ import annotations

from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator
import json

from ..amm.events import (
    BlockEvent,
    BurnEvent,
    MarketEvent,
    MintEvent,
    PriceTickEvent,
    SwapEvent,
)
from ..core.errors import EventLogFormatError, EventOrderError
from ..core.types import Token

__all__ = ["MarketEventLog", "event_from_dict", "event_to_dict"]

_TYPE_TAGS: dict[str, type[MarketEvent]] = {
    "swap": SwapEvent,
    "mint": MintEvent,
    "burn": BurnEvent,
    "tick": PriceTickEvent,
    "block": BlockEvent,
}
_TAGS_BY_TYPE = {cls: tag for tag, cls in _TYPE_TAGS.items()}


def _token_to_dict(token: Token) -> dict:
    return {
        "symbol": token.symbol,
        "decimals": token.decimals,
        "address": token.address,
    }


def _token_from_dict(data: dict, interned: dict) -> Token:
    """Parse a token, sharing one instance per distinct record.

    ``Token`` is frozen, so every event of a stream can hold the same
    instance; ``interned`` maps ``(symbol, decimals, address)`` to it.
    The key carries the type of ``decimals`` too, so an ``18.0`` in the
    input is not folded into an ``18`` (they hash alike).
    """
    symbol = data["symbol"]
    decimals = data.get("decimals", 18)
    address = data.get("address", "")
    key = (symbol, decimals, type(decimals), address)
    token = interned.get(key)
    if token is None:
        token = interned[key] = Token(symbol=symbol, decimals=decimals, address=address)
    return token


def event_to_dict(event: MarketEvent) -> dict:
    """Serialize one event to a JSON-ready dict with a ``type`` tag."""
    try:
        tag = _TAGS_BY_TYPE[type(event)]
    except KeyError:
        raise EventLogFormatError(
            f"cannot serialize event of type {type(event).__name__}"
        ) from None
    data: dict = {"type": tag, "block": event.block}
    if isinstance(event, SwapEvent):
        data.update(
            pool_id=event.pool_id,
            token_in=_token_to_dict(event.token_in),
            token_out=_token_to_dict(event.token_out),
            amount_in=event.amount_in,
            amount_out=event.amount_out,
        )
    elif isinstance(event, MintEvent):
        data.update(
            pool_id=event.pool_id, amount0=event.amount0, amount1=event.amount1
        )
    elif isinstance(event, BurnEvent):
        data.update(
            pool_id=event.pool_id,
            fraction=event.fraction,
            amount0=event.amount0,
            amount1=event.amount1,
        )
    elif isinstance(event, PriceTickEvent):
        data.update(token=_token_to_dict(event.token), price=event.price)
    return data


def event_from_dict(data: dict, tokens: dict | None = None) -> MarketEvent:
    """Parse one event dict (inverse of :func:`event_to_dict`).

    ``tokens`` is an intern table for the parsed ``Token`` objects; pass
    one dict for a whole stream so its events share them.
    """
    if tokens is None:
        tokens = {}
    try:
        tag = data["type"]
        cls = _TYPE_TAGS.get(tag)
        if cls is None:
            raise EventLogFormatError(f"unknown event type tag {tag!r}")
        block = int(data["block"])
        if cls is SwapEvent:
            return SwapEvent(
                pool_id=data["pool_id"],
                token_in=_token_from_dict(data["token_in"], tokens),
                token_out=_token_from_dict(data["token_out"], tokens),
                amount_in=float(data["amount_in"]),
                amount_out=float(data["amount_out"]),
                block=block,
            )
        if cls is MintEvent:
            return MintEvent(
                pool_id=data["pool_id"],
                amount0=float(data["amount0"]),
                amount1=float(data["amount1"]),
                block=block,
            )
        if cls is BurnEvent:
            return BurnEvent(
                pool_id=data["pool_id"],
                fraction=float(data["fraction"]),
                amount0=float(data.get("amount0", 0.0)),
                amount1=float(data.get("amount1", 0.0)),
                block=block,
            )
        if cls is PriceTickEvent:
            return PriceTickEvent(
                token=_token_from_dict(data["token"], tokens),
                price=float(data["price"]),
                block=block,
            )
        return BlockEvent(block=block)
    except EventLogFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise EventLogFormatError(f"malformed event record: {exc}") from exc


class MarketEventLog:
    """Block-ordered sequence of market events.

    Appends enforce non-decreasing ``block`` numbers, so the log is
    always a valid time-ordered stream and per-block grouping
    (:meth:`iter_blocks`) is a single pass.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[MarketEvent] = ()):
        self._events: list[MarketEvent] = []
        self.extend(events)

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[MarketEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarketEventLog):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:
        blocks = f"blocks {self._events[0].block}..{self._events[-1].block}" if self._events else "empty"
        return f"MarketEventLog({len(self._events)} events, {blocks})"

    @property
    def events(self) -> tuple[MarketEvent, ...]:
        return tuple(self._events)

    def events_since(self, index: int) -> tuple[MarketEvent, ...]:
        """Events appended at position ``index`` or later.

        Lets a consumer tail a growing log (e.g. the live simulation
        source) without copying the whole history each poll.
        """
        if index < 0:
            raise ValueError(f"index must be >= 0, got {index}")
        return tuple(self._events[index:])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def append(self, event: MarketEvent) -> None:
        if not isinstance(event, MarketEvent):
            raise TypeError(f"expected a MarketEvent, got {event!r}")
        if self._events and event.block < self._events[-1].block:
            raise EventOrderError(
                f"event for block {event.block} appended after block "
                f"{self._events[-1].block}; logs are block-ordered"
            )
        self._events.append(event)

    def extend(self, events: Iterable[MarketEvent]) -> None:
        for event in events:
            self.append(event)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def iter_blocks(self) -> Iterator[tuple[int, tuple[MarketEvent, ...]]]:
        """Yield ``(block, events)`` groups in block order."""
        for block, group in groupby(self._events, key=lambda e: e.block):
            yield block, tuple(group)

    def blocks(self) -> tuple[int, ...]:
        """Distinct block numbers present, in order."""
        return tuple(block for block, _ in self.iter_blocks())

    def touched_pool_ids(self) -> frozenset[str]:
        """Pool ids referenced by any swap / mint / burn in the log."""
        return frozenset(
            e.pool_id
            for e in self._events
            if isinstance(e, (SwapEvent, MintEvent, BurnEvent))
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One compact JSON object per line, trailing newline included."""
        return "".join(
            json.dumps(event_to_dict(event), sort_keys=True) + "\n"
            for event in self._events
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "MarketEventLog":
        events = []
        tokens: dict = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventLogFormatError(
                    f"line {lineno}: invalid JSON: {exc}"
                ) from exc
            try:
                events.append(event_from_dict(data, tokens))
            except EventLogFormatError as exc:
                raise EventLogFormatError(f"line {lineno}: {exc}") from exc
        try:
            return cls(events)
        except EventOrderError as exc:
            raise EventLogFormatError(str(exc)) from exc

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "MarketEventLog":
        return cls.from_jsonl(Path(path).read_text())
