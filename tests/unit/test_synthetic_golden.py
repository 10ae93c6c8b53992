"""Golden digests of :class:`SyntheticMarketGenerator` output.

Every seeded market the benchmarks, examples and checked-in fixtures
use must stay byte-identical across generator changes: same pool ids,
same token pairs, same pool families, same reserves to the last bit and
the same CEX prices.  Each config below is hashed into one sha256 over
a canonical text rendering (reserves and prices as ``float.hex``), and
the digest is pinned.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.data import MarketSnapshot, SyntheticMarketGenerator, paper_market


def market_digest(snapshot: MarketSnapshot) -> str:
    lines = [
        " ".join(
            (
                pool.pool_id,
                pool.token0.symbol,
                pool.token1.symbol,
                str(int(pool.family)),
                float.hex(pool.reserve0),
                float.hex(pool.reserve1),
            )
        )
        for pool in snapshot.registry
    ]
    lines.extend(
        f"price {token.symbol} {float.hex(price)}"
        for token, price in snapshot.prices.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GOLDEN = {
    "default": (
        lambda: SyntheticMarketGenerator().generate(),
        "f5e754764c569bbda2ff3654a705186197746f4fa70092ffd3f6ae04c7fa6eda",
    ),
    "stream": (
        lambda: SyntheticMarketGenerator(
            n_tokens=300, n_pools=2000, price_noise=0.02
        ).generate(),
        "d678e835418c1b590636c498f866a4bdb9e35dfa11301268bd0fa3eb69f6f4f7",
    ),
    "scan": (
        lambda: SyntheticMarketGenerator(
            n_tokens=600, n_pools=5000, stableswap_fraction=0.10
        ).generate(),
        "4933bc05da00264503835bce68f4a5ca538ebcd167c7218e77221a05baffec53",
    ),
    "paper_market": (paper_market, "f5e754764c569bbda2ff3654a705186197746f4fa70092ffd3f6ae04c7fa6eda"),
    "seed7-small-mixed": (
        lambda: SyntheticMarketGenerator(
            n_tokens=40, n_pools=300, seed=7, stableswap_fraction=0.3
        ).generate(),
        "3da9fbb4bb0bf0d2d773352ffbf36eb8edcfbc8b922b277eff9a6c53ddda5669",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_market_matches_golden_digest(name):
    make, expected = GOLDEN[name]
    assert market_digest(make()) == expected
