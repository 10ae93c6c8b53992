"""Synthetic Uniswap-V2 market generator calibrated to the paper's §VI.

The paper's empirical snapshot (2023-09-01, after filters) had **51
tokens**, **208 pools**, and **123 profitable length-3 loops**.  The
on-chain data is unavailable offline, so :class:`SyntheticMarketGenerator`
produces statistically comparable snapshots:

* a connected multigraph of pools over the requested token set (random
  spanning tree for connectivity, then preferential random extra
  edges, occasionally parallel to an existing pair — Uniswap has
  duplicate pools too);
* CEX prices: a few well-known symbols at realistic magnitudes plus
  lognormal tails (five orders of magnitude of price spread);
* pool reserves sized so every pool passes the paper's filters by
  construction (TVL >= $30k, each reserve > 100), with pool prices set
  to the CEX price ratio times a multiplicative *mispricing noise*
  ``exp(N(0, price_noise))`` — the noise is what creates arbitrage
  loops, exactly as cross-pool price discrepancies do on mainnet.

With the default parameters and seed, the generated snapshot's count
of profitable 3-loops lands near the paper's 123 (the calibration
benchmark asserts the band).  Everything is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..amm.pool import DEFAULT_FEE
from ..amm.registry import PoolRegistry
from ..amm.stableswap import DEFAULT_AMPLIFICATION, StableSwapPool
from ..cex.static import REFERENCE_PRICES_2023_09
from ..core.types import PriceMap, Token
from ..graph.filters import PAPER_MIN_RESERVE, PAPER_MIN_TVL_USD
from .snapshot import MarketSnapshot

__all__ = ["SyntheticMarketGenerator", "paper_market"]


@dataclass
class SyntheticMarketGenerator:
    """Deterministic generator of paper-scale market snapshots.

    Parameters
    ----------
    n_tokens:
        Tokens in the market (paper: 51).
    n_pools:
        Pools / graph edges (paper: 208).
    seed:
        RNG seed; snapshots are identical per seed.
    price_noise:
        Sigma of the lognormal pool-mispricing noise.  0 means every
        pool agrees exactly with CEX parity (no arbitrage beyond fee
        rounding); the default 0.012 (~1.2 %) yields a §VI-like density
        of profitable loops.
    fee:
        Pool fee λ (Uniswap V2: 0.003).
    parallel_pool_fraction:
        Fraction of extra edges placed parallel to an existing pair.
    median_tvl:
        Median pool TVL in USD (lognormal around this).
    tvl_sigma:
        Lognormal sigma of pool TVL.
    price_sigma:
        Lognormal sigma of generated token prices (tail tokens).
    stableswap_fraction:
        Fraction of pools built as amplified-invariant
        :class:`~repro.amm.stableswap.StableSwapPool` instances instead
        of constant-product pools.  A stableswap pool models a pegged
        pair, so its reserves are drawn near-balanced in *token* terms
        (the mispricing noise supplies the imbalance); pairing tokens
        whose CEX prices differ therefore injects arbitrage, exactly
        like a depegged pool does on mainnet.  The default 0 draws no
        extra RNG values at all, so snapshots generated before this
        knob existed are reproduced byte-identically per seed.
    stableswap_amplification:
        Amplification coefficient A for generated stableswap pools.
    """

    n_tokens: int = 51
    n_pools: int = 208
    seed: int = 20230901
    price_noise: float = 0.012
    fee: float = DEFAULT_FEE
    parallel_pool_fraction: float = 0.05
    median_tvl: float = 250_000.0
    tvl_sigma: float = 1.0
    price_sigma: float = 2.0
    stableswap_fraction: float = 0.0
    stableswap_amplification: float = DEFAULT_AMPLIFICATION
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_tokens < 3:
            raise ValueError(f"need >= 3 tokens, got {self.n_tokens}")
        if self.n_pools < self.n_tokens - 1:
            raise ValueError(
                f"{self.n_pools} pools cannot connect {self.n_tokens} tokens"
            )
        if self.price_noise < 0:
            raise ValueError(f"price_noise must be >= 0, got {self.price_noise}")
        if not 0.0 <= self.stableswap_fraction <= 1.0:
            raise ValueError(
                "stableswap_fraction must be in [0, 1], "
                f"got {self.stableswap_fraction}"
            )
        if self.stableswap_fraction > 0 and self.stableswap_amplification <= 0:
            raise ValueError(
                "stableswap_amplification must be > 0, "
                f"got {self.stableswap_amplification}"
            )

    # ------------------------------------------------------------------

    def generate(self) -> MarketSnapshot:
        """Produce one snapshot (fresh RNG from the seed every call)."""
        self._rng = np.random.default_rng(self.seed)
        tokens = self._make_tokens()
        prices = self._make_prices(tokens)
        registry = self._make_pools(tokens, prices)
        metadata = {
            "generator": "SyntheticMarketGenerator",
            "n_tokens": self.n_tokens,
            "n_pools": self.n_pools,
            "seed": self.seed,
            "price_noise": self.price_noise,
            "fee": self.fee,
        }
        if self.stableswap_fraction > 0:
            # key added only when active so pre-knob snapshots (and
            # their checked-in JSON) stay byte-identical per seed
            metadata["stableswap_fraction"] = self.stableswap_fraction
            metadata["stableswap_amplification"] = self.stableswap_amplification
        return MarketSnapshot(
            registry=registry,
            prices=prices,
            label=f"synthetic-{self.seed}",
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------

    def _make_tokens(self) -> list[Token]:
        known = [Token(sym) for sym in sorted(REFERENCE_PRICES_2023_09)]
        tokens = known[: self.n_tokens]
        index = 0
        while len(tokens) < self.n_tokens:
            tokens.append(Token(f"TOK{index:03d}"))
            index += 1
        return tokens

    def _make_prices(self, tokens: list[Token]) -> PriceMap:
        prices: dict[Token, float] = {}
        for token in tokens:
            reference = REFERENCE_PRICES_2023_09.get(token.symbol)
            if reference is not None:
                prices[token] = reference
            else:
                z = float(self._rng.standard_normal())
                prices[token] = 5.0 * float(np.exp(self.price_sigma * z))
        return PriceMap(prices)

    def _make_pairs(self, tokens: list[Token]) -> list[tuple[Token, Token]]:
        """Connected edge list: spanning tree + preferential extras.

        Real DEX graphs are hub-dominated — WETH / stablecoins sit in
        a large share of pools — so extra edges attach to existing
        nodes with probability proportional to degree (preferential
        attachment).  Hubs produce the triangle density the paper's
        123-profitable-loop count implies; a uniform random graph with
        208 edges over 51 nodes has far too few triangles.
        """
        n = len(tokens)
        order = self._rng.permutation(n)
        # Token-index edges and one float degree vector updated in place:
        # a draw's weights are ``degree + 1`` over its candidates in
        # candidate order, which the golden market digests pin per seed.
        edges: list[tuple[int, int]] = []
        seen_pairs: set[tuple[int, int]] = set()
        degree = np.zeros(n)

        def add_pair(a: int, b: int) -> None:
            edges.append((a, b))
            seen_pairs.add((min(a, b), max(a, b)))
            degree[a] += 1.0
            degree[b] += 1.0

        # Spanning tree: attach each node to a degree-weighted earlier node.
        for i in range(1, n):
            weights = degree[order[:i]] + 1.0
            j = int(self._rng.choice(i, p=weights / weights.sum()))
            add_pair(int(order[i]), int(order[j]))

        # Extra edges up to n_pools, degree-weighted on both ends.
        attempts = 0
        while len(edges) < self.n_pools:
            attempts += 1
            if attempts > 100 * self.n_pools:
                raise RuntimeError(
                    "edge sampling stalled; parameters leave too few free pairs"
                )
            if edges and float(self._rng.random()) < self.parallel_pool_fraction:
                # duplicate an existing pair (parallel pool)
                a, b = edges[int(self._rng.integers(0, len(edges)))]
                edges.append((a, b))
                degree[a] += 1.0
                degree[b] += 1.0
                continue
            weights = degree + 1.0
            i, j = self._rng.choice(n, size=2, replace=False, p=weights / weights.sum())
            a, b = int(i), int(j)
            if (min(a, b), max(a, b)) in seen_pairs:
                continue
            add_pair(a, b)
        return [(tokens[a], tokens[b]) for a, b in edges]

    def _make_pools(self, tokens: list[Token], prices: PriceMap) -> PoolRegistry:
        registry = PoolRegistry()
        for index, (a, b) in enumerate(self._make_pairs(tokens)):
            tvl = self.median_tvl * float(
                np.exp(self.tvl_sigma * self._rng.standard_normal())
            )
            tvl = max(tvl, PAPER_MIN_TVL_USD * 1.2)
            # Half the TVL on each side at CEX parity, then inject the
            # mispricing noise asymmetrically so the pool's relative
            # price deviates from the CEX ratio.  The per-pool sigma is
            # itself lognormal (heavy-tailed): most pools sit near
            # parity while a few are badly mispriced, matching the
            # dispersion real DEX snapshots show (and giving Fig. 5 its
            # spread of points well below the 45-degree line).
            sigma = self.price_noise * float(
                np.exp(self._rng.standard_normal())
            )
            noise = float(np.exp(sigma * self._rng.standard_normal()))
            reserve_a = (tvl / 2.0) / prices[a] * noise
            reserve_b = (tvl / 2.0) / prices[b]
            # Guarantee the paper's reserve filter passes: scale the
            # whole pool up (preserves its relative price and noise).
            min_reserve = min(reserve_a, reserve_b)
            floor = PAPER_MIN_RESERVE * 1.5
            if min_reserve < floor:
                scale = floor / min_reserve
                reserve_a *= scale
                reserve_b *= scale
            # The noise multiplier shrinks one side, so a pool drawn
            # near the TVL floor can land below it post-noise; scale it
            # back up only in that case, so every seed that already
            # satisfied the contract is reproduced unchanged.
            tvl_now = prices[a] * reserve_a + prices[b] * reserve_b
            if tvl_now < PAPER_MIN_TVL_USD:
                scale = PAPER_MIN_TVL_USD * 1.05 / tvl_now
                reserve_a *= scale
                reserve_b *= scale
            pool_id = f"syn-{index:04d}"
            if (
                self.stableswap_fraction > 0
                and float(self._rng.random()) < self.stableswap_fraction
            ):
                # Pegged pair: a stableswap pool quotes near 1:1 in
                # token terms, so its reserves are near-balanced with
                # the already-drawn mispricing noise as the imbalance.
                # The gate above is the only extra RNG draw this branch
                # makes, and it is skipped entirely at fraction 0.
                ss_a = reserve_a
                ss_b = reserve_a / noise
                floor_scale = max(
                    1.0,
                    PAPER_MIN_RESERVE * 1.5 / min(ss_a, ss_b),
                    PAPER_MIN_TVL_USD * 1.05
                    / (prices[a] * ss_a + prices[b] * ss_b),
                )
                registry.add(
                    StableSwapPool(
                        a,
                        b,
                        ss_a * floor_scale,
                        ss_b * floor_scale,
                        amplification=self.stableswap_amplification,
                        fee=self.fee,
                        pool_id=pool_id,
                    )
                )
                continue
            registry.create(
                a,
                b,
                reserve_a,
                reserve_b,
                fee=self.fee,
                pool_id=pool_id,
            )
        return registry


def paper_market(
    seed: int = 20230901,
    price_noise: float = 0.012,
    stableswap_fraction: float = 0.0,
) -> MarketSnapshot:
    """The default §VI-scale market: 51 tokens, 208 pools."""
    return SyntheticMarketGenerator(
        seed=seed,
        price_noise=price_noise,
        stableswap_fraction=stableswap_fraction,
    ).generate()
