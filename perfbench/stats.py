"""Order statistics shared by the measured subprocess's modules."""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

__all__ = ["digest", "quantile", "ratio"]


def quantile(values: Sequence[float], q: float) -> float:
    """numpy's default (linear) quantile; 0.0 for an empty sample, so an
    unexercised layer reads as zero work."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def digest(rows) -> str:
    """Short stable hash of a ranking: ``repr`` keeps every float digit,
    so two rankings share a digest only if they are bit-identical."""
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]
