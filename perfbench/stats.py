"""Sample statistics and seeded request generators of the benchmark."""

from __future__ import annotations

import bisect
import itertools
import math
import random
import statistics

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of an ascending list.

    Raises:
        ValueError: empty sample or ``q`` outside (0, 1].
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q} outside (0, 1]")
    # round first: 0.99 * 1000 must rank 990, not 991 by float drift
    rank = math.ceil(round(q * len(sorted_values), 9))
    return sorted_values[max(0, rank - 1)]


def supports_tail(n_samples: int, q: float) -> bool:
    """True when ``n_samples`` leaves at least :data:`MIN_BEYOND`
    samples beyond percentile ``q``."""
    return round(n_samples * (1 - q), 9) >= MIN_BEYOND


def latency_summary(seconds: list[float]) -> dict:
    """Sample size, median and — when the sample supports it — p99 of
    per-call wall times, in ms."""
    ordered = sorted(seconds)
    summary = {"n": len(ordered)}
    if ordered:
        summary["p50_ms"] = statistics.median(ordered) * 1e3
    if supports_tail(len(ordered), 0.99):
        summary["p99_ms"] = percentile(ordered, 0.99) * 1e3
    return summary


class ZipfNames:
    """Seeded Zipf(s) draws over a fixed name set.

    Ranks are assigned by a seeded shuffle, so which names are hot
    depends on the seed, not on the names' sort order.
    """

    def __init__(self, names, seed: str, s: float = 1.0) -> None:
        rng = random.Random(f"{seed}/zipf-ranks")
        self.names = sorted(names)
        rng.shuffle(self.names)
        weights = [1.0 / (rank ** s) for rank in range(1, len(self.names) + 1)]
        self._cum = list(itertools.accumulate(weights))
        self._rng = random.Random(f"{seed}/zipf-draws")

    def draw(self) -> str:
        u = self._rng.random() * self._cum[-1]
        return self.names[bisect.bisect_right(self._cum, u)]
