"""Latency recording: percentiles, CDFs, hot/cold bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "percentile",
    "LatencyRecorder",
    "summarize_latencies",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Percentile of a latency sample set (q in [0, 100]).

    The single percentile implementation: ``summarize_latencies`` and the
    recorder both route through here, so a report's headline p99 means the
    same thing everywhere.
    """
    if not len(samples):
        raise ValueError("cannot compute a percentile of zero samples")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def summarize_latencies(samples: Sequence[float]) -> Dict[str, float]:
    """Standard latency summary: mean, median, p95, p99, worst."""
    if not len(samples):
        return {"count": 0}
    array = np.asarray(samples, dtype=np.float64)
    return {
        "count": int(array.size),
        "mean": float(array.mean()),
        "p50": percentile(array, 50),
        "p95": percentile(array, 95),
        "p99": percentile(array, 99),
        "worst": float(array.max()),
        "best": float(array.min()),
    }


@dataclass
class LatencyRecorder:
    """Collects latency samples, optionally split into named groups.

    Groups are used for e.g. per-model series ("cold" vs "hot", or one series
    per serving system) that the figure benchmarks summarize together.
    """

    samples: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, seconds: float, group: str = "default") -> None:
        self.samples.setdefault(group, []).append(float(seconds))

    def extend(self, seconds: Iterable[float], group: str = "default") -> None:
        self.samples.setdefault(group, []).extend(float(s) for s in seconds)

    def group(self, group: str = "default") -> List[float]:
        return list(self.samples.get(group, []))

    def groups(self) -> List[str]:
        return list(self.samples)

    def summary(self, group: str = "default") -> Dict[str, float]:
        return summarize_latencies(self.samples.get(group, []))

    def cdf(self, group: str = "default", points: int = 100) -> List[Tuple[float, float]]:
        """(latency, cumulative fraction) pairs for CDF plots.

        Quantiles interpolate exactly like :func:`summarize_latencies`
        (``np.percentile``'s linear method), so a report's headline p99 and
        its CDF checkpoint agree -- nearest-order-statistic sampling diverges
        visibly at the tail when the extreme samples are far apart.
        """
        data = self.samples.get(group, [])
        if not data:
            return []
        array = np.asarray(data, dtype=np.float64)
        fractions = [index / points for index in range(points + 1)]
        quantiles = np.quantile(array, fractions)
        return [(float(value), fraction) for value, fraction in zip(quantiles, fractions)]

    def percentile(self, q: float, group: str = "default") -> float:
        return percentile(self.samples.get(group, []), q)

    def speedup(self, baseline_group: str, improved_group: str, q: float = 99.0) -> float:
        """Ratio of the baseline's q-th percentile to the improved system's."""
        return self.percentile(q, baseline_group) / self.percentile(q, improved_group)
