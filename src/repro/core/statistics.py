"""Statistics gathered from training and attached to Flour transformations.

The paper instruments ML.Net training to collect per-operator statistics
(maximum vector sizes, dense/sparse representations, ...) that Oven uses to
pick physical implementations (Section 4.1.1).  :class:`TransformStats` is
that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Sequence

import numpy as np

from repro.operators.vectors import Vector

__all__ = ["TransformStats", "collect_output_stats"]


@dataclass
class TransformStats:
    """Training-time statistics for one transformation's output."""

    max_vector_size: int = 0
    avg_nnz: float = 0.0
    density: float = 1.0
    is_sparse: bool = False
    sample_count: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_dense(self) -> bool:
        return not self.is_sparse

    def merge(self, other: "TransformStats") -> "TransformStats":
        """Combine statistics from two samples of the same transformation."""
        total = self.sample_count + other.sample_count
        if total == 0:
            return TransformStats()
        avg_nnz = (
            self.avg_nnz * self.sample_count + other.avg_nnz * other.sample_count
        ) / total
        density = (
            self.density * self.sample_count + other.density * other.sample_count
        ) / total
        return TransformStats(
            max_vector_size=max(self.max_vector_size, other.max_vector_size),
            avg_nnz=avg_nnz,
            density=density,
            is_sparse=self.is_sparse or other.is_sparse,
            sample_count=total,
            extra={**self.extra, **other.extra},
        )


def collect_output_stats(outputs: Sequence[Any]) -> TransformStats:
    """Compute :class:`TransformStats` from sample outputs of a transformation."""
    max_size = 0
    nnz_values = []
    sparse = False
    for value in outputs:
        if isinstance(value, Vector):
            max_size = max(max_size, value.size)
            nnz_values.append(value.nnz())
            sparse = sparse or (value.nnz() < value.size)
        elif isinstance(value, (list, tuple)):
            max_size = max(max_size, len(value))
            nnz_values.append(len(value))
        elif isinstance(value, (int, float, np.floating)):
            max_size = max(max_size, 1)
            nnz_values.append(1)
    count = len(nnz_values)
    avg_nnz = float(np.mean(nnz_values)) if nnz_values else 0.0
    density = (avg_nnz / max_size) if max_size else 1.0
    return TransformStats(
        max_vector_size=max_size,
        avg_nnz=avg_nnz,
        density=density,
        is_sparse=sparse,
        sample_count=count,
    )
