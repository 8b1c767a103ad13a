"""Statistics gathered from training and attached to Flour transformations.

The paper instruments ML.Net training to collect per-operator statistics
(maximum vector sizes, dense/sparse representations, ...) that Oven uses to
pick physical implementations (Section 4.1.1).  :class:`TransformStats` is
that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["TransformStats"]


@dataclass
class TransformStats:
    """Training-time statistics for one transformation's output."""

    max_vector_size: int = 0
    avg_nnz: float = 0.0
    density: float = 1.0
    is_sparse: bool = False
    sample_count: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
