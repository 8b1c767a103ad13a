"""Pooled vector buffers.

PRETZEL pays memory-allocation costs upfront: at runtime initialization each
executor owns a pool of pre-allocated vectors, sized using the maximum vector
sizes recorded in the model plans' statistics, and predictions borrow buffers
from the pool instead of allocating on the data path (Section 4.2.1).  The
"no vector pooling" ablation of Section 5.2.1 simply bypasses the pool and
allocates a fresh buffer for every stage execution.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, List

import numpy as np

__all__ = ["VectorPool"]


def _size_class(size: int) -> int:
    """Round a requested size up to the next power-of-two size class."""
    if size <= 1:
        return 1
    return 1 << (int(size - 1).bit_length())


class VectorPool:
    """A per-executor pool of reusable float64 buffers, bucketed by size class."""

    def __init__(self, enabled: bool = True, entries_per_class: int = 8):
        self.enabled = enabled
        self.entries_per_class = entries_per_class
        self._buckets: Dict[int, List[np.ndarray]] = defaultdict(list)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.returned = 0

    def preallocate(self, sizes: List[int]) -> None:
        """Fill each size class to ``entries_per_class`` buffers (called at
        plan registration)."""
        if not self.enabled:
            return
        # Compute-then-publish: the numpy allocations happen outside the
        # lock, which is held only to read each bucket's depth and to splice
        # the fresh buffers in.  Racing prefills may overshoot
        # ``entries_per_class`` by a few buffers per class; acquire/release
        # still bound the pool there, so the overshoot is transient.
        wanted: Dict[int, int] = {}
        with self._lock:
            for size in sizes:
                if size <= 0:
                    continue
                cls = _size_class(size)
                shortfall = self.entries_per_class - len(self._buckets[cls])
                if shortfall > 0:
                    wanted[cls] = max(wanted.get(cls, 0), shortfall)
        if not wanted:
            return
        fresh = {
            cls: [np.empty(cls, dtype=np.float64) for _ in range(count)]
            for cls, count in wanted.items()
        }
        with self._lock:
            for cls, buffers in fresh.items():
                self._buckets[cls].extend(buffers)
                self.allocations += len(buffers)

    def acquire(self, size: int) -> np.ndarray:
        """Borrow a buffer of at least ``size`` elements."""
        if size <= 0:
            size = 1
        cls = _size_class(size)
        if self.enabled:
            with self._lock:
                bucket = self._buckets[cls]
                if bucket:
                    self.hits += 1
                    return bucket.pop()
                self.misses += 1
        # Pool disabled or empty: allocate on the data path (the behaviour the
        # paper attributes to the black-box baseline).
        self.allocations += 1
        return np.empty(cls, dtype=np.float64)

    def release(self, buffer: np.ndarray) -> None:
        """Return a borrowed buffer to the pool."""
        if not self.enabled:
            return
        cls = _size_class(int(buffer.shape[0]))
        with self._lock:
            bucket = self._buckets[cls]
            if len(bucket) < self.entries_per_class:
                bucket.append(buffer)
                self.returned += 1

    def memory_bytes(self) -> int:
        with self._lock:
            return sum(
                buf.nbytes for bucket in self._buckets.values() for buf in bucket
            )

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "allocations": self.allocations,
            "returned": self.returned,
            "pooled_bytes": self.memory_bytes(),
        }
