"""Shared-memory Object Store: one copy of each parameter across processes.

The single-process Object Store (Section 4.1.3) deduplicates operator
parameters *within* one runtime.  The serving tier shards a runtime across
worker processes, which would naively give every worker a private pickled
copy of every weight -- N times the paper's footprint.  This module keeps the
white-box sharing across the process boundary:

* :class:`SharedMemoryArena` -- the owner-side slab allocator over one
  ``multiprocessing.shared_memory`` segment.  Allocation and free are
  constant time in the style of fixed-size-class allocators (Blelloch & Wei,
  "Concurrent Fixed-Size Allocation and Free in Constant Time"): each
  power-of-two size class keeps a free list of slab offsets, a bump pointer
  carves fresh slabs, and both operations are a single push/pop.  The free
  lists are *concurrent*: each class is a ``collections.deque`` whose
  append/pop are single C calls -- atomic under the GIL, CPython's stand-in
  for the paper's CAS -- so the fast-path alloc and free take **no lock at
  all**; only the bump pointer, tail compaction, slab splitting and the
  compressed tier sit behind a narrow metadata lock.  Parameter buffers are
  deduplicated by the same content checksum the Object Store compares
  (:attr:`repro.operators.base.Parameter.checksum`), so a weight array
  registered by every worker occupies exactly one slab.
* :class:`ArenaRef` -- a picklable/JSON-able handle (segment, offset, dtype,
  shape) a worker needs to map one parameter.
* :class:`ArenaClient` -- the worker-side attachment.  It implements the
  :class:`~repro.core.object_store.ParameterBacking` hook: parameters whose
  checksum is in the arena are *adopted*, i.e. rebound to a read-only numpy
  view of the shared segment, and accounted by the worker's Object Store as
  mapped-once instead of owned.  ``rebind_operator`` additionally swaps an
  operator's private weight arrays for the shared views right after
  unpickling, so the private copies become garbage before the plan is
  registered.

When the owner enables the **compressed tier** (the cluster's
``arena_eviction_policy="compress-tiered"``), a cold parameter's slab can be
*compressed in place*: its raw bytes are squeezed through a stdlib codec
(:data:`CODECS` -- picked per slab by :class:`SizeAdaptiveCodecPolicy` from
the slab size, the owning plan's traffic EMA and the ratios each codec has
achieved so far), the payload moves into a smaller slab, and the original is
freed.  Rehydration (:meth:`SharedMemoryArena.decompress`) restores the raw
bytes into a fresh slab, bit-identically.  Because slabs are mapped by
offset and cannot move, compaction is lazy and tail-only: when an allocation
would otherwise exhaust the budget, free slabs touching the bump pointer are
returned to the bump region where any size class can be carved from them.

Only numpy arrays are arena-backed: a Python dict (e.g. an n-gram
vocabulary) cannot be mapped from raw shared bytes without rebuilding -- and
therefore duplicating -- its hash table, so dict parameters stay private to
each worker and are documented as the residual per-worker cost.
"""

from __future__ import annotations

import lzma
import os
import threading
import uuid
import zlib
from collections import deque
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.object_store import ParameterBacking
from repro.operators.base import Parameter
from repro.profiling.locks import ProfiledLock

__all__ = [
    "ArenaRef",
    "ArenaExhaustedError",
    "SharedMemoryArena",
    "ArenaClient",
    "SizeAdaptiveCodecPolicy",
    "CODECS",
]

#: smallest slab handed out; anything below this would be dominated by
#: rounding and bookkeeping.
_MIN_SLAB_BYTES = 64

#: codec registry for the compressed tier: name -> (compress, decompress).
#: Stdlib only -- the serving tier must not grow binary dependencies.
CODECS: Dict[str, Tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]] = {
    "zlib-fast": (lambda raw: zlib.compress(raw, 1), zlib.decompress),
    "zlib": (lambda raw: zlib.compress(raw, 6), zlib.decompress),
    "lzma": (lambda raw: lzma.compress(raw, preset=0), lzma.decompress),
}

#: slabs at least this big on sufficiently cold plans lead with the heavier
#: codec (better ratio, slower) -- the Ariadne-style size/hotness split
_DEEP_COLD_SLAB_BYTES = 256 * 1024
#: below this the fast codec leads: codec setup cost dominates tiny slabs
_SMALL_SLAB_BYTES = 64 * 1024
#: decayed-traffic threshold below which a big slab counts as deep-cold
_COLD_TRAFFIC_EMA = 0.5
#: a slab enters the compressed tier only if compressed/raw is at or below
#: this (and the payload lands in a smaller slab class); otherwise its plan
#: skips straight to privatize-then-evict
_MIN_COMPRESS_RATIO = 0.9


class SizeAdaptiveCodecPolicy:
    """Order codec candidates per slab: size, coldness, observed ratio.

    ``candidates`` returns codec names to try in order.  The static order
    comes from the slab size and the owning plan's decayed traffic (big and
    deep-cold leads with lzma, small leads with zlib level 1); on top of
    that, a per-codec EMA of *achieved* compression ratios reorders the
    list so a codec that demonstrably compresses this workload better gets
    tried first.  Ratios are rounded before sorting so noise does not flip
    the deterministic size order.  ``codec`` pins a single codec;
    ``"auto"`` (the cluster's choice) enables the adaptive order.
    """

    def __init__(self, codec: str = "auto"):
        if codec != "auto" and codec not in CODECS:
            raise ValueError(
                f"unknown arena codec {codec!r} (auto, {', '.join(sorted(CODECS))})"
            )
        self.codec = codec
        self._ratio_ema: Dict[str, float] = {}

    def candidates(self, nbytes: int, traffic_ema: float) -> List[str]:
        if self.codec != "auto":
            return [self.codec]
        if nbytes >= _DEEP_COLD_SLAB_BYTES and traffic_ema <= _COLD_TRAFFIC_EMA:
            order = ["lzma", "zlib"]
        elif nbytes >= _SMALL_SLAB_BYTES:
            order = ["zlib", "zlib-fast"]
        else:
            order = ["zlib-fast", "zlib"]
        return sorted(order, key=lambda name: round(self._ratio_ema.get(name, 0.5), 1))

    def record(self, codec: str, ratio: float) -> None:
        """Fold one achieved (compressed/raw) ratio into the codec's EMA."""
        previous = self._ratio_ema.get(codec)
        self._ratio_ema[codec] = ratio if previous is None else 0.5 * previous + 0.5 * ratio


@dataclass
class _CompressedSlab:
    """One compressed-tier entry: where the payload lives, how to restore."""

    codec: str
    #: slab holding the compressed payload (dtype uint8)
    ref: ArenaRef
    #: dtype/shape/nbytes of the original array (its offset is long freed)
    original: "ArenaRef"


class ArenaExhaustedError(MemoryError):
    """The arena's ``shm_budget_bytes`` cannot fit another allocation."""


@dataclass(frozen=True)
class ArenaRef:
    """Everything a process needs to map one shared parameter buffer."""

    segment: str
    offset: int
    nbytes: int
    dtype: str
    shape: Tuple[int, ...]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (sent to workers inside register messages)."""
        return {
            "segment": self.segment,
            "offset": self.offset,
            "nbytes": self.nbytes,
            "dtype": self.dtype,
            "shape": list(self.shape),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ArenaRef":
        return ArenaRef(
            segment=data["segment"],
            offset=int(data["offset"]),
            nbytes=int(data["nbytes"]),
            dtype=data["dtype"],
            shape=tuple(int(dim) for dim in data["shape"]),
        )


def _size_class(nbytes: int) -> int:
    """Round an allocation up to its power-of-two size class."""
    size = _MIN_SLAB_BYTES
    while size < nbytes:
        size *= 2
    return size


def _view(buffer: memoryview, ref: ArenaRef, writeable: bool) -> np.ndarray:
    array: np.ndarray = np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=buffer, offset=ref.offset
    )
    array.flags.writeable = writeable
    return array


def _shareable(array: np.ndarray) -> bool:
    """Only plain fixed-width arrays can live as raw shared bytes."""
    return isinstance(array, np.ndarray) and not array.dtype.hasobject


class SharedMemoryArena:
    """Owner side: a checksum-deduplicated slab allocator over one shm segment.

    The arena is created by the cluster (or any single owner); workers attach
    with :class:`ArenaClient` using :attr:`name`.  All allocation happens on
    the owner -- workers only map -- so no cross-process synchronization of
    the allocator metadata is needed.
    """

    def __init__(
        self,
        budget_bytes: int,
        name: Optional[str] = None,
        enable_compressed_tier: bool = False,
        codec: str = "auto",
    ):
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = budget_bytes
        segment_name = name or f"pretzel-arena-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._shm = shared_memory.SharedMemory(create=True, size=budget_bytes, name=segment_name)
        #: the metadata lock, held on the slow paths only: bump-pointer
        #: carving, tail compaction, slab splitting, the compressed tier, and
        #: close -- the fast-path alloc/free never touch it.
        self._lock = ProfiledLock("arena.meta")
        self._bump = 0
        #: size class -> free slab offsets (constant-time alloc/free).
        #: ``deque.append``/``deque.pop`` are single C calls -- atomic under
        #: the GIL -- so the deque itself is the ownership token: whoever
        #: pops (or ``remove``s) an offset owns the slab.
        self._free_lists: Dict[int, Deque[int]] = {}
        #: checksum -> live ref.  ``dict.setdefault`` is the publish point of
        #: `put_array` and ``dict.pop`` the claim point of `free`; both are
        #: single atomic C calls.
        self._refs: Dict[str, ArenaRef] = {}
        self.dedup_hits = 0
        self.allocations = 0
        self.frees = 0
        self._closed = False
        # -- compressed tier (inert unless enabled: the "traffic-ema" policy
        #    must keep allocator behavior and stats byte-identical) --
        self.enable_compressed_tier = enable_compressed_tier
        self.codec_policy = SizeAdaptiveCodecPolicy(codec=codec)
        #: checksum -> compressed payload entry (disjoint from ``_refs``)
        self._compressed: Dict[str, _CompressedSlab] = {}
        #: free slab offset -> size class (for tail reclamation)
        self._free_offset_class: Dict[int, int] = {}
        self.compressions = 0
        self.rehydrations = 0
        self.failed_compressions = 0
        self.bump_reclaimed_bytes = 0
        self._codec_counts: Dict[str, int] = {}

    @property
    def name(self) -> str:
        """Segment name workers attach to."""
        return self._shm.name

    # -- allocation ----------------------------------------------------------

    def _release_slab(self, offset: int, size: int) -> None:
        """Push a slab onto its size-class free list.  O(1).

        Safe without the metadata lock: the offset-class record is written
        *before* the deque publish, so tail reclamation never successfully
        claims an offset whose class it does not know, and ``deque.append``
        is the single atomic call that makes the slab allocatable.
        """
        self._free_offset_class[offset] = size
        self._free_lists.setdefault(size, deque()).append(offset)

    def _take_free_slab(self, size: int) -> Optional[int]:
        """Pop a recycled slab of this size class, if any.  O(1).

        ``deque.pop`` is one atomic C call: whoever gets the offset owns the
        slab, so this needs no lock (a raced-empty pop is a miss, not an
        error).  The offset-class record is dropped after the
        pop; a release/pop interleaving can at worst leave a slab without a
        record, which only costs a missed tail-reclaim opportunity -- the
        slab itself stays allocatable from its deque.
        """
        free = self._free_lists.get(size)
        if not free:
            return None
        try:
            offset = free.pop()
        except IndexError:
            return None
        self._free_offset_class.pop(offset, None)
        return offset

    def _reclaim_tail_locked(self) -> int:
        """Lazy tail-only compaction: fold free slabs back into the bump region.

        Slabs cannot move (workers map them by offset), so only free slabs
        that touch the bump pointer can be reclaimed -- but repeatedly, since
        each reclamation may expose the next.  Returns bytes reclaimed.  Runs
        only when the compressed tier is enabled: with plain eviction the
        monotone bump pointer is part of the PR 5 behavior contract.

        Holds the metadata lock, but lock-free allocators race it:
        ``deque.remove`` is the atomic claim -- success means this thread
        owns the slab (nobody else can pop a removed offset), ``ValueError``
        means an allocator took it after our snapshot and we just drop the
        stale record.
        """
        reclaimed = 0
        while True:
            tail = None
            for offset, size in list(self._free_offset_class.items()):
                if offset + size == self._bump:
                    tail = (offset, size)
                    break
            if tail is None:
                return reclaimed
            offset, size = tail
            free = self._free_lists.get(size)
            try:
                free.remove(offset)  # type: ignore[union-attr]
            except (AttributeError, ValueError):
                # Raced: a lock-free allocator popped this slab between the
                # snapshot and our claim.  Its record is stale; drop it so
                # the rescan makes progress (the owner's own record pop is a
                # no-op either way).
                self._free_offset_class.pop(offset, None)
                continue
            self._free_offset_class.pop(offset, None)
            self._bump = offset
            reclaimed += size
            self.bump_reclaimed_bytes += size

    def _split_free_slab_locked(self, size: int) -> Optional[int]:
        """Split the smallest free slab larger than ``size`` (buddy-style).

        Compressed payloads are far smaller than the parameter slabs whose
        freeing made room for them, and the exact-class free lists cannot
        serve them directly; halving a bigger slab keeps every piece a
        power-of-two class so `free` and tail reclaim work unchanged.
        Returns the carved offset, or None if no larger free slab exists.
        Tier-gated like tail reclaim: plain eviction never splits.  A pop
        raced empty by a lock-free allocator just moves on to the next
        larger class.
        """
        larger = sorted(
            s for s, free in list(self._free_lists.items()) if s > size and free
        )
        for chunk in larger:
            offset = self._take_free_slab(chunk)
            if offset is None:
                continue
            while chunk > size:
                chunk //= 2
                self._release_slab(offset + chunk, chunk)
            return offset
        return None

    def _allocate_locked(self, nbytes: int) -> Tuple[int, int]:
        """Reserve one slab with the metadata lock held; (offset, size_class).

        With the compressed tier enabled, a would-be exhaustion first tries
        tail compaction (free slabs of *other* size classes adjoining the
        bump pointer are returned to the carving region) and then splitting
        a larger free slab (power-of-two halving, so a freed parameter slab
        can serve the much smaller compressed payloads) before giving up.
        """
        size = _size_class(nbytes)
        offset = self._take_free_slab(size)
        if offset is not None:
            return offset, size
        if self._bump + size > self.budget_bytes and self.enable_compressed_tier:
            self._reclaim_tail_locked()
            if self._bump + size > self.budget_bytes:
                offset = self._split_free_slab_locked(size)
                if offset is not None:
                    return offset, size
        if self._bump + size > self.budget_bytes:
            raise ArenaExhaustedError(
                f"arena {self.name} exhausted: {self._bump}B used of "
                f"{self.budget_bytes}B budget, cannot fit {size}B slab"
            )
        offset = self._bump
        self._bump += size
        return offset, size

    def _allocate(self, nbytes: int) -> Tuple[int, int]:
        """Allocation: free-list pop first, metadata lock only on a miss.

        The fast path -- a recycled slab of the right class exists -- is a
        single lock-free deque pop.  Only a miss falls into the metadata
        lock for bump carving (which re-checks the free list: a slab may
        have been freed while we waited).
        """
        size = _size_class(nbytes)
        offset = self._take_free_slab(size)
        if offset is not None:
            return offset, size
        with self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            return self._allocate_locked(nbytes)

    def acquire_slab(self, nbytes: int) -> Tuple[int, int]:
        """Reserve one raw slab; returns (offset, size_class).

        The allocator's public fast path, used by the contention microbench:
        it exercises exactly the slab acquisition `put_array` performs, minus
        the numpy copy and ref bookkeeping that dominate its wall time.
        """
        if self._closed:
            raise RuntimeError("arena is closed")
        return self._allocate(nbytes)

    def release_slab(self, offset: int, size: int) -> None:
        """Return a raw slab taken with :meth:`acquire_slab`.  O(1)."""
        if not self._closed:
            self._release_slab(offset, size)

    def put_array(self, checksum: str, array: np.ndarray) -> ArenaRef:
        """Store (or find) the shared copy of ``array``; dedup by checksum.

        Compute-then-publish: the dedup probe, the slab write and the
        publish all happen without the metadata lock; the atomic
        ``setdefault`` is the linearization point, and the loser of a
        same-checksum race simply recycles its private slab as one more
        dedup hit.
        """
        if not _shareable(array):
            raise TypeError("only fixed-width numpy arrays can be arena-backed")
        contiguous = np.ascontiguousarray(array)
        if self._closed:
            raise RuntimeError("arena is closed")
        existing = self._refs.get(checksum)  # atomic probe
        if existing is not None:
            self.dedup_hits += 1
            return existing
        if checksum in self._compressed:
            # The bytes already live here, just squeezed: dedup by restoring
            # the compressed entry instead of storing a twin.  The restore
            # stays fully serialized (tier metadata is only ever touched
            # under the lock); re-check both tables once inside.
            with self._lock:
                if self._closed:
                    raise RuntimeError("arena is closed")
                existing = self._refs.get(checksum)
                if existing is not None:
                    self.dedup_hits += 1
                    return existing
                if checksum in self._compressed:
                    ref = self._decompress_locked(checksum)
                    self.dedup_hits += 1
                    return ref
            # Entry vanished (freed) between the probes: store it fresh.
        offset, size = self._allocate(contiguous.nbytes)
        ref = self._build_ref(offset, contiguous)
        self._write_slab(ref, contiguous)
        published = self._refs.setdefault(checksum, ref)  # atomic publish
        if published is not ref:
            # Lost the publish race: identical content already landed.
            self._release_slab(offset, size)
            self.dedup_hits += 1
            return published
        self.allocations += 1
        return ref

    def _build_ref(self, offset: int, contiguous: np.ndarray) -> ArenaRef:
        return ArenaRef(
            segment=self.name,
            offset=offset,
            nbytes=int(contiguous.nbytes),
            dtype=str(contiguous.dtype),
            shape=tuple(contiguous.shape),
        )

    def _write_slab(self, ref: ArenaRef, contiguous: np.ndarray) -> None:
        destination = _view(self._shm.buf, ref, writeable=True)
        destination[...] = contiguous
        destination.flags.writeable = False

    def free(self, checksum: str) -> bool:
        """Return a parameter's slab to its size class free list.  O(1).

        Liveness contract: the owner must only free a parameter once no
        worker still serves a plan mapping it -- a recycled slab is
        overwritten by the next same-class ``put_array``, which would
        silently change the bytes under any still-adopted view.  The serving
        tier enforces this with the control plane's reference-counted plan
        lifecycle (:class:`repro.serving.control.lifecycle.PlanLifecycle`):
        a slab is freed only when the last plan referencing its checksum has
        been torn down on every hosting worker.

        After :meth:`close` this is a no-op returning False: a late teardown
        (e.g. a raced unregister during shutdown) must not mutate allocator
        metadata of an unlinked segment.  (A free racing the close itself
        can leave one stray bookkeeping entry; harmless, the segment is
        already unlinked.)  Compressed-tier entries are freed the same way
        -- their payload slab is released.
        """
        if self._closed:
            return False
        # ``dict.pop`` is the atomic claim: exactly one of two racing frees
        # (or a free racing commit_compress) gets the ref.
        ref = self._refs.pop(checksum, None)
        if ref is None:
            with self._lock:
                entry = self._compressed.pop(checksum, None)
                if entry is None:
                    return False
                self._release_slab(entry.ref.offset, _size_class(entry.ref.nbytes))
                self.frees += 1
                return True
        # The slab's class is derivable from the payload size (slabs are
        # always carved at ``_size_class(nbytes)``), so no side table -- and
        # therefore no table/claim race -- is needed.
        self._release_slab(ref.offset, _size_class(ref.nbytes))
        self.frees += 1
        return True

    # -- compressed tier -------------------------------------------------------

    def _require_tier(self) -> None:
        if not self.enable_compressed_tier:
            raise RuntimeError("compressed tier is disabled on this arena")

    def trial_compress(
        self, checksum: str, traffic_ema: float = 0.0
    ) -> Optional[Tuple[str, bytes]]:
        """Try codecs for one resident slab; return (codec, payload) or None.

        Pure read: no allocator state changes, so the caller can trial every
        slab of a victim plan and only commit if the whole plan benefits.  A
        payload qualifies only if it beats ``_MIN_COMPRESS_RATIO`` AND lands
        in a strictly smaller size class -- compression that does not shrink
        the slab is footprint noise.  Misses feed ``failed_compressions`` so
        the stats show incompressible plans skipping to eviction.
        """
        self._require_tier()
        with self._lock:
            ref = self._refs.get(checksum)
            if ref is None:
                return None
            raw = bytes(_view(self._shm.buf, ref, writeable=False).tobytes())
            for codec in self.codec_policy.candidates(ref.nbytes, traffic_ema):
                payload = CODECS[codec][0](raw)
                ratio = len(payload) / max(1, ref.nbytes)
                self.codec_policy.record(codec, ratio)
                if ratio <= _MIN_COMPRESS_RATIO and _size_class(len(payload)) < _size_class(
                    ref.nbytes
                ):
                    return codec, payload
            self.failed_compressions += 1
            return None

    def commit_compress(self, checksum: str, codec: str, payload: bytes) -> bool:
        """Move a resident slab into the compressed tier.  Frees the original
        slab, stores the payload in a (strictly smaller) slab, and records the
        entry.  Returns False -- with the resident slab intact -- if the
        checksum is gone or the payload slab cannot be placed.

        Liveness contract as for :meth:`free`: the caller must have torn the
        owning plan down on every worker first, since the original slab is
        recycled here.
        """
        self._require_tier()
        if codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r}")
        with self._lock:
            if self._closed:
                return False
            # The metadata lock is held, but lock-free `free`/`put_array` do
            # not take it: a released slab can be stolen before any
            # re-acquire, so the original is released only after the payload
            # has a home.
            ref = self._refs.get(checksum)
            if ref is None:
                return False
            size = _size_class(ref.nbytes)
            if _size_class(len(payload)) >= size:
                # Would not shrink the slab (the trial gate normally prevents
                # this); in-place carving below also relies on strict shrink.
                return False
            # Claim the ref before touching slabs: exactly one of this commit
            # and any concurrent free gets the original.
            claimed = self._refs.pop(checksum, None)
            if claimed is None:
                return False
            carved_in_place = False
            try:
                offset, _ = self._allocate_locked(len(payload))
            except ArenaExhaustedError:
                # No room elsewhere: carve the payload out of the original
                # slab itself (its class is strictly larger).  The remainder
                # halves are published buddy-style; the payload occupies the
                # slab's front, which we own outright -- no steal window.
                carved_in_place = True
                payload_size = _size_class(len(payload))
                offset = claimed.offset
                chunk = size
                while chunk > payload_size:
                    chunk //= 2
                    self._release_slab(offset + chunk, chunk)
            self._finish_compress(checksum, codec, payload, claimed, offset)
            if not carved_in_place:
                self._release_slab(claimed.offset, size)
            return True

    def _finish_compress(
        self, checksum: str, codec: str, payload: bytes, original: ArenaRef, offset: int
    ) -> None:
        """Write the payload slab and record the tier entry (lock held)."""
        self.frees += 1
        self.allocations += 1
        payload_ref = ArenaRef(
            segment=self.name,
            offset=offset,
            nbytes=len(payload),
            dtype="uint8",
            shape=(len(payload),),
        )
        destination = _view(self._shm.buf, payload_ref, writeable=True)
        destination[...] = np.frombuffer(payload, dtype=np.uint8)
        destination.flags.writeable = False
        self._compressed[checksum] = _CompressedSlab(
            codec=codec, ref=payload_ref, original=original
        )
        self.compressions += 1
        self._codec_counts[codec] = self._codec_counts.get(codec, 0) + 1

    def _decompress_locked(self, checksum: str) -> ArenaRef:
        """Restore a compressed entry into a fresh resident slab (lock held)."""
        entry = self._compressed[checksum]
        original = entry.original
        # Allocate the resident slab *first*: freeing the payload before a
        # failed allocation would strand the compressed bytes with nothing to
        # rehydrate from.  ArenaExhaustedError propagates with the entry
        # intact, so the caller can make room and retry.
        offset, _ = self._allocate_locked(original.nbytes)
        self.allocations += 1
        raw = CODECS[entry.codec][1](
            bytes(_view(self._shm.buf, entry.ref, writeable=False).tobytes())
        )
        ref = ArenaRef(
            segment=self.name,
            offset=offset,
            nbytes=original.nbytes,
            dtype=original.dtype,
            shape=original.shape,
        )
        destination = _view(self._shm.buf, ref, writeable=True)
        destination[...] = np.frombuffer(raw, dtype=np.dtype(original.dtype)).reshape(
            original.shape
        )
        destination.flags.writeable = False
        self._refs[checksum] = ref
        del self._compressed[checksum]
        self._release_slab(entry.ref.offset, _size_class(entry.ref.nbytes))
        self.frees += 1
        self.rehydrations += 1
        return ref

    def decompress(self, checksum: str) -> ArenaRef:
        """Rehydrate one compressed entry; returns the new resident ref.

        Raises KeyError for unknown checksums and ArenaExhaustedError (entry
        preserved) when no resident slab fits.
        """
        self._require_tier()
        with self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            existing = self._refs.get(checksum)
            if existing is not None:
                return existing
            if checksum not in self._compressed:
                raise KeyError(checksum)
            return self._decompress_locked(checksum)

    def is_compressed(self, checksum: str) -> bool:
        with self._lock:
            return checksum in self._compressed

    def compressed_checksums(self) -> List[str]:
        with self._lock:
            return list(self._compressed)

    # -- lookups ---------------------------------------------------------------

    def get(self, checksum: str) -> Optional[ArenaRef]:
        return self._refs.get(checksum)  # dict.get is one atomic C call

    def refs(self) -> Dict[str, ArenaRef]:
        """Snapshot of every live (checksum -> ref) mapping."""
        return dict(self._refs)  # dict(...) snapshots atomically

    def view(self, ref: ArenaRef) -> np.ndarray:
        """Read-only array over the shared bytes (owner-side convenience)."""
        return _view(self._shm.buf, ref, writeable=False)

    # -- accounting ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Payload bytes of live parameters (what dedup actually shares).

        Compressed-tier entries count at their *compressed* size -- that is
        the whole point of the tier.  (Empty unless the tier is enabled.)
        """
        with self._lock:
            # list(...) snapshots each table in one atomic C call; lock-free
            # put/free keep mutating the live dicts even while we hold the
            # metadata lock, and iterating them directly would raise
            # "dict changed size during iteration".
            resident = sum(ref.nbytes for ref in list(self._refs.values()))
            squeezed = sum(entry.ref.nbytes for entry in list(self._compressed.values()))
            return resident + squeezed

    @property
    def allocated_bytes(self) -> int:
        """Bytes carved from the segment, including slab rounding."""
        with self._lock:
            return self._bump

    def __len__(self) -> int:
        return len(self._refs)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            # Atomic list(...) snapshots: lock-free put/free mutate the live
            # tables without this lock (see `used_bytes`).
            refs = list(self._refs.values())
            compressed = list(self._compressed.values())
            free_lists = list(self._free_lists.items())
            used = sum(ref.nbytes for ref in refs) + sum(
                entry.ref.nbytes for entry in compressed
            )
            stats: Dict[str, Any] = {
                "segment": self.name,
                "budget_bytes": self.budget_bytes,
                "used_bytes": used,
                "allocated_bytes": self._bump,
                "parameters": len(refs),
                "dedup_hits": self.dedup_hits,
                "allocations": self.allocations,
                "frees": self.frees,
                # recycled slabs sitting on the size-class free lists, i.e.
                # bytes reclaimable without growing the bump pointer
                "free_slabs": sum(len(offsets) for _, offsets in free_lists),
                "free_slab_bytes": sum(size * len(offsets) for size, offsets in free_lists),
            }
            if self.enable_compressed_tier:
                # Gated so the plain-eviction policy's stats stay byte-
                # identical to the pre-tier arena.
                stats["tier"] = {
                    "compressed_parameters": len(compressed),
                    "compressed_payload_bytes": sum(
                        entry.ref.nbytes for entry in compressed
                    ),
                    "compressed_original_bytes": sum(
                        entry.original.nbytes for entry in compressed
                    ),
                    "compressions": self.compressions,
                    "rehydrations": self.rehydrations,
                    "failed_compressions": self.failed_compressions,
                    "bump_reclaimed_bytes": self.bump_reclaimed_bytes,
                    "codecs": dict(self._codec_counts),
                }
            return stats

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Unmap and remove the segment (owner responsibility)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Live views (e.g. handed to a runtime in-process) keep the
            # mapping alive; the OS reclaims it when they are released.
            pass
        try:
            # With a fork start method children share this process's resource
            # tracker, and their attach/detach unregister (see ArenaClient)
            # may have removed our registration; re-register so unlink()'s
            # own unregister finds the entry instead of tripping the tracker.
            resource_tracker.register(self._shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedMemoryArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _rebound(parameter: Parameter, value: np.ndarray) -> Parameter:
    """Clone a Parameter onto a new value without re-checksumming.

    The shared view holds byte-identical content, so checksum and nbytes are
    carried over verbatim (recomputing them would rehash the whole buffer).
    """
    clone = Parameter.__new__(Parameter)
    clone.name = parameter.name
    clone.value = value
    clone.checksum = parameter.checksum
    clone.nbytes = parameter.nbytes
    return clone


class ArenaClient(ParameterBacking):
    """Worker side: attach to an arena and rebind parameters onto it.

    Implements the Object Store's :class:`ParameterBacking` hook: every new
    parameter registration whose checksum has a shared slab is rebound to a
    read-only view of that slab, so the worker maps the weight instead of
    owning a copy.  The (checksum -> ref) table arrives incrementally with
    each register message (:meth:`update_refs`).
    """

    def __init__(self, segment_name: str):
        self._shm = shared_memory.SharedMemory(name=segment_name)
        # CPython tracks *every* attach as if it owned the segment and would
        # unlink it when this process exits (bpo-38119); only the arena owner
        # may unlink, so deregister our attachment from the tracker.
        try:
            resource_tracker.unregister(self._shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
        self.segment_name = segment_name
        self._refs: Dict[str, ArenaRef] = {}
        self._lock = threading.Lock()
        self.adopted_parameters = 0
        self.adopted_bytes = 0
        self.rebound_arrays = 0

    def update_refs(self, refs: Dict[str, ArenaRef]) -> None:
        """Merge newly shared (checksum -> ref) mappings from the owner."""
        with self._lock:
            self._refs.update(refs)

    def drop_refs(self, checksums: Any) -> int:
        """Forget mappings whose slabs the owner is about to free.

        Sent with plan-teardown messages: once a slab is recycled, adopting a
        stale ref would map a *different* parameter's bytes.  Dropping the
        mapping only affects future adoptions -- arrays already rebound stay
        valid exactly as long as the owner's liveness contract guarantees
        (they are released by the same teardown that carries this drop).
        """
        with self._lock:
            dropped = 0
            for checksum in checksums:
                if self._refs.pop(checksum, None) is not None:
                    dropped += 1
            return dropped

    def view(self, ref: ArenaRef) -> np.ndarray:
        """Read-only array mapped over the shared slab."""
        return _view(self._shm.buf, ref, writeable=False)

    def privatize(self, object_store: Any, checksums: Any) -> int:
        """Replace adopted views of these checksums with private copies.

        The budget-pressure eviction path: the owner wants the slabs back
        while their plans are still registered, so before the slabs can be
        freed every canonical operator attribute and every stored parameter
        that maps them must be rebound onto process-private copies (one copy
        per (checksum, dtype, shape), shared by every attribute that
        referenced the slab with that layout -- two attributes holding
        differently-reshaped views of the same bytes each keep their own
        layout, and a stored parameter is rebound onto a copy matching *its*
        value's layout, never a last-attribute-wins one).  Ends by dropping
        the refs, so later registrations re-adopt nothing.  Returns how many
        operator arrays were privatized.
        """
        from repro.operators.base import _checksum_of

        wanted = set(checksums)
        if not wanted:
            return 0
        copies: Dict[Tuple[str, str, Tuple[int, ...]], np.ndarray] = {}

        def private_copy(checksum: str, value: np.ndarray) -> np.ndarray:
            key = (checksum, str(value.dtype), tuple(value.shape))
            private = copies.get(key)
            if private is None:
                private = np.array(value)
                copies[key] = private
            return private

        swapped = 0
        for operator in object_store.operators():
            attributes = getattr(operator, "__dict__", None)
            if not attributes:
                continue
            for attr_name, value in list(attributes.items()):
                if not self._is_arena_view(value):
                    continue
                checksum = _checksum_of(value)
                if checksum not in wanted:
                    continue
                setattr(operator, attr_name, private_copy(checksum, value))
                swapped += 1
        for checksum in wanted:

            def resolve(parameter: Parameter, checksum: str = checksum) -> Optional[np.ndarray]:
                value = parameter.value
                if isinstance(value, np.ndarray) and self._is_arena_view(value):
                    return private_copy(checksum, value)
                return None  # already private (or not an array): leave it alone

            if hasattr(object_store, "rebind_parameters"):
                object_store.rebind_parameters(checksum, resolve)
            else:
                ref = self._ref_for(checksum)
                if ref is not None:
                    object_store.replace_parameter_value(
                        checksum, private_copy(checksum, self.view(ref))
                    )
        self.drop_refs(wanted)
        return swapped

    def _ref_for(self, checksum: str) -> Optional[ArenaRef]:
        with self._lock:
            return self._refs.get(checksum)

    # -- ParameterBacking protocol ---------------------------------------------

    def adopt(self, parameter: Parameter) -> Parameter:
        if not _shareable(parameter.value):
            return parameter
        ref = self._ref_for(parameter.checksum)
        if ref is None:
            return parameter
        self.adopted_parameters += 1
        self.adopted_bytes += parameter.nbytes
        if self._is_arena_view(parameter.value):
            return parameter  # already a shared view (built from a rebound operator)
        return _rebound(parameter, self.view(ref))

    def _is_arena_view(self, value: Any) -> bool:
        """True when the array's storage is this client's shared segment.

        Walks the base chain (a slice of a view has the view as its base)
        down to the backing object; numpy records the segment's ``mmap`` --
        the memoryview's ``.obj`` -- as the ultimate base.
        """
        if not isinstance(value, np.ndarray):
            return False
        buf = self._shm.buf
        segment_mmap = getattr(buf, "obj", None)
        base = value.base
        while base is not None:
            if base is buf or (segment_mmap is not None and base is segment_mmap):
                return True
            if isinstance(base, np.ndarray):
                base = base.base
            elif isinstance(base, memoryview):
                base = base.obj
            else:
                return False
        return False

    def adopt_operator(self, operator: Any) -> None:
        """Rebind a new canonical operator's arrays to shared views.

        The Object Store calls this right before keeping the operator as the
        canonical executing instance, i.e. *after* plan compilation rewrote
        its trained state -- the point where attribute-level rebinding
        actually reaches the arrays the hot path will touch.
        """
        self.rebind_operator(operator)

    def is_shared(self, parameter: Parameter) -> bool:
        return _shareable(parameter.value) and self._ref_for(parameter.checksum) is not None

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            known = len(self._refs)
        return {
            "segment": self.segment_name,
            "known_refs": known,
            "adopted_parameters": self.adopted_parameters,
            "adopted_bytes": self.adopted_bytes,
            "rebound_arrays": self.rebound_arrays,
        }

    # -- operator rebinding -------------------------------------------------------

    def rebind_operator(self, operator: Any) -> int:
        """Swap an operator's private weight arrays for shared views.

        Walks the operator's attributes; every fixed-width numpy array whose
        content checksum has a shared slab is replaced by the read-only view,
        releasing the private copy that unpickling created.  Returns how many
        arrays were rebound.
        """
        from repro.operators.base import _checksum_of

        swapped = 0
        attributes = getattr(operator, "__dict__", None)
        if not attributes:
            return 0
        for attr_name, value in list(attributes.items()):
            if not _shareable(value) or value.nbytes == 0:
                continue
            ref = self._ref_for(_checksum_of(value))
            if ref is None:
                continue
            if np.dtype(ref.dtype) != value.dtype or ref.shape != value.shape:
                continue
            setattr(operator, attr_name, self.view(ref))
            swapped += 1
        self.rebound_arrays += swapped
        return swapped

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:
            # Adopted views are still referenced by registered plans; the
            # mapping dies with the process.
            pass
