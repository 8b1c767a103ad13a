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
  all**; only the bump pointer sits behind a narrow metadata lock.
  Parameter buffers are deduplicated by the same content checksum the
  Object Store compares
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

Slabs are mapped by offset and never move; a full arena raises
:class:`ArenaExhaustedError`, and the owner keeps the parameter that did not
fit private to its workers.

Only numpy arrays are arena-backed: a Python dict (e.g. an n-gram
vocabulary) cannot be mapped from raw shared bytes without rebuilding -- and
therefore duplicating -- its hash table, so dict parameters stay private to
each worker and are documented as the residual per-worker cost.
"""

from __future__ import annotations

import os
import threading
import uuid
from collections import deque
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Deque, Dict, Optional, Tuple

import numpy as np

from repro.core.object_store import ParameterBacking
from repro.operators.base import Parameter
from repro.profiling.locks import ProfiledLock

__all__ = [
    "ArenaRef",
    "ArenaExhaustedError",
    "SharedMemoryArena",
    "ArenaClient",
]

#: smallest slab handed out; anything below this would be dominated by
#: rounding and bookkeeping.
_MIN_SLAB_BYTES = 64

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

    def __init__(self, budget_bytes: int, name: Optional[str] = None):
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = budget_bytes
        segment_name = name or f"pretzel-arena-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._shm = shared_memory.SharedMemory(create=True, size=budget_bytes, name=segment_name)
        #: the metadata lock, held on the slow paths only: bump-pointer
        #: carving, accounting snapshots and close -- the fast-path
        #: alloc/free never touch it.
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

    @property
    def name(self) -> str:
        """Segment name workers attach to."""
        return self._shm.name

    # -- allocation ----------------------------------------------------------

    def _release_slab(self, offset: int, size: int) -> None:
        """Push a slab onto its size-class free list.  O(1).

        Safe without the metadata lock: ``deque.append`` is the single
        atomic call that makes the slab allocatable.
        """
        self._free_lists.setdefault(size, deque()).append(offset)

    def _take_free_slab(self, size: int) -> Optional[int]:
        """Pop a recycled slab of this size class, if any.  O(1).

        ``deque.pop`` is one atomic C call: whoever gets the offset owns the
        slab, so this needs no lock (a raced-empty pop is a miss, not an
        error).
        """
        free = self._free_lists.get(size)
        if not free:
            return None
        try:
            return free.pop()
        except IndexError:
            return None

    def _allocate(self, nbytes: int) -> Tuple[int, int]:
        """Reserve one slab; returns (offset, size_class).

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
            offset = self._take_free_slab(size)
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
        already unlinked.)
        """
        if self._closed:
            return False
        # ``dict.pop`` is the atomic claim: exactly one of two racing frees
        # gets the ref.
        ref = self._refs.pop(checksum, None)
        if ref is None:
            return False
        # The slab's class is derivable from the payload size (slabs are
        # always carved at ``_size_class(nbytes)``), so no side table -- and
        # therefore no table/claim race -- is needed.
        self._release_slab(ref.offset, _size_class(ref.nbytes))
        self.frees += 1
        return True

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
        """Payload bytes of live parameters (what dedup actually shares)."""
        with self._lock:
            # list(...) snapshots the table in one atomic C call; lock-free
            # put/free keep mutating the live dict even while we hold the
            # metadata lock, and iterating it directly would raise
            # "dict changed size during iteration".
            return sum(ref.nbytes for ref in list(self._refs.values()))

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
            free_lists = list(self._free_lists.items())
            return {
                "segment": self.name,
                "budget_bytes": self.budget_bytes,
                "used_bytes": sum(ref.nbytes for ref in refs),
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
