"""Concurrency stress tests for the shared-memory arena.

The lock-free arena's correctness argument is that single C calls (deque
push/pop, dict setdefault/pop) are the atomic ownership tokens.  These tests
race the claimed-atomic paths from multiple threads and check the allocator
invariants that would break if the argument were wrong:

* no double-allocation and no overlapping live slabs,
* exactly-once frees (a raced ``free`` loses the claim and returns False),
* byte-equality of every array across dedup hits,
* the warm fast path never takes the ``arena.meta`` lock.
"""

import random
import threading

import numpy as np

from repro.profiling import GLOBAL_LOCK_REGISTRY
from repro.serving.shm_store import ArenaExhaustedError, SharedMemoryArena, _size_class

BUDGET = 4 * 1024 * 1024
THREADS = 4


def _assert_disjoint(intervals, bump):
    """Every (offset, size) interval must be disjoint and inside the bump."""
    spans = sorted(intervals)
    for (offset, size), (next_offset, next_size) in zip(spans, spans[1:]):
        assert offset + size <= next_offset, (
            f"overlapping slabs: [{offset}, {offset + size}) and "
            f"[{next_offset}, {next_offset + next_size})"
        )
    for offset, size in spans:
        assert 0 <= offset and offset + size <= bump


def _free_intervals(arena):
    return [
        (offset, size)
        for size, offsets in arena._free_lists.items()
        for offset in list(offsets)
    ]


def test_racing_acquire_release_slabs():
    """An alloc/free storm must never hand one slab to two owners."""
    arena = SharedMemoryArena(BUDGET)
    try:
        errors = []
        #: offset -> unique owner token; setdefault/del are the atomic
        #: detector: a second owner for a live offset sees a foreign token.
        claimed = {}
        survivors = []
        barrier = threading.Barrier(THREADS)

        def worker(seed):
            rng = random.Random(seed)
            held = []
            try:
                barrier.wait(timeout=10.0)
                for step in range(400):
                    if held and (rng.random() < 0.45 or len(held) > 8):
                        offset, size = held.pop(rng.randrange(len(held)))
                        del claimed[offset]
                        arena.release_slab(offset, size)
                        continue
                    nbytes = rng.choice((96, 1024, 4096, 16384))
                    try:
                        offset, size = arena.acquire_slab(nbytes)
                    except ArenaExhaustedError:
                        while held:
                            other_offset, other_size = held.pop()
                            del claimed[other_offset]
                            arena.release_slab(other_offset, other_size)
                        continue
                    token = (seed, step)
                    previous = claimed.setdefault(offset, token)
                    if previous is not token:
                        errors.append(
                            f"offset {offset} double-allocated: "
                            f"{previous} vs {token}"
                        )
                        return
                    held.append((offset, size))
                survivors.extend(held)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(repr(error))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        # Quiescent invariant: live slabs and free slabs tile the arena
        # without overlap.
        _assert_disjoint(survivors + _free_intervals(arena), arena._bump)
    finally:
        arena.close()


def test_warm_acquire_release_never_takes_the_meta_lock():
    """Once every size class has a free slab per thread, alloc/free pairs are
    pure free-list pops and pushes: ``arena.meta`` records 0 acquisitions."""
    sizes = (256, 1024, 4096)
    arena = SharedMemoryArena(BUDGET)
    try:
        # Warm: one spare slab per class beyond what THREADS can hold at once,
        # so no pop ever misses and falls back to bump carving.
        warm = [arena.acquire_slab(size) for size in sizes for _ in range(THREADS + 1)]
        for offset, size in warm:
            arena.release_slab(offset, size)
        GLOBAL_LOCK_REGISTRY.reset()
        barrier = threading.Barrier(THREADS)
        errors = []

        def worker(index):
            try:
                barrier.wait(timeout=10.0)
                for step in range(2000):
                    offset, size = arena.acquire_slab(sizes[(index + step) % len(sizes)])
                    arena.release_slab(offset, size)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(repr(error))

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        meta = GLOBAL_LOCK_REGISTRY.snapshot()["arena.meta"]
        assert meta["acquisitions"] == 0, meta
        assert arena.allocated_bytes == sum(size * (THREADS + 1) for size in sizes)
    finally:
        arena.close()


def test_racing_put_free_dedup_and_exactly_once_free():
    """Concurrent puts of the same checksums dedup to one slab each, every
    view is byte-equal, and each checksum's slab is freed exactly once."""
    arena = SharedMemoryArena(BUDGET)
    try:
        rng = np.random.default_rng(7)
        arrays = {
            f"chk-{index}": rng.standard_normal(2048 + 512 * index)
            for index in range(6)
        }
        errors = []
        free_wins = {checksum: [] for checksum in arrays}
        put_done = threading.Barrier(THREADS)

        def worker(seed):
            order = list(arrays.items())
            random.Random(seed).shuffle(order)
            try:
                for checksum, value in order:
                    ref = arena.put_array(checksum, value)
                    view = arena.view(ref)
                    if not np.array_equal(view, value):
                        errors.append(f"{checksum}: dedup view bytes differ")
                        return
                # No thread frees until every thread verified its views:
                # reading a view after another plan's free is outside the
                # arena's liveness contract (the cluster enforces it).
                put_done.wait(timeout=10.0)
                for checksum, _ in order:
                    if arena.free(checksum):
                        free_wins[checksum].append(seed)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(repr(error))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        for checksum, winners in free_wins.items():
            assert len(winners) == 1, (
                f"{checksum} freed {len(winners)} times (winners: {winners})"
            )
        assert arena.refs() == {}
        assert arena.used_bytes == 0
        # One slab per checksum despite THREADS puts of each.
        assert arena.allocations == len(arrays)
        assert arena.dedup_hits == (THREADS - 1) * len(arrays)
    finally:
        arena.close()


def test_racing_puts_past_the_budget_keep_accounting_exact():
    """Threads put distinct arrays until the arena is full: every put either
    publishes a byte-equal slab or raises ``ArenaExhaustedError`` and leaves
    no trace, and the published slabs never overlap or leave the budget."""
    budget = 64 * 1024
    arena = SharedMemoryArena(budget)
    try:
        rng = np.random.default_rng(11)
        arrays = {
            f"t{thread}-{index}": rng.standard_normal(int(rng.integers(64, 1024)))
            for thread in range(THREADS)
            for index in range(24)
        }
        stored = {}
        rejected = []
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(thread):
            try:
                barrier.wait(timeout=10.0)
                for index in range(24):
                    checksum = f"t{thread}-{index}"
                    try:
                        stored[checksum] = arena.put_array(checksum, arrays[checksum])
                    except ArenaExhaustedError:
                        rejected.append(checksum)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(repr(error))

        threads = [threading.Thread(target=worker, args=(thread,)) for thread in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert rejected, "the budget should overflow"
        assert len(stored) + len(rejected) == len(arrays)
        assert arena.refs() == stored
        assert arena.allocations == len(stored)
        assert arena.dedup_hits == 0
        for checksum in rejected:
            assert arena.get(checksum) is None
        for checksum, ref in stored.items():
            np.testing.assert_array_equal(arena.view(ref), arrays[checksum])
        live = [(ref.offset, _size_class(ref.nbytes)) for ref in stored.values()]
        _assert_disjoint(live + _free_intervals(arena), arena._bump)
        assert arena._bump <= budget
    finally:
        arena.close()

def test_double_free_returns_false():
    arena = SharedMemoryArena(BUDGET)
    try:
        arena.put_array("chk", np.ones(1024))
        assert arena.free("chk") is True
        assert arena.free("chk") is False
    finally:
        arena.close()
