"""Tests for the shared-memory arena and its worker-side client."""

import numpy as np
import pytest

from repro.core.object_store import ObjectStore
from repro.operators import base as operator_base
from repro.operators.base import Parameter, _checksum_of
from repro.operators.linear import LinearRegressor
from repro.serving.shm_store import (
    ArenaClient,
    ArenaExhaustedError,
    ArenaRef,
    SharedMemoryArena,
    _size_class,
)


@pytest.fixture()
def arena():
    with SharedMemoryArena(budget_bytes=1024 * 1024) as owned:
        yield owned


def _param(values, name="w"):
    return Parameter(name, np.asarray(values, dtype=np.float64))


class TestSharedMemoryArena:
    def test_put_and_view_round_trip(self, arena):
        array = np.arange(32, dtype=np.float64)
        ref = arena.put_array(_checksum_of(array), array)
        view = arena.view(ref)
        np.testing.assert_array_equal(view, array)
        assert not view.flags.writeable

    def test_checksum_deduplicates(self, arena):
        array = np.arange(16, dtype=np.float64)
        checksum = _checksum_of(array)
        first = arena.put_array(checksum, array)
        second = arena.put_array(checksum, array.copy())
        assert first == second
        assert arena.dedup_hits == 1
        assert len(arena) == 1

    def test_distinct_contents_get_distinct_slabs(self, arena):
        a = arena.put_array("a", np.zeros(8))
        b = arena.put_array("b", np.ones(8))
        assert a.offset != b.offset
        assert arena.used_bytes == a.nbytes + b.nbytes

    def test_free_recycles_slab_constant_time(self, arena):
        first = arena.put_array("a", np.zeros(10))
        assert arena.free("a")
        assert not arena.free("a")  # double free is a no-op
        # The next same-size-class allocation takes the recycled slab instead
        # of bumping the arena pointer.
        bump_before = arena.allocated_bytes
        second = arena.put_array("b", np.ones(10))
        assert second.offset == first.offset
        assert arena.allocated_bytes == bump_before

    def test_budget_exhaustion_is_typed(self):
        with SharedMemoryArena(budget_bytes=4096) as tiny:
            tiny.put_array("a", np.zeros(256))  # 2048B slab
            with pytest.raises(ArenaExhaustedError):
                tiny.put_array("b", np.zeros(1024))  # needs 8192B

    def test_rejects_object_arrays(self, arena):
        with pytest.raises(TypeError):
            arena.put_array("bad", np.array([object()], dtype=object))

    def test_non_contiguous_input_is_stored_contiguously(self, arena):
        strided = np.arange(64, dtype=np.float64)[::2]
        ref = arena.put_array("s", strided)
        np.testing.assert_array_equal(arena.view(ref), strided)

    def test_stats_shape(self, arena):
        arena.put_array("a", np.zeros(8))
        stats = arena.stats()
        assert stats["parameters"] == 1
        assert stats["used_bytes"] == 64
        assert {"segment", "budget_bytes", "allocated_bytes", "dedup_hits"} <= set(stats)

    def test_ref_dict_round_trip(self):
        ref = ArenaRef(segment="seg", offset=128, nbytes=64, dtype="float64", shape=(4, 2))
        assert ArenaRef.from_dict(ref.to_dict()) == ref

    def test_free_after_close_is_a_noop(self):
        arena = SharedMemoryArena(budget_bytes=4096)
        arena.put_array("a", np.zeros(64))
        arena.close()
        # A late teardown must not mutate allocator metadata of an unlinked
        # segment: no free-list push, no counter bump, just False.
        assert arena.free("a") is False
        assert arena.frees == 0

    @pytest.mark.parametrize(
        "nbytes, expected", [(1, 64), (64, 64), (65, 128), (4097, 8192)]
    )
    def test_size_class_is_the_smallest_covering_power_of_two(self, nbytes, expected):
        assert _size_class(nbytes) == expected

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            SharedMemoryArena(budget_bytes=budget)

    @pytest.mark.parametrize("dtype", ["int8", "float32", "complex128", "bool"])
    def test_every_fixed_width_dtype_round_trips(self, arena, dtype):
        array = (np.arange(12).reshape(3, 4) % 3).astype(dtype)
        ref = arena.put_array(_checksum_of(array), array)
        view = arena.view(ref)
        assert view.dtype == array.dtype
        assert view.shape == (3, 4)
        np.testing.assert_array_equal(view, array)

    def test_freed_slab_is_reused_only_within_its_size_class(self, arena):
        small = arena.put_array("small", np.zeros(10))  # 80B -> 128B class
        arena.free("small")
        bump = arena.allocated_bytes
        bigger = arena.put_array("bigger", np.zeros(20))  # 160B -> 256B class
        assert bigger.offset == bump  # carved fresh, the 128B slab stays free
        assert arena.allocated_bytes == bump + 256
        same_class = arena.put_array("same", np.zeros(12))  # 96B -> 128B class
        assert same_class.offset == small.offset

    def test_stats_report_recycled_slabs(self, arena):
        arena.put_array("a", np.zeros(10))  # 128B class
        arena.put_array("b", np.zeros(100))  # 1024B class
        arena.free("a")
        arena.free("b")
        stats = arena.stats()
        assert stats["free_slabs"] == 2
        assert stats["free_slab_bytes"] == 128 + 1024
        assert stats["frees"] == 2
        assert stats["parameters"] == 0
        assert stats["used_bytes"] == 0
        assert stats["allocated_bytes"] == 128 + 1024

    def test_dedup_hit_allocates_nothing(self, arena):
        array = np.arange(40, dtype=np.float64)
        arena.put_array("x", array)
        bump = arena.allocated_bytes
        arena.put_array("x", array)
        assert arena.allocations == 1
        assert arena.allocated_bytes == bump

    def test_failed_put_leaves_the_arena_unchanged(self):
        with SharedMemoryArena(budget_bytes=4096) as tiny:
            tiny.put_array("a", np.zeros(256))  # 2048B slab
            before = tiny.stats()
            with pytest.raises(ArenaExhaustedError):
                tiny.put_array("b", np.zeros(1024))
            assert tiny.get("b") is None
            assert tiny.stats() == before

    def test_full_arena_fits_a_put_into_a_recycled_slab(self):
        """Only a free makes room: once full, a same-class put succeeds
        exactly when an earlier slab of that class was freed."""
        with SharedMemoryArena(budget_bytes=4096) as tiny:
            first = tiny.put_array("a", np.zeros(256))  # 2048B slab
            tiny.put_array("b", np.ones(256))  # fills the budget
            with pytest.raises(ArenaExhaustedError):
                tiny.put_array("c", np.full(256, 2.0))
            assert tiny.free("a")
            ref = tiny.put_array("c", np.full(256, 2.0))
            assert ref.offset == first.offset
            assert tiny.allocated_bytes == 4096
            np.testing.assert_array_equal(tiny.view(ref), np.full(256, 2.0))

    def test_get_and_refs_track_live_parameters(self, arena):
        ref = arena.put_array("a", np.zeros(8))
        assert arena.get("a") == ref
        snapshot = arena.refs()
        assert snapshot == {"a": ref}
        snapshot.clear()  # a copy: clearing it leaves the arena alone
        assert len(arena) == 1
        arena.free("a")
        assert arena.get("a") is None
        assert arena.refs() == {}

    def test_acquire_release_slab_round_trip(self, arena):
        offset, size = arena.acquire_slab(100)
        assert size == 128
        arena.release_slab(offset, size)
        assert arena.acquire_slab(120) == (offset, size)
        assert arena.allocated_bytes == 128

    def test_closed_arena_rejects_new_slabs(self):
        arena = SharedMemoryArena(budget_bytes=4096)
        offset, size = arena.acquire_slab(64)
        arena.close()
        with pytest.raises(RuntimeError):
            arena.put_array("a", np.zeros(8))
        with pytest.raises(RuntimeError):
            arena.acquire_slab(64)
        arena.release_slab(offset, size)  # a no-op after close
        assert arena.stats()["free_slabs"] == 0
        arena.close()  # idempotent

    def test_free_hands_the_slab_to_the_next_same_class_put(self, arena):
        """Why frees wait for every worker's teardown ack: the next put of
        the same class overwrites the bytes under any view still held."""
        old = arena.put_array("old", np.zeros(16))
        stale_view = arena.view(old)
        arena.free("old")
        new = arena.put_array("new", np.full(16, 7.0))
        assert new.offset == old.offset
        np.testing.assert_array_equal(stale_view, np.full(16, 7.0))


class TestArenaClient:
    def test_adopt_rebinds_to_shared_view(self, arena):
        parameter = _param(np.arange(24))
        ref = arena.put_array(parameter.checksum, parameter.value)
        client = ArenaClient(arena.name)
        try:
            client.update_refs({parameter.checksum: ref})
            adopted = client.adopt(parameter)
            assert adopted is not parameter
            np.testing.assert_array_equal(adopted.value, parameter.value)
            assert not adopted.value.flags.writeable
            assert adopted.checksum == parameter.checksum
            assert adopted.nbytes == parameter.nbytes
            assert client.adopted_parameters == 1
            assert client.is_shared(parameter)
        finally:
            client.close()

    def test_unknown_or_unshareable_parameters_stay_private(self, arena):
        client = ArenaClient(arena.name)
        try:
            unknown = _param(np.arange(8))
            assert client.adopt(unknown) is unknown
            vocabulary = Parameter("vocab", {"a": 0, "b": 1})
            assert client.adopt(vocabulary) is vocabulary
            assert not client.is_shared(vocabulary)
        finally:
            client.close()

    def test_rebind_operator_swaps_weight_arrays(self, arena, monkeypatch):
        operator = LinearRegressor(weights=np.arange(32, dtype=np.float64), bias=0.5)
        ref = arena.put_array(_checksum_of(operator.weights), operator.weights)
        client = ArenaClient(arena.name)
        try:
            client.update_refs({_checksum_of(operator.weights): ref})
            swapped = client.rebind_operator(operator)
            assert swapped == 1
            assert not operator.weights.flags.writeable
            np.testing.assert_array_equal(operator.weights, np.arange(32, dtype=np.float64))
            # The swapped array really is a view of the shared segment, and a
            # second pass recognizes it instead of double counting.
            assert client._is_arena_view(operator.weights)
            hashed = []
            monkeypatch.setattr(operator_base, "_checksum_of", hashed.append)
            assert client.rebind_operator(operator) == 0
            assert hashed == []
            assert client.stats()["rebound_arrays"] == 1
        finally:
            client.close()

    def test_drop_refs_stops_future_adoption(self, arena):
        parameter = _param(np.arange(24))
        ref = arena.put_array(parameter.checksum, parameter.value)
        client = ArenaClient(arena.name)
        try:
            client.update_refs({parameter.checksum: ref})
            assert client.drop_refs([parameter.checksum, "never-known"]) == 1
            assert client.adopt(parameter) is parameter
            assert not client.is_shared(parameter)
            assert client.drop_refs([parameter.checksum]) == 0
            assert client.stats()["known_refs"] == 0
        finally:
            client.close()

    def test_adopting_an_arena_view_keeps_the_parameter(self, arena):
        array = np.arange(24, dtype=np.float64)
        ref = arena.put_array(_checksum_of(array), array)
        client = ArenaClient(arena.name)
        try:
            client.update_refs({_checksum_of(array): ref})
            mapped = Parameter("w", client.view(ref))
            assert client.adopt(mapped) is mapped
            assert client.adopted_parameters == 1
            assert client.adopted_bytes == mapped.nbytes
        finally:
            client.close()

    def test_client_view_maps_the_owner_slab(self, arena):
        array = np.arange(16, dtype=np.float64)
        ref = arena.put_array("a", array)
        client = ArenaClient(arena.name)
        try:
            view = client.view(ref)
            assert client._is_arena_view(view)
            assert not client._is_arena_view(array)
            np.testing.assert_array_equal(view, array)
            assert not view.flags.writeable
        finally:
            client.close()

    def test_rebind_operator_leaves_unshared_arrays_private(self, arena):
        weights = np.arange(32, dtype=np.float64)
        operator = LinearRegressor(weights=weights, bias=0.5)
        client = ArenaClient(arena.name)
        try:
            assert client.rebind_operator(operator) == 0
            assert operator.weights is weights
            assert client.stats()["rebound_arrays"] == 0
        finally:
            client.close()

    def test_attaching_to_a_missing_segment_raises(self):
        with pytest.raises(FileNotFoundError):
            ArenaClient("pretzel-arena-no-such-segment")


class TestObjectStoreWithBacking:
    def test_adopted_parameters_accounted_as_shared(self, arena):
        parameter = _param(np.arange(128))
        ref = arena.put_array(parameter.checksum, parameter.value)
        client = ArenaClient(arena.name)
        try:
            client.update_refs({parameter.checksum: ref})
            store = ObjectStore(parameter_backing=client)
            stored = store.intern_parameter(parameter)
            assert not stored.value.flags.writeable  # rebound to the arena view
            assert store.memory_bytes() == 0  # bytes live in the arena
            assert store.shared_parameter_bytes() == parameter.nbytes
            stats = store.stats()
            assert stats["shared_parameter_bytes"] == parameter.nbytes
            assert stats["parameter_backing"]["adopted_parameters"] == 1
        finally:
            client.close()

    def test_private_parameters_still_owned(self, arena):
        client = ArenaClient(arena.name)
        try:
            store = ObjectStore(parameter_backing=client)
            parameter = store.intern_parameter(_param(np.arange(16)))
            assert store.memory_bytes() == parameter.nbytes
            assert store.shared_parameter_bytes() == 0
        finally:
            client.close()
