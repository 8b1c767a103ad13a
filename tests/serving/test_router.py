"""Tests for consistent-hash placement, dispatch and admission control."""

import pytest

from repro.serving.router import BackpressureError, ConsistentHashRing, ShardRouter


class TestConsistentHashRing:
    def test_placement_is_deterministic_across_instances(self):
        nodes = [f"worker-{i}" for i in range(4)]
        first = ConsistentHashRing(nodes)
        second = ConsistentHashRing(list(reversed(nodes)))
        for key in (f"plan-{i}" for i in range(50)):
            assert first.placement(key, 2) == second.placement(key, 2)

    def test_replicas_are_distinct_and_capped(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        placed = ring.placement("plan", replicas=5)
        assert len(placed) == 3
        assert len(set(placed)) == 3

    def test_adding_a_node_moves_a_minority_of_keys(self):
        keys = [f"plan-{i}" for i in range(200)]
        before = ConsistentHashRing([f"w{i}" for i in range(4)])
        after = ConsistentHashRing([f"w{i}" for i in range(5)])
        moved = sum(
            1 for key in keys if before.placement(key, 1) != after.placement(key, 1)
        )
        # Ideal is 1/5 of the keys; virtual nodes keep it well under half.
        assert moved < len(keys) // 2

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])


class TestShardRouter:
    def _router(self, **overrides):
        defaults = dict(replicas=2, max_inflight_per_worker=2)
        defaults.update(overrides)
        return ShardRouter(["w0", "w1", "w2"], **defaults)

    def test_place_memoizes(self):
        router = self._router()
        assert router.place("plan") == router.place("plan")
        assert router.placements() == {"plan": router.place("plan")}

    def test_acquire_requires_placement(self):
        with pytest.raises(KeyError):
            self._router().acquire("never-placed")

    def test_acquire_prefers_least_loaded(self):
        router = self._router(max_inflight_per_worker=8)
        placed = router.place("plan")
        # Two consecutive dispatches spread over both placed workers: after
        # the first acquire, the other worker is the least loaded.
        assert {router.acquire("plan"), router.acquire("plan")} == set(placed)

    def test_least_inflight_dispatch_with_worker_id_tie_break(self):
        """Scripted acquire/release over 3 workers and 2 overlapping placements.

        Every choice is the placed worker with the fewest in-flight
        dispatches, the lower worker id on a tie.  The harness-only
        ``backlog_ttl_seconds=`` and ``release(backlog=)`` change none of them.
        """
        script = [
            ("acquire", "a", "w0"),  # 0/0 tie -> lower id
            ("acquire", "a", "w1"),
            ("acquire", "b", "w2"),  # w1 1, w2 0
            ("acquire", "b", "w1"),  # 1/1 tie -> lower id
            ("acquire", "a", "w0"),  # w0 1, w1 2
            ("release", "w1", None),
            ("acquire", "a", "w1"),  # w0 2, w1 1
            ("release", "w2", None),
            ("acquire", "b", "w2"),  # w1 2, w2 0
            ("release", "w0", None),
            ("release", "w0", None),
            ("acquire", "b", "w2"),  # w1 2, w2 1
            ("acquire", "a", "w0"),  # w0 0, w1 2
        ]

        def run(router, backlog):
            router.set_placement("a", ["w0", "w1"])
            router.set_placement("b", ["w1", "w2"])
            chosen = []
            for step, (op, arg, _expected) in enumerate(script):
                if op == "acquire":
                    chosen.append(router.acquire(arg))
                elif backlog:
                    router.release(arg, backlog=100 * (step + 1))
                else:
                    router.release(arg)
            return chosen, router.stats()["inflight"]

        expected = [worker for op, _arg, worker in script if op == "acquire"]
        inflight = {"w0": 1, "w1": 2, "w2": 2}
        plain = ShardRouter(["w0", "w1", "w2"], max_inflight_per_worker=8)
        assert run(plain, backlog=False) == (expected, inflight)
        harness = ShardRouter(
            ["w0", "w1", "w2"], max_inflight_per_worker=8, backlog_ttl_seconds=5.0
        )
        assert run(harness, backlog=True) == (expected, inflight)

    def test_release_returns_slot(self):
        router = self._router(max_inflight_per_worker=1)
        router.place("plan")
        worker = router.acquire("plan")
        router.release(worker)
        assert router.inflight(worker) == 0

    def test_saturation_sheds_with_typed_error(self):
        router = self._router(max_inflight_per_worker=1)
        placed = router.place("plan")
        for _ in placed:
            router.acquire("plan")
        with pytest.raises(BackpressureError) as excinfo:
            router.acquire("plan")
        error = excinfo.value
        assert error.plan_id == "plan"
        assert set(error.loads) == set(placed)
        assert error.max_inflight == 1
        stats = router.stats()
        assert stats["shed"] == 1
        assert stats["dispatched"] == len(placed)
        # Admission control bounds the queue: nothing exceeds the limit.
        assert all(count <= 1 for count in stats["inflight"].values())

    def test_shed_slot_freed_by_release(self):
        router = self._router(max_inflight_per_worker=1)
        placed = router.place("plan")
        workers = [router.acquire("plan") for _ in placed]
        with pytest.raises(BackpressureError):
            router.acquire("plan")
        router.release(workers[0])
        assert router.acquire("plan") == workers[0]


class TestBackpressureRetryMetadata:
    """The typed shed carries everything a client needs for informed retry."""

    def test_error_carries_observed_loads_and_limit(self):
        router = ShardRouter(["w0", "w1", "w2"], replicas=2, max_inflight_per_worker=1)
        placed = router.place("plan")
        for _ in placed:
            router.acquire("plan")
        with pytest.raises(BackpressureError) as excinfo:
            router.acquire("plan")
        error = excinfo.value
        assert error.retryable is True
        # The loads snapshot covers exactly the placed workers, at the limit.
        assert error.loads == {worker: 1 for worker in placed}
        assert error.max_inflight == 1
        assert error.plan_id == "plan"
        # The snapshot is a copy: releasing a slot does not mutate the error.
        router.release(placed[0])
        assert error.loads[placed[0]] == 1

    def test_retry_after_release_succeeds(self):
        router = ShardRouter(["w0", "w1"], replicas=2, max_inflight_per_worker=1)
        placed = router.place("plan")
        workers = [router.acquire("plan") for _ in placed]
        with pytest.raises(BackpressureError):
            router.acquire("plan")
        router.release(workers[0])
        assert router.acquire("plan") == workers[0]


class TestPlacementDeterminismAcrossRestarts:
    """A restarted router (same worker set) must re-derive identical placements."""

    def test_same_plan_set_same_placements(self):
        workers = [f"worker-{i}" for i in range(5)]
        plans = [f"plan-{i}" for i in range(40)]
        first = ShardRouter(list(workers), replicas=2)
        before = {plan: first.place(plan) for plan in plans}
        # New process, same configuration: placements are a pure function of
        # (worker set, vnodes, plan id), not of registration order or history.
        second = ShardRouter(list(reversed(workers)), replicas=2)
        for plan in reversed(plans):
            assert second.place(plan) == before[plan]

    def test_replica_override_is_deterministic_too(self):
        first = ShardRouter([f"w{i}" for i in range(4)], replicas=1)
        second = ShardRouter([f"w{i}" for i in range(4)], replicas=1)
        assert first.place("p", replicas=3) == second.place("p", replicas=3)


class TestWorkerEviction:
    def test_evicted_worker_leaves_ring_placements_and_books(self):
        router = ShardRouter(["w0", "w1", "w2"], replicas=2)
        placed = router.place("plan")
        victim = placed[0]
        router.evict_worker(victim)
        assert victim not in router.workers()
        assert victim not in router.place("plan")
        assert victim not in router.ring.nodes
        stats = router.stats()
        assert stats["evicted_workers"] == [victim]
        assert victim not in stats["inflight"]
        # New plans hash over survivors only.
        for index in range(20):
            assert victim not in router.place(f"new-{index}")

    def test_acquire_with_every_replica_evicted_raises_worker_failed(self):
        from repro.serving.control.failure import WorkerFailedError

        router = ShardRouter(["w0", "w1"], replicas=2)
        for worker in list(router.place("plan")):
            router.evict_worker(worker)
        with pytest.raises(WorkerFailedError) as excinfo:
            router.acquire("plan")
        assert excinfo.value.retryable is True

    def test_place_with_no_survivors_raises_worker_failed(self):
        from repro.serving.control.failure import WorkerFailedError

        router = ShardRouter(["w0"], replicas=1)
        router.evict_worker("w0")
        with pytest.raises(WorkerFailedError):
            router.place("fresh-plan")

    def test_set_placement_rehomes(self):
        router = ShardRouter(["w0", "w1", "w2"], replicas=1)
        router.place("plan")
        router.set_placement("plan", ["w2"])
        assert router.place("plan") == ["w2"]
        assert router.acquire("plan") == "w2"

    def test_release_after_eviction_is_ignored(self):
        router = ShardRouter(["w0", "w1"], replicas=2)
        router.place("plan")
        worker = router.acquire("plan")
        router.evict_worker(worker)
        router.release(worker)  # reply raced the eviction
        assert worker not in router.stats()["inflight"]
        assert worker not in router.workers()
        assert router.inflight(worker) == 0

    def test_evicting_unknown_worker_is_a_noop(self):
        router = ShardRouter(["w0"], replicas=1)
        router.evict_worker("w9")
        assert router.workers() == ["w0"]

    def test_set_placement_filters_evicted_workers(self):
        """A fail-over racing a second death must not reinstate a worker that
        was evicted between the survivor snapshot and the re-homing write."""
        router = ShardRouter(["w0", "w1", "w2"], replicas=2)
        router.place("plan")
        router.evict_worker("w1")
        router.set_placement("plan", ["w1", "w2"])  # stale survivor list
        assert router.place("plan") == ["w2"]
        assert router.acquire("plan") == "w2"  # no KeyError on the dead member
