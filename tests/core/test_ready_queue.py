"""Invariants of the signature-indexed ready queues.

Three layers of coverage:

* direct :class:`ReadyQueue` unit tests -- FIFO pops, FIFO within a signature
  bucket, latency-sensitive exclusion from coalescing, depth bookkeeping;
* scheduler-level invariants -- per-signature depths stay consistent with the
  total queue depths across submit/pop/coalesce/shutdown interleavings;
* a property-style randomized interleaving test comparing the indexed
  scheduler's pop order, with batching off, against an oracle that replays
  the seed's two-flat-deque policy -- the refactor must be byte-identical
  on the scalar path.
"""

from __future__ import annotations

import random
from collections import deque

from repro.core.scheduler import InferenceRequest, ReadyQueue, Scheduler, StageEvent
from repro.testing import StubPlan


def _event(plan_id="p", signature="sig", latency_sensitive=False, record="x"):
    request = InferenceRequest(
        plan_id, StubPlan(signature), record, latency_sensitive=latency_sensitive
    )
    return StageEvent(request, 0)


class TestReadyQueueFIFO:
    def test_popleft_preserves_insertion_order(self):
        queue = ReadyQueue()
        events = [_event(f"p{i}", f"sig-{i % 3}") for i in range(9)]
        for event in events:
            queue.append(event)
        assert [queue.popleft() for _ in range(9)] == events
        assert queue.popleft() is None
        assert len(queue) == 0

    def test_pop_matching_is_fifo_within_the_bucket(self):
        queue = ReadyQueue()
        matching = []
        for i in range(8):
            event = _event(f"p{i}", "tok" if i % 2 == 0 else "other")
            queue.append(event)
            if i % 2 == 0:
                matching.append(event)
        assert queue.pop_matching("tok", limit=10) == matching
        # Non-matching events keep their relative FIFO order.
        leftover = [queue.popleft() for _ in range(len(queue))]
        assert [event.signature for event in leftover] == ["other"] * 4

    def test_pop_matching_respects_limit(self):
        queue = ReadyQueue()
        events = [_event(f"p{i}", "tok") for i in range(6)]
        for event in events:
            queue.append(event)
        assert queue.pop_matching("tok", limit=2) == events[:2]
        assert queue.pop_matching("tok", limit=0) == []
        assert len(queue) == 4
        # The next FIFO pop is the oldest survivor, not a later one.
        assert queue.popleft() is events[2]

    def test_latency_sensitive_events_never_coalesce_but_count(self):
        queue = ReadyQueue()
        sensitive = _event("ls", "tok", latency_sensitive=True)
        bulk = _event("bulk", "tok")
        queue.append(sensitive)
        queue.append(bulk)
        assert queue.coalescible_depth("tok") == 1
        assert queue.signature_depths() == {"tok": 2}
        assert queue.pop_matching("tok", limit=5) == [bulk]
        # The sensitive event is still there, FIFO-poppable.
        assert queue.signature_depths() == {"tok": 1}
        assert queue.popleft() is sensitive

    def test_depths_sum_to_len_and_drain_clears(self):
        queue = ReadyQueue()
        for i in range(10):
            queue.append(_event(f"p{i}", f"sig-{i % 4}", latency_sensitive=i % 3 == 0))
        assert sum(queue.signature_depths().values()) == len(queue) == 10
        queue.pop_matching("sig-1", limit=2)
        queue.popleft()
        assert sum(queue.signature_depths().values()) == len(queue)
        drained = queue.drain()
        assert len(drained) == len(set(id(event) for event in drained))
        assert len(queue) == 0
        assert queue.signature_depths() == {}
        assert queue.coalescible_depth("sig-1") == 0


def _scheduler_total_depth(scheduler):
    return sum(scheduler.queue_depths().values())


class TestSchedulerDepthConsistency:
    def _assert_consistent(self, scheduler):
        assert sum(scheduler.signature_depths().values()) == _scheduler_total_depth(scheduler)

    def test_depths_consistent_across_interleavings(self):
        rng = random.Random(42)
        scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=4)
        scheduler.reserve("reserved-plan", executor_id=7)
        signatures = ["a", "b", "c"]
        in_flight = []
        for step in range(400):
            action = rng.random()
            if action < 0.5:
                plan_id = "reserved-plan" if rng.random() < 0.2 else f"p{step}"
                plan = StubPlan(*rng.sample(signatures, k=rng.randint(1, 3)))
                scheduler.submit(
                    InferenceRequest(plan_id, plan, "x", latency_sensitive=rng.random() < 0.3)
                )
            elif action < 0.8:
                executor_id = rng.choice([0, 7])
                batch = scheduler.next_batch(executor_id, timeout=0.0)
                if batch is not None:
                    in_flight.extend(batch.events)
            elif in_flight:
                event = in_flight.pop(rng.randrange(len(in_flight)))
                scheduler.on_stage_complete(event, output=None)
            self._assert_consistent(scheduler)
        scheduler.shutdown()
        self._assert_consistent(scheduler)
        assert scheduler.queue_depths() == {"low": 0, "high": 0, "reserved[7]": 0}
        assert scheduler.signature_depths() == {}

    def test_signature_depths_report_per_signature_backlog(self):
        scheduler = Scheduler(enable_stage_batching=True)
        plan_ab = StubPlan("a", "b")
        plan_a = StubPlan("a")
        for i in range(3):
            scheduler.submit(InferenceRequest(f"x{i}", plan_ab, "r"))
        scheduler.submit(InferenceRequest("y", plan_a, "r"))
        assert scheduler.signature_depths() == {"a": 4}
        batch = scheduler.next_batch(0, timeout=0.0)
        assert len(batch) == 4
        scheduler.on_stage_complete(batch.events[0], output=None)
        assert scheduler.signature_depths() == {"b": 1}


class _SeedDequeOracle:
    """The seed scheduler's exact two-deque policy, replayed as an oracle.

    Mirrors the pre-refactor ``_enqueue``/``_pop_event`` logic verbatim:
    plain deques, reservations routed to private deques, high before low,
    strict FIFO within each.
    """

    def __init__(self):
        self.low = deque()
        self.high = deque()
        self.reservations = {}
        self.reserved_queues = {}

    def reserve(self, plan_id, executor_id):
        self.reservations[plan_id] = executor_id
        self.reserved_queues.setdefault(executor_id, deque())

    def submit(self, key, plan_id, is_first=True):
        executor_id = self.reservations.get(plan_id)
        if executor_id is not None:
            self.reserved_queues[executor_id].append(key)
        elif is_first:
            self.low.append(key)
        else:
            self.high.append(key)

    def pop(self, executor_id):
        reserved = self.reserved_queues.get(executor_id)
        if reserved is not None:
            return reserved.popleft() if reserved else None
        if self.high:
            return self.high.popleft()
        if self.low:
            return self.low.popleft()
        return None


class TestIndexedMatchesSeedDeques:
    """With batching off, pop order must be byte-identical to the seed deques."""

    def _run_interleaving(self, seed):
        rng = random.Random(seed)
        scheduler = Scheduler(enable_stage_batching=False)
        oracle = _SeedDequeOracle()
        for plan_id, executor_id in (("res-a", 5), ("res-b", 5), ("res-c", 9)):
            scheduler.reserve(plan_id, executor_id)
            oracle.reserve(plan_id, executor_id)
        signatures = ["s1", "s2", "s3", "s4"]
        executor_ids = [0, 1, 5, 9]
        in_flight = {}  # request_id -> pending StageEvent
        for step in range(600):
            action = rng.random()
            if action < 0.45:
                plan_id = rng.choice(["res-a", "res-b", "res-c", f"plan-{step}"])
                plan = StubPlan(*[rng.choice(signatures) for _ in range(rng.randint(1, 3))])
                request = InferenceRequest(
                    plan_id, plan, "x", latency_sensitive=rng.random() < 0.25
                )
                scheduler.submit(request)
                oracle.submit(request.request_id, plan_id, is_first=True)
            elif action < 0.85:
                executor_id = rng.choice(executor_ids)
                batch = scheduler.next_batch(executor_id, timeout=0.0)
                (event,) = batch if batch is not None else (None,)
                expected = oracle.pop(executor_id)
                assert (event.request.request_id if event else None) == expected
                if event is not None and not event.is_last:
                    in_flight[event.request.request_id] = event
            elif in_flight:
                request_id = rng.choice(list(in_flight))
                event = in_flight.pop(request_id)
                scheduler.on_stage_complete(event, output=None)
                oracle.submit(request_id, event.request.plan_id, is_first=False)
            # Depth bookkeeping must agree at every step too.
            depths = scheduler.queue_depths()
            assert depths["low"] == len(oracle.low)
            assert depths["high"] == len(oracle.high)
            for executor_id, queue in oracle.reserved_queues.items():
                assert depths[f"reserved[{executor_id}]"] == len(queue)

    def test_randomized_interleavings_match(self):
        for seed in range(5):
            self._run_interleaving(seed)

    def test_next_batch_with_batching_off_matches_too(self):
        """`next_batch` is the executor loop's entry point; off-mode batches
        must be singletons popped in the exact seed order."""
        rng = random.Random(99)
        scheduler = Scheduler(enable_stage_batching=False)
        oracle = _SeedDequeOracle()
        plan = StubPlan("s", "t")
        for i in range(50):
            request = InferenceRequest(f"p{i}", plan, "x")
            scheduler.submit(request)
            oracle.submit(request.request_id, f"p{i}")
        while True:
            batch = scheduler.next_batch(0, timeout=0.0)
            expected = oracle.pop(0)
            if batch is None:
                assert expected is None
                break
            assert len(batch) == 1
            assert batch.events[0].request.request_id == expected
            if rng.random() < 0.5 and not batch.events[0].is_last:
                scheduler.on_stage_complete(batch.events[0], output=None)
                oracle.submit(batch.events[0].request.request_id, "-", is_first=False)
