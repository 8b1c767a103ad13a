"""Discrete-event simulation of the serving systems' scheduling policies.

Two execution models are simulated:

* **thread-per-request** (ML.Net and ML.Net + Clipper): every request runs a
  whole pipeline on one core; a shared pool of cores serves requests in FIFO
  order.  Optional per-core contention (duplicated model state stressing the
  memory hierarchy) and per-model-switch penalties (container context
  switches) reproduce the scaling behaviour the paper observes.
* **stage scheduler** (PRETZEL's batch engine): requests are decomposed into
  per-stage events scheduled with the same two-priority-queue, late-binding
  policy as :class:`repro.core.scheduler.Scheduler`, including reservations.

All times are virtual; service times come from calibration against the real
implementations (:mod:`repro.simulation.calibrate`).

Stage-level batch coalescing mirrors the real scheduler's *signature-indexed*
semantics: each simulated queue keeps a per-``(model, stage)`` index of its
coalescible entries (the simulator's stand-in for the physical-stage
signature), and batch members are taken from that index in FIFO order --
exactly what :class:`repro.core.scheduler.ReadyQueue` does -- rather than by
scanning the queue, and each pull is capped at ``max_stage_batch`` just as the
real scheduler caps it at ``max_stage_batch_size``.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ArrivalProcess",
    "Arrival",
    "SimulationResult",
    "simulate_thread_per_request",
    "simulate_stage_scheduler",
]


@dataclass
class Arrival:
    """One request arriving at the serving system."""

    time: float
    model: str
    batch_size: int = 1
    latency_sensitive: bool = True


class ArrivalProcess:
    """Deterministic arrival sequences for the load experiments."""

    @staticmethod
    def constant_rate(
        models: Sequence[str],
        requests_per_second: float,
        duration_seconds: float,
        batch_size: int = 1,
        seed: int = 0,
    ) -> List[Arrival]:
        """Requests at a constant aggregate rate, models drawn round-robin."""
        if requests_per_second <= 0:
            raise ValueError("requests_per_second must be positive")
        interval = 1.0 / requests_per_second
        count = int(round(duration_seconds * requests_per_second))
        return [
            Arrival(
                time=index * interval,
                model=models[index % len(models)],
                batch_size=batch_size,
            )
            for index in range(count)
        ]

    @staticmethod
    def from_model_sequence(
        model_sequence: Sequence[str],
        requests_per_second: float,
        batch_sizes: Optional[Dict[str, int]] = None,
        latency_sensitive: Optional[Dict[str, bool]] = None,
    ) -> List[Arrival]:
        """Arrivals following a pre-drawn (e.g. Zipf) model sequence."""
        interval = 1.0 / requests_per_second
        arrivals = []
        for index, model in enumerate(model_sequence):
            arrivals.append(
                Arrival(
                    time=index * interval,
                    model=model,
                    batch_size=(batch_sizes or {}).get(model, 1),
                    latency_sensitive=(latency_sensitive or {}).get(model, True),
                )
            )
        return arrivals


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    completed: int
    makespan_seconds: float
    latencies: List[float]
    latencies_sensitive: List[float]
    per_core_busy: List[float]
    #: stage batches formed / events they carried (0 when coalescing is off)
    batches_formed: int = 0
    batch_events: int = 0

    @property
    def mean_stage_batch(self) -> float:
        if self.batches_formed == 0:
            return 0.0
        return self.batch_events / self.batches_formed

    @property
    def throughput_qps(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.completed / self.makespan_seconds

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    @property
    def mean_latency_sensitive(self) -> float:
        if self.latencies_sensitive:
            return float(np.mean(self.latencies_sensitive))
        return self.mean_latency

    def p99_latency(self) -> float:
        return float(np.percentile(self.latencies, 99)) if self.latencies else 0.0

    @property
    def utilization(self) -> float:
        if not self.per_core_busy or self.makespan_seconds <= 0:
            return 0.0
        return float(np.mean(self.per_core_busy)) / self.makespan_seconds


def simulate_thread_per_request(
    arrivals: Sequence[Arrival],
    service_time_fn: Callable[[str, int], float],
    n_cores: int,
    contention_per_core: float = 0.0,
    model_switch_penalty: float = 0.0,
) -> SimulationResult:
    """Simulate the black-box execution model (one thread runs one request).

    ``contention_per_core`` inflates service times by that fraction for every
    core beyond the first, modelling the memory-subsystem pressure of
    duplicated per-thread model state (Section 5.3 observes ML.Net scaling
    sub-linearly for this reason).  ``model_switch_penalty`` is added whenever
    a core switches to a different model than it last served (container
    context switches in the Clipper deployment).
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    inflation = 1.0 + contention_per_core * (n_cores - 1)
    core_free_at = [0.0] * n_cores
    core_last_model: List[Optional[str]] = [None] * n_cores
    core_busy = [0.0] * n_cores
    latencies: List[float] = []
    latencies_sensitive: List[float] = []
    completed = 0
    makespan = 0.0
    for arrival in sorted(arrivals, key=lambda a: a.time):
        core = int(np.argmin(core_free_at))
        start = max(arrival.time, core_free_at[core])
        service = service_time_fn(arrival.model, arrival.batch_size) * inflation
        if model_switch_penalty and core_last_model[core] != arrival.model:
            service += model_switch_penalty
        finish = start + service
        core_free_at[core] = finish
        core_last_model[core] = arrival.model
        core_busy[core] += service
        latency = finish - arrival.time
        latencies.append(latency)
        if arrival.latency_sensitive:
            latencies_sensitive.append(latency)
        completed += arrival.batch_size
        makespan = max(makespan, finish)
    return SimulationResult(
        completed=completed,
        makespan_seconds=makespan,
        latencies=latencies,
        latencies_sensitive=latencies_sensitive,
        per_core_busy=core_busy,
    )


@dataclass
class _SimRequest:
    arrival: Arrival
    stage_times: List[float]
    next_stage: int = 0


class _SimQueue:
    """A ready-time-ordered event queue with a per-``(model, stage)`` index.

    The heap preserves the pop order of the seed simulator (earliest ready
    time, FIFO-by-sequence within a tie).  The index mirrors
    :class:`repro.core.scheduler.ReadyQueue`: coalescible entries (those of
    non-latency-sensitive requests) are bucketed by the ``(model, stage)``
    key they will run next, in insertion order, so batch members are taken
    FIFO from the leader's bucket instead of scanning the queue.  Entries
    coalesced out of band leave a tombstone that the heap skips lazily.

    A queued request has exactly one live entry, and ``next_stage`` only
    advances after the entry is popped or coalesced, so the key computed at
    push time is still valid at removal time.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, _SimRequest]] = []
        self._removed: set = set()
        self._index: Dict[Tuple[str, int], "OrderedDict[int, Tuple[float, _SimRequest]]"] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @staticmethod
    def _key(request: _SimRequest) -> Tuple[str, int]:
        return (request.arrival.model, request.next_stage)

    def push(self, ready: float, seq: int, request: _SimRequest) -> None:
        heapq.heappush(self._heap, (ready, seq, request))
        if not request.arrival.latency_sensitive:
            self._index.setdefault(self._key(request), OrderedDict())[seq] = (ready, request)
        self._size += 1

    def _compact_front(self) -> None:
        while self._heap and self._heap[0][1] in self._removed:
            _, seq, _ = heapq.heappop(self._heap)
            self._removed.discard(seq)

    def peek_ready(self) -> float:
        """Earliest ready time in the queue (``inf`` when empty)."""
        self._compact_front()
        return self._heap[0][0] if self._heap else float("inf")

    def pop(self) -> Tuple[float, int, _SimRequest]:
        self._compact_front()
        ready, seq, request = heapq.heappop(self._heap)
        if not request.arrival.latency_sensitive:
            key = self._key(request)
            bucket = self._index.get(key)
            if bucket is not None:
                bucket.pop(seq, None)
                if not bucket:
                    del self._index[key]
        self._size -= 1
        return ready, seq, request

    def coalesce(self, key: Tuple[str, int], start: float, limit: int) -> List[_SimRequest]:
        """Take up to ``limit`` ready entries for ``key``, oldest first."""
        bucket = self._index.get(key)
        if not bucket or limit <= 0:
            return []
        taken: List[Tuple[int, _SimRequest]] = []
        for seq, (ready, request) in bucket.items():
            if len(taken) >= limit:
                break
            if ready <= start:
                taken.append((seq, request))
        for seq, _request in taken:
            del bucket[seq]
            self._removed.add(seq)
            self._size -= 1
        if not bucket:
            self._index.pop(key, None)
        return [request for _seq, request in taken]


def simulate_stage_scheduler(
    arrivals: Sequence[Arrival],
    stage_times_fn: Callable[[str, int], List[float]],
    n_cores: int,
    event_overhead: float = 5e-6,
    reservations: Optional[Dict[str, int]] = None,
    max_stage_batch: Optional[int] = None,
) -> SimulationResult:
    """Simulate PRETZEL's batch engine over ``n_cores`` executors.

    The policy mirrors :class:`repro.core.scheduler.Scheduler`: a low-priority
    queue admits the first stage of new requests, a high-priority queue holds
    stages of requests already in flight, and executors pull the next event
    when free.  ``reservations`` maps model names to a dedicated core index;
    reserved cores only serve their own models, and reserved models only run
    on their core.

    ``max_stage_batch`` enables stage-level batch coalescing: when a core
    pulls an event, already-ready entries in the same queue waiting for the
    same ``(model, stage)`` -- the simulator's stand-in for the physical-stage
    signature the real scheduler coalesces on -- are folded FIFO from the
    queue's signature index into one service whose time is the sum of the
    members' stage times plus a single per-event overhead.  Latency-sensitive
    requests are never coalesced, matching the real scheduler's bypass.
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    reservations = reservations or {}
    for core in reservations.values():
        if not 0 <= core < n_cores:
            raise ValueError(f"reserved core {core} out of range for {n_cores} cores")
    coalescing = max_stage_batch is not None and max_stage_batch > 1

    pending = sorted(arrivals, key=lambda a: a.time)
    pending_index = 0
    low = _SimQueue()
    high = _SimQueue()
    reserved_queues: Dict[int, _SimQueue] = {core: _SimQueue() for core in set(reservations.values())}
    core_free_at = [0.0] * n_cores
    core_busy = [0.0] * n_cores
    sequence = 0
    latencies: List[float] = []
    latencies_sensitive: List[float] = []
    completed = 0
    makespan = 0.0
    batches_formed = 0
    batch_events = 0

    def admit_until(time_limit: float) -> None:
        nonlocal pending_index, sequence
        while pending_index < len(pending) and pending[pending_index].time <= time_limit:
            arrival = pending[pending_index]
            pending_index += 1
            request = _SimRequest(
                arrival=arrival,
                stage_times=stage_times_fn(arrival.model, arrival.batch_size),
            )
            core = reservations.get(arrival.model)
            target = reserved_queues[core] if core is not None else low
            target.push(arrival.time, sequence, request)
            sequence += 1

    admit_until(pending[0].time if pending else 0.0)
    while True:
        # Advance time: pick the core that frees up first and find it work.
        if pending_index < len(pending):
            next_arrival_time = pending[pending_index].time
        else:
            next_arrival_time = float("inf")
        if not low and not high and not any(reserved_queues.values()):
            if next_arrival_time == float("inf"):
                break
            admit_until(next_arrival_time)
            continue
        core = int(np.argmin(core_free_at))
        now = core_free_at[core]
        admit_until(max(now, 0.0))
        queue: Optional[_SimQueue] = None
        if core in reserved_queues:
            if reserved_queues[core]:
                queue = reserved_queues[core]
            else:
                # A reserved core only receives work from new arrivals for its
                # reserved models (in-flight reserved stages are re-queued by
                # this very core), so it idles until the next arrival.
                if next_arrival_time == float("inf"):
                    core_free_at[core] = float("inf")
                else:
                    core_free_at[core] = max(now + 1e-9, next_arrival_time)
                continue
        elif high or low:
            # Prefer the high-priority queue (in-flight pipelines holding
            # pooled vectors), but never idle waiting for a not-yet-ready
            # high-priority event while a new pipeline could start right away.
            if high and (not low or high.peek_ready() <= max(now, low.peek_ready())):
                queue = high
            else:
                queue = low
        else:
            # Shared work only exists in the future (or belongs to reserved
            # cores); this core idles until the next arrival.
            if next_arrival_time == float("inf"):
                core_free_at[core] = float("inf")
            else:
                core_free_at[core] = max(now + 1e-9, next_arrival_time)
            continue
        ready_time, _seq, request = queue.pop()
        start = max(now, ready_time)
        members = [request]
        if coalescing:
            # Mirror Scheduler.next_batch: every pull counts as a batch,
            # latency-sensitive leaders as singletons.
            if not request.arrival.latency_sensitive:
                batch_key = (request.arrival.model, request.next_stage)
                members.extend(queue.coalesce(batch_key, start, max_stage_batch - 1))
            batches_formed += 1
            batch_events += len(members)
        service = (
            sum(member.stage_times[member.next_stage] for member in members) + event_overhead
        )
        finish = start + service
        core_free_at[core] = finish
        core_busy[core] += service
        for member in members:
            member.next_stage += 1
            if member.next_stage >= len(member.stage_times):
                latency = finish - member.arrival.time
                latencies.append(latency)
                if member.arrival.latency_sensitive:
                    latencies_sensitive.append(latency)
                completed += member.arrival.batch_size
                makespan = max(makespan, finish)
            else:
                core_of_model = reservations.get(member.arrival.model)
                target = reserved_queues[core_of_model] if core_of_model is not None else high
                target.push(finish, sequence, member)
                sequence += 1
    return SimulationResult(
        completed=completed,
        makespan_seconds=makespan,
        latencies=latencies,
        latencies_sensitive=latencies_sensitive,
        per_core_busy=core_busy,
        batches_formed=batches_formed,
        batch_events=batch_events,
    )
