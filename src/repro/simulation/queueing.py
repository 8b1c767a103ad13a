"""Discrete-event simulation of the serving systems' execution models.

Two execution models run in virtual time, with service times calibrated
from the real implementations (:mod:`repro.simulation.calibrate`):

* **thread-per-request** (ML.Net and ML.Net + Clipper): every request runs a
  whole pipeline on one core; a shared pool of cores serves requests in FIFO
  order.  Optional per-core contention (duplicated model state stressing the
  memory hierarchy) and per-model-switch penalties (container context
  switches) reproduce the scaling behaviour the paper observes.
* **stage scheduler** (PRETZEL's batch engine): the shipped
  :class:`repro.core.scheduler.Scheduler`, unmodified, driven by a virtual
  clock instead of executor threads.  The policy -- two priority queues, late
  binding, reservations, stage batching -- is the one the runtime serves with.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler import InferenceRequest, Scheduler, StageBatch
from repro.testing import StubPlan

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


def simulate_stage_scheduler(
    arrivals: Sequence[Arrival],
    stage_times_fn: Callable[[str, int], List[float]],
    n_cores: int,
    event_overhead: float = 5e-6,
    reservations: Optional[Dict[str, int]] = None,
    max_stage_batch: Optional[int] = None,
) -> SimulationResult:
    """Run PRETZEL's batch engine -- the shipped :class:`Scheduler` -- on ``n_cores``.

    Each model is a :class:`~repro.testing.StubPlan` whose stage ``i`` has the
    signature ``f"{model}#{i}"``, so batches coalesce on ``(model, stage)``.
    The loop only keeps the virtual clock: an arrival submits its request, a
    finished batch reports each member's stage complete, and after every time
    step each free core, in index order, pulls with ``next_batch(core,
    timeout=0.0)`` (while anything is queued at all).  A pulled batch takes
    ``event_overhead`` plus the sum of its members' stage times.
    ``reservations`` (model -> core) become :meth:`Scheduler.reserve` calls,
    and a ``max_stage_batch`` above 1 turns stage batching on with that cap;
    the two priority queues, the latency-sensitive bypass and reservation
    routing are the Scheduler's own.
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    reservations = reservations or {}
    for core in reservations.values():
        if not 0 <= core < n_cores:
            raise ValueError(f"reserved core {core} out of range for {n_cores} cores")
    coalescing = max_stage_batch is not None and max_stage_batch > 1
    scheduler = Scheduler(
        enable_stage_batching=coalescing,
        max_stage_batch_size=max_stage_batch if coalescing else 1,
    )
    for model, core in reservations.items():
        scheduler.reserve(model, core)

    pending = sorted(arrivals, key=lambda a: a.time)
    next_arrival = 0
    plans: Dict[Tuple[str, int], StubPlan] = {}
    #: in-flight request -> its arrival and per-stage service times
    admitted: Dict[InferenceRequest, Tuple[Arrival, List[float]]] = {}
    #: heap of (finish time, pull sequence, core, batch)
    running: List[Tuple[float, int, int, StageBatch]] = []
    pulls = itertools.count()
    #: events sitting in the scheduler's queues (no pull can succeed at 0)
    queued = 0
    core_free = [True] * n_cores
    core_busy = [0.0] * n_cores
    latencies: List[float] = []
    latencies_sensitive: List[float] = []
    completed = 0
    makespan = 0.0
    while next_arrival < len(pending) or running:
        now = min(
            pending[next_arrival].time if next_arrival < len(pending) else float("inf"),
            running[0][0] if running else float("inf"),
        )
        while running and running[0][0] <= now:
            finish, _, core, batch = heapq.heappop(running)
            core_free[core] = True
            for event in batch:
                scheduler.on_stage_complete(event, None)
                if not event.is_last:
                    queued += 1
                else:
                    arrival, _ = admitted.pop(event.request)
                    latency = finish - arrival.time
                    latencies.append(latency)
                    if arrival.latency_sensitive:
                        latencies_sensitive.append(latency)
                    completed += arrival.batch_size
                    makespan = max(makespan, finish)
        while next_arrival < len(pending) and pending[next_arrival].time <= now:
            arrival = pending[next_arrival]
            next_arrival += 1
            times = stage_times_fn(arrival.model, arrival.batch_size)
            plan = plans.get((arrival.model, len(times)))
            if plan is None:
                signatures = (f"{arrival.model}#{index}" for index in range(len(times)))
                plan = plans[(arrival.model, len(times))] = StubPlan(*signatures)
            request = InferenceRequest(arrival.model, plan, None, arrival.latency_sensitive)
            admitted[request] = (arrival, times)
            scheduler.submit(request)
            queued += 1
        for core in range(n_cores):
            if not queued:
                break
            if not core_free[core]:
                continue
            batch = scheduler.next_batch(core, timeout=0.0)
            if batch is None:
                continue
            service = event_overhead + sum(
                admitted[event.request][1][event.stage_index] for event in batch
            )
            queued -= len(batch)
            core_free[core] = False
            core_busy[core] += service
            heapq.heappush(running, (now + service, next(pulls), core, batch))
    return SimulationResult(
        completed=completed,
        makespan_seconds=makespan,
        latencies=latencies,
        latencies_sensitive=latencies_sensitive,
        per_core_busy=core_busy,
        batches_formed=scheduler.batching.total_batches if coalescing else 0,
        batch_events=scheduler.batching.total_events if coalescing else 0,
    )
