"""Contention microbench: the runtime's lock-bound hot paths.

Three sections, one report (``results/contention_microbench.txt`` + its
machine-readable ``.json`` twin):

* **arena** -- raw ``acquire_slab``/``release_slab`` pairs on the lock-free
  free lists, threads x ops/sec (recorded).  The one assert is structural:
  the lock wait registry shows 0 ``arena.meta`` acquisitions on the warm
  fast path at every thread count.
* **scheduler** -- self-feeding submit+pop threads against the one queue
  per priority class, threads x ops/sec (recorded).
* **register-under-pressure** -- concurrent plan registrations on a
  budget-squeezed cluster (dedup claims and overflows racing through the
  per-plan/phase lock split), which the old global lifecycle lock fully
  serialized.

``CONTENTION_SMOKE=1`` shrinks op counts for the CI smoke job; thread
counts and every assert stay identical.  Throughput is recorded, never
asserted: on a 2-CPU host it moves with neighbour load.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from conftest import write_report
from repro.core.config import PretzelConfig
from repro.core.scheduler import InferenceRequest, Scheduler
from repro.mlnet.pipeline import Pipeline
from repro.operators.linear import LinearRegressor
from repro.profiling import GLOBAL_LOCK_REGISTRY
from repro.serving import PretzelCluster
from repro.serving.shm_store import SharedMemoryArena
from repro.telemetry.reporting import ExperimentReport
from repro.testing import StubPlan

SMOKE = os.environ.get("CONTENTION_SMOKE", "0") == "1"

THREAD_COUNTS = [1, 2, 4]
ARENA_BUDGET = 8 * 1024 * 1024
ARENA_OPS_PER_THREAD = 3_000 if SMOKE else 20_000
ARENA_TRIALS = 3
ARENA_SIZES = (256, 1024, 4096)

SCHED_OPS_PER_THREAD = 1_000 if SMOKE else 5_000

REGISTER_THREADS = 4
REGISTER_PLANS_PER_THREAD = 2 if SMOKE else 4


# -- arena alloc/free ----------------------------------------------------------


def _arena_sweep(threads: int) -> tuple[float, dict]:
    """(pairs/sec, arena.meta lock stats) for one thread count."""
    arena = SharedMemoryArena(ARENA_BUDGET)
    try:
        # Pre-carve every size class so the measured loop hits the free
        # lists, not the bump pointer (which is meta-locked).
        warm = [
            arena.acquire_slab(size)
            for size in ARENA_SIZES
            for _ in range(threads + 1)
        ]
        for offset, size in warm:
            arena.release_slab(offset, size)
        GLOBAL_LOCK_REGISTRY.reset()
        barrier = threading.Barrier(threads + 1)

        def worker(index: int) -> None:
            sizes = ARENA_SIZES
            barrier.wait(timeout=30.0)
            for step in range(ARENA_OPS_PER_THREAD):
                nbytes = sizes[(index + step) % len(sizes)]
                offset, size = arena.acquire_slab(nbytes)
                arena.release_slab(offset, size)

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        barrier.wait(timeout=30.0)
        started = time.perf_counter()
        for thread in pool:
            thread.join(timeout=300.0)
        elapsed = time.perf_counter() - started
        meta = GLOBAL_LOCK_REGISTRY.snapshot().get(
            "arena.meta", {"acquisitions": 0, "contended": 0, "wait_seconds": 0.0}
        )
        return (threads * ARENA_OPS_PER_THREAD) / elapsed, meta
    finally:
        arena.close()


def _bench_arena() -> list:
    """One row per thread count: best-of-trials kops plus the arena.meta
    acquisitions summed over every trial (the structural invariant)."""
    rows = []
    for threads in THREAD_COUNTS:
        best = 0.0
        meta_acquisitions = 0
        for _ in range(ARENA_TRIALS):
            ops, meta = _arena_sweep(threads)
            best = max(best, ops)
            meta_acquisitions += meta["acquisitions"]
        rows.append(
            {
                "threads": threads,
                "kops": best / 1e3,
                "meta_acquisitions": meta_acquisitions,
            }
        )
    return rows


# -- scheduler submit/pop ------------------------------------------------------


def _scheduler_sweep(threads: int) -> float:
    scheduler = Scheduler()
    plans = [StubPlan(f"sig-{index}") for index in range(threads)]
    barrier = threading.Barrier(threads + 1)
    errors: list = []

    def worker(index: int) -> None:
        plan = plans[index]
        try:
            barrier.wait(timeout=30.0)
            for step in range(SCHED_OPS_PER_THREAD):
                scheduler.submit(InferenceRequest(f"r{index}-{step}", plan, step))
                if scheduler.next_event(index, timeout=5.0) is None:
                    errors.append(f"thread {index} starved at step {step}")
                    return
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(repr(error))

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait(timeout=30.0)
    started = time.perf_counter()
    for thread in pool:
        thread.join(timeout=300.0)
    elapsed = time.perf_counter() - started
    assert not errors, errors
    scheduler.shutdown()
    return (threads * SCHED_OPS_PER_THREAD) / elapsed


def _bench_scheduler() -> list:
    return [
        {"threads": threads, "kops": _scheduler_sweep(threads) / 1e3}
        for threads in THREAD_COUNTS
    ]


# -- register under pressure ---------------------------------------------------


def _compressible_pipeline(name: str, seed: int, n: int = 16384) -> Pipeline:
    weights = ((np.arange(n, dtype=np.float64) % 23) + seed) * 0.5
    pipeline = Pipeline(name)
    pipeline.add("linear", LinearRegressor(weights=weights, bias=0.25), ["input"])
    return pipeline


def _bench_register_under_pressure() -> dict:
    """Concurrent registrations on a budget so tight most plans overflow:
    their weights stay private while other registrations claim slabs."""
    total = REGISTER_THREADS * REGISTER_PLANS_PER_THREAD
    n = 16384
    # Room for only a quarter of the plans: most registrations overflow
    # while other registrations are in flight.
    budget = max(total // 4, 2) * n * 8 + 256 * 1024
    config = PretzelConfig(
        num_workers=1,
        placement_replicas=1,
        shm_budget_bytes=budget,
        shm_min_parameter_bytes=1024,
        worker_timeout_seconds=120.0,
    )
    record = [1.0] * n
    errors: list = []
    with PretzelCluster(config) as cluster:
        barrier = threading.Barrier(REGISTER_THREADS + 1)

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=60.0)
                for step in range(REGISTER_PLANS_PER_THREAD):
                    plan_id = f"plan-{index}-{step}"
                    cluster.register(
                        _compressible_pipeline(plan_id, seed=index * 100 + step, n=n),
                        plan_id=plan_id,
                    )
                    cluster.predict(plan_id, record)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(repr(error))

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(REGISTER_THREADS)
        ]
        for thread in pool:
            thread.start()
        barrier.wait(timeout=60.0)
        started = time.perf_counter()
        for thread in pool:
            thread.join(timeout=600.0)
        elapsed = time.perf_counter() - started
        assert not errors, errors
        # Every plan survived the storm and serves correct bytes (overflowed
        # plans from their private copies).
        for index in range(REGISTER_THREADS):
            for step in range(REGISTER_PLANS_PER_THREAD):
                plan_id = f"plan-{index}-{step}"
                expected = _compressible_pipeline(
                    plan_id, seed=index * 100 + step, n=n
                ).predict(record)
                got = cluster.predict(plan_id, record)
                assert abs(got - expected) < 1e-9 * max(1.0, abs(expected))
        overflows = cluster.stats()["arena_overflows"]
    return {
        "threads": REGISTER_THREADS,
        "plans": total,
        "seconds": elapsed,
        "registrations_per_sec": total / elapsed,
        "arena_overflows": overflows,
    }


# -- the bench -----------------------------------------------------------------


def test_contention_microbench(benchmark):
    def run():
        arena_rows = _bench_arena()
        scheduler_rows = _bench_scheduler()
        register = _bench_register_under_pressure()
        return arena_rows, scheduler_rows, register

    arena_rows, scheduler_rows, register = benchmark.pedantic(
        run, iterations=1, rounds=1
    )

    arena_report = ExperimentReport(
        "Contention microbench: arena",
        "acquire_slab/release_slab pairs (kops/sec) per thread count on the "
        f"lock-free free lists ({ARENA_OPS_PER_THREAD} pairs/thread, best of "
        f"{ARENA_TRIALS}); meta_acquisitions sums arena.meta over every trial.",
    )
    arena_report.rows = arena_rows
    scheduler_report = ExperimentReport(
        "Contention microbench: scheduler",
        "self-feeding submit+pop (kops/sec) per thread count, one queue per "
        f"priority class ({SCHED_OPS_PER_THREAD} ops/thread).",
    )
    scheduler_report.rows = scheduler_rows
    register_report = ExperimentReport(
        "Contention microbench: register under pressure",
        "concurrent registrations overflowing a quarter-sized arena "
        "(per-plan + phase locks; the old global lifecycle lock fully "
        "serialized this).",
    )
    register_report.rows = [register]
    write_report(
        "contention_microbench",
        "\n\n".join(
            report.render()
            for report in (arena_report, scheduler_report, register_report)
        ),
        metrics={
            "smoke": SMOKE,
            "arena": arena_rows,
            "scheduler": scheduler_rows,
            "register_under_pressure": register,
        },
    )

    # The structural invariant behind the lock-free arena: with every size
    # class warm, alloc/free pairs are free-list pops and pushes and never
    # take the metadata lock, at any thread count.
    for row in arena_rows:
        assert row["meta_acquisitions"] == 0, arena_rows
