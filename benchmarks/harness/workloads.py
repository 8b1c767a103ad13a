"""The four workloads: what they serve, how they are set up and driven.

Every workload boots a fresh default-config two-worker ``PretzelCluster``
holding 60 plans and drives it from this process with one closed-loop client.
The untraced run here yields the end-to-end metrics;
:mod:`benchmarks.harness.layers` reuses the same set-up and request streams
for the traced run.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.harness import families, loadgen
from benchmarks.harness.loadgen import Call, ClientLog
from repro import profiling
from repro.core.config import PretzelConfig
from repro.serving.cluster import PretzelCluster
from repro.workloads.zipf import zipf_request_sequence

__all__ = [
    "WORKLOADS",
    "Workload",
    "Prepared",
    "pin_to_one_cpu",
    "prepare",
    "set_up",
    "tear_down",
    "run_untraced",
]

#: clusters set up (and measured, for an equal share of the run) per untraced run
SETUPS_PER_RUN = 3
#: untimed closed-loop seconds before memory is read and timing starts
WARM_SECONDS = 0.5
#: fixes which plans are popular (the same on every seed)
POPULARITY_SEED = 60
#: share of every block's replicas (the fastest) the timing metrics are computed over
QUIET_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: Tuple[str, ...]
    #: plans served per family (every cluster holds 60 pipelines in total)
    served: int
    engine: str = "request-response"
    #: records per cluster call: 1 -> ``predict``, else ``predict_batch``
    batch_records: int = 1
    clients: int = 1
    #: requests in a client's list, which it sends over and over (~0.5 s a pass)
    list_requests: int = 1000
    #: consecutive requests of the list that make one block (~10 ms)
    block_requests: int = 25
    #: the tail percentile reported as ``lat_tail_ms``
    tail_percentile: float = 99.0
    #: informational open-loop rate, ~40% of the seed's closed-loop capacity
    open_rate_rps: float = 0.0

    def config(self, **overrides: Any) -> PretzelConfig:
        """The shipped default config; only the batch workload flips a knob."""
        return PretzelConfig(
            num_workers=2,
            placement_replicas=2,
            enable_stage_batching=self.engine == "batch",
            **overrides,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sa_online",
            why="single text records over 60 SA plans (Zipf 1): operators are ~55% of the "
            "round trip, so n-gram kernel work shows here and wire work shows less",
            families=("sa",),
            served=60,
            open_rate_rps=800.0,
        ),
        Workload(
            name="ac_online",
            why="single 40-feature records over 60 AC plans: compute is ~1/3 of the round "
            "trip, so router/wire/transport dominate; bypasses any SA/n-gram kernel change",
            families=("ac",),
            served=60,
            open_rate_rps=900.0,
        ),
        Workload(
            name="batch_mixed",
            why="a request is predict_batch of 100 texts on an SA plan plus 100 events on an AC "
            "plan: the only path through scheduler, executors and ColumnBatch kernels; IPC is "
            "<1%, so serving-tier changes bypass it",
            families=("sa", "ac"),
            served=30,
            engine="batch",
            batch_records=100,
            list_requests=32,
            block_requests=1,
            tail_percentile=90.0,
            open_rate_rps=8.0,
        ),
    )
}


@dataclass
class Prepared:
    """Everything a run derives from (workload, seed) before any cluster exists."""

    workload: Workload
    seed: int
    #: (plan id, generated pipeline) in registration order
    plans: List[Tuple[str, Any]]
    #: per plan id: the warm-up calls -- a single record first (the cold
    #: predict), then one call of the workload's own kind
    warm: Dict[str, List[Call]]
    #: one request list per client thread
    requests: List[List[List[Call]]]
    #: the trained families this workload serves, by name
    families: Dict[str, Any]
    family_load_s: float
    matches: Callable[[Any, Any], bool] = loadgen.exact_match


def _call(
    plan_id: str, inputs: Sequence[Any], expected: Sequence[float], picks: Sequence[int], batch: bool
) -> Call:
    """One cluster call on ``plan_id``: the picked records and their oracle outputs."""
    if batch:
        return (plan_id, [inputs[i] for i in picks], np.asarray([expected[i] for i in picks]))
    return (plan_id, inputs[picks[0]], expected[picks[0]])


def prepare(workload: Workload, seed: int, loaded: Optional[Dict[str, Any]] = None) -> Prepared:
    """Families, seeded inputs, oracle outputs and per-client request streams.

    ``loaded`` supplies already-trained families by name (the tests pass the
    session fixtures); any other family comes from the harness's cache.
    """
    loaded = dict(loaded or {})
    rng = np.random.default_rng([seed, 0x9E3779B9])
    batch = workload.batch_records > 1
    count = workload.list_requests
    total = count * workload.clients
    load_s = 0.0
    plans: List[Tuple[str, Any]] = []
    warm: Dict[str, List[Call]] = {}
    calls_by_family: List[List[Call]] = []
    for offset, name in enumerate(workload.families):
        if name not in loaded:
            loaded[name], seconds = families.load_family(name)
            load_s += seconds
        inputs = families.sample_inputs(loaded[name], seed + offset)
        members = loaded[name].pipelines[: workload.served]
        expected = families.oracle_outputs(members, inputs)
        plan_ids = [f"{name}-{index:02d}" for index in range(workload.served)]
        plans.extend(zip(plan_ids, members))
        for index, plan_id in enumerate(plan_ids):
            picks = [(index + step) % len(inputs) for step in range(1 + workload.batch_records)]
            warm[plan_id] = [
                _call(plan_id, inputs, expected[index], picks[:1], batch=False),
                _call(plan_id, inputs, expected[index], picks[1:], batch),
            ]
        # Zipf(1) over a fixed popularity order: plans differ in cost by up to
        # 1.6x, so a seeded order would make the seed decide the work.  The
        # seed draws the request order.
        popularity = np.random.default_rng(POPULARITY_SEED + offset).permutation(len(plan_ids))
        plan_draws = zipf_request_sequence(
            list(popularity), total, alpha=1.0, seed=seed * 31 + offset, shuffle_ranks=False
        )
        record_draws = rng.integers(0, len(inputs), size=(total, workload.batch_records))
        calls_by_family.append(
            [
                _call(plan_ids[plan], inputs, expected[plan], draws, batch)
                for plan, draws in zip(plan_draws, record_draws)
            ]
        )
    # A request is one call per family, back to back (one call on the
    # single-family workloads).
    stream = [list(calls) for calls in zip(*calls_by_family)]
    return Prepared(
        workload=workload,
        seed=seed,
        plans=plans,
        warm=warm,
        requests=[stream[client * count : (client + 1) * count] for client in range(workload.clients)],
        families={name: loaded[name] for name in workload.families},
        family_load_s=load_s,
        matches=loadgen.close_match if batch else loadgen.exact_match,
    )


@dataclass
class SetupTimes:
    #: wall clock of the whole set-up
    setup_s: float = 0.0
    #: ``PretzelCluster(...)``
    boot_s: float = 0.0
    #: per plan, in registration order
    register_s: List[float] = field(default_factory=list)
    cold_predict_s: List[float] = field(default_factory=list)
    #: per plan: the cold predict plus one call of the workload's own kind
    warm_s: List[float] = field(default_factory=list)

    def steps(self) -> List[float]:
        """The set-up as its steps in order; they add up to ``setup_s``."""
        return [self.boot_s, *self.register_s, *self.warm_s]


def client_call(cluster: PretzelCluster, workload: Workload) -> Callable[[str, Any], Any]:
    return cluster.predict_batch if workload.batch_records > 1 else cluster.predict


def set_up(prepared: Prepared, config: PretzelConfig) -> Tuple[PretzelCluster, SetupTimes]:
    """``PretzelCluster(...)`` -> every plan registered and warmed (timed).

    Runs on the main thread before any client thread exists (the cluster
    forks its workers).  Warm-up is the first predict on each plan (timed as
    the cold predict) plus one call of the workload's own kind, both checked
    against the oracle.
    """
    workload = prepared.workload
    times = SetupTimes()
    started = time.perf_counter()
    cluster = PretzelCluster(config)
    times.boot_s = time.perf_counter() - started
    try:
        for plan_id, generated in prepared.plans:
            begin = time.perf_counter()
            cluster.register(
                generated.pipeline, stats=generated.stats, engine=workload.engine, plan_id=plan_id
            )
            times.register_s.append(time.perf_counter() - begin)
        for plan_id, _generated in prepared.plans:
            (_, record, expected), (_, payload, expected_own) = prepared.warm[plan_id]
            begin = time.perf_counter()
            output = cluster.predict(plan_id, record)
            times.cold_predict_s.append(time.perf_counter() - begin)
            own = client_call(cluster, workload)(plan_id, payload)
            times.warm_s.append(time.perf_counter() - begin)
            if not (loadgen.exact_match(output, expected) and prepared.matches(own, expected_own)):
                raise RuntimeError(f"warm-up of {plan_id} disagrees with the oracle")
    except BaseException:
        tear_down(cluster)
        raise
    times.setup_s = time.perf_counter() - started
    return cluster, times


def tear_down(cluster: PretzelCluster) -> None:
    """Stop the workers, then the sampler thread the cluster started here.

    Stopping the sampler keeps this process single-threaded between clusters,
    so the next cluster's fork never copies a running thread's state.
    """
    try:
        cluster.shutdown()
    finally:
        profiling.stop()


def worker_pss_mb() -> float:
    """Sum of ``Pss`` over the worker processes, from ``smaps_rollup``."""
    total_kb = 0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def run_threads(bodies: Sequence[Callable[[], None]]) -> None:
    """Run each body on its own thread from a common start; re-raise a crash."""
    barrier = threading.Barrier(len(bodies))
    crashes: List[BaseException] = []

    def guarded(body: Callable[[], None]) -> None:
        try:
            barrier.wait()
            body()
        except BaseException as error:  # noqa: BLE001 - re-raised on the main thread
            barrier.abort()
            crashes.append(error)

    threads = [
        threading.Thread(target=guarded, args=(body,), name=f"harness-{index}")
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]


def run_clients(
    prepared: Prepared,
    cluster: PretzelCluster,
    seconds: float,
    extra: Sequence[Callable[[], None]] = (),
    on_request: Any = None,
    clients: int = 0,
) -> ClientLog:
    """Closed-loop clients (one thread each) beside any ``extra`` thread bodies."""
    call = client_call(cluster, prepared.workload)
    count = clients or prepared.workload.clients
    logs: List[Any] = [None] * count

    def client(index: int) -> None:
        logs[index] = loadgen.closed_loop(
            call, prepared.requests[index], prepared.matches, seconds, on_request
        )

    run_threads([lambda index=index: client(index) for index in range(count)] + list(extra))
    return loadgen.merge_logs(logs)


def pin_to_one_cpu() -> int:
    """Confine this process, and every worker it forks, to one CPU; returns it.

    On the few cores of a shared host, where the kernel puts the front door
    and the two workers decides the round trip: one client ping-ponging
    between processes on one core reads 0.40 ms, across two cores 0.67 ms, and
    which of the two a run gets is the scheduler's choice.  On one core every
    hand-over is a context switch, never a wake-up of an idle core, and the
    other cores take whatever else the host runs.  The highest-numbered CPU
    is used: interrupts land on the first.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_untraced(
    prepared: Prepared, seconds: float, setups_per_run: int = SETUPS_PER_RUN
) -> Dict[str, Any]:
    """The end-to-end numbers: set up, warm and measure, several clusters in turn.

    Each cluster is measured for an equal share of ``seconds``; the client
    sends its request list over and over.  The list is cut into blocks of a
    few consecutive requests, every block recurs with identical content on
    each pass, and the timing metrics are computed over the twentieth of each
    block's replicas that took least time.  Whatever else the host does only
    ever slows a replica down, so the fast ones measure the program; and
    because every block is kept equally often, the kept requests are the
    workload's mix, not its cheap end.  The set-ups are replicas too:
    ``setup_s`` adds up the set-up's steps (boot, each registration, each
    warm-up), every step taken from the cluster on which it was fastest, and
    ``register_ms_p50`` is the median over the plans of such registrations.
    Memory is the median over the clusters.
    """
    workload = prepared.workload
    setups: List[SetupTimes] = []
    logs: List[ClientLog] = []
    mem_mb: List[float] = []
    share = seconds / setups_per_run
    for _ in range(setups_per_run):
        cluster, times = set_up(prepared, workload.config())
        setups.append(times)
        try:
            run_clients(prepared, cluster, WARM_SECONDS)
            mem_mb.append(worker_pss_mb())
            logs.append(run_clients(prepared, cluster, share))
        finally:
            tear_down(cluster)
    log = loadgen.merge_logs(logs, sequential=True)
    # Every cluster is set up by the same steps in the same order: replicas of
    # identical work, of which -- as with the requests -- the quietest counts.
    register_s = [min(times) for times in zip(*(entry.register_s for entry in setups))]
    setup_s = sum(min(times) for times in zip(*(entry.steps() for entry in setups)))
    cold_s = [value for entry in setups for value in entry.cold_predict_s]
    replicas: Dict[int, List[loadgen.Replica]] = {}
    for phase in logs:
        for block, found in loadgen.blocks(phase, workload.block_requests).items():
            replicas.setdefault(block, []).extend(found)
    if not replicas:
        raise RuntimeError(f"no block completed ({log.failures}, {log.first_error})")

    quiet = loadgen.quietest(replicas, QUIET_SHARE)
    latencies = [value for _seconds, values in quiet for value in values]
    metrics = {
        "qps": len(latencies) / sum(replica_s for replica_s, _values in quiet),
        "lat_p50_ms": loadgen.percentile(latencies, 50.0) * 1e3,
        "lat_tail_ms": loadgen.percentile(latencies, workload.tail_percentile) * 1e3,
        "register_ms_p50": statistics.median(register_s) * 1e3,
        "setup_s": setup_s,
        "mem_mb": statistics.median(mem_mb),
    }
    completed = len(log.latencies)
    return {
        "metrics": metrics,
        "attempted": log.attempted,
        "failed": log.failed,
        "detail": {
            "samples": completed,
            "blocks": len(replicas),
            "replicas_per_block": statistics.median(len(found) for found in replicas.values()),
            "quiet_samples": len(latencies),
            "tail_percentile": workload.tail_percentile,
            "samples_beyond_tail": len(latencies) * (100.0 - workload.tail_percentile) / 100.0,
            "failures": dict(log.failures),
            "first_error": log.first_error,
            "register_samples": len(register_s),
            "cold_predict_ms_p50": statistics.median(cold_s) * 1e3,
            # the whole run, every replica: what the quiet twentieth is a part of
            "whole_run_qps": completed / log.elapsed,
            "whole_run_lat_ms_percentiles": {
                str(q): loadgen.percentile(log.latencies, q) * 1e3
                for q in loadgen.PERCENTILES
                if q <= loadgen.supported_percentile(completed)
            },
            "setup_s_each": [entry.setup_s for entry in setups],
            "qps_each": [len(entry.latencies) / entry.elapsed for entry in logs],
            "call_ms_p50": {
                workload.families[slot]: loadgen.percentile(values, 50.0) * 1e3
                for slot, values in sorted(log.call_latencies.items())
            },
            "family_load_s": prepared.family_load_s,
        },
    }
