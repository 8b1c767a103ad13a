"""Figure 13 + Section 5.4.1: PRETZEL under heavy, skewed load (and reservation)."""

import threading
import time

import numpy as np

from conftest import claim, claim_below, write_report
from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.serving import BackpressureError, PretzelCluster
from repro.simulation.calibrate import calibrate_plan_stages
from repro.simulation.queueing import ArrivalProcess, simulate_stage_scheduler
from repro.telemetry.reporting import ExperimentReport
from repro.workloads.zipf import zipf_request_sequence

LOADS = [50, 100, 200, 300, 400, 500]
#: past-saturation points where queues actually back up, so the stage-level
#: coalescing columns have something to batch
OVERLOAD_LOADS = [1000, 2000]
N_CORES = 13
ZIPF_ALPHA = 2.0
#: one seed for every Zipf draw in this file: the capacity estimate must
#: sample the same rank shuffle (same hot head model) as the load rows
ZIPF_SEED = 3


def _mix_population(models):
    """The Section 5.4.1 model mix: first half latency-sensitive at batch 1,
    second half at batch 100.  Single source of truth for both the load rows
    and the capacity estimate, so they cannot drift apart."""
    latency_sensitive = {model: index < len(models) // 2 for index, model in enumerate(models)}
    batch_sizes = {model: 1 if latency_sensitive[model] else 100 for model in models}
    return latency_sensitive, batch_sizes


def _calibrated_models(sa_family, ac_family, sa_inputs, ac_inputs, per_family=12):
    """Calibrate a mixed population of SA + AC plans (the '500 models' setup)."""
    runtime = PretzelRuntime(PretzelConfig())
    stage_times = {}
    try:
        for family, inputs in ((sa_family, sa_inputs), (ac_family, ac_inputs)):
            for generated in family.pipelines[:per_family]:
                plan_id = runtime.register(generated.pipeline, stats=generated.stats)
                calibrated = calibrate_plan_stages(runtime, plan_id, inputs[:2], repetitions=2)
                stage_times[generated.name] = calibrated.stage_seconds
    finally:
        runtime.shutdown()
    return stage_times


def _heavy_load_rows(
    stage_times,
    reservations=None,
    duration=2.0,
    seed=ZIPF_SEED,
    max_stage_batch=None,
    loads=LOADS,
):
    models = list(stage_times)
    latency_sensitive, batch_sizes = _mix_population(models)
    rows = []
    for load in loads:
        sequence = zipf_request_sequence(models, int(load * duration), alpha=ZIPF_ALPHA, seed=seed)
        arrivals = ArrivalProcess.from_model_sequence(
            sequence, requests_per_second=load, batch_sizes=batch_sizes,
            latency_sensitive=latency_sensitive,
        )
        result = simulate_stage_scheduler(
            arrivals,
            lambda model, batch_size: [t * batch_size for t in stage_times[model]],
            n_cores=N_CORES,
            reservations=reservations,
            max_stage_batch=max_stage_batch,
        )
        rows.append(
            {
                "load_rps": load,
                "throughput_kqps": result.throughput_qps / 1e3,
                "mean_latency_sensitive_ms": result.mean_latency_sensitive * 1e3,
                "mean_stage_batch": result.mean_stage_batch,
            }
        )
    return rows


def test_fig13_heavy_load(benchmark, sa_family, ac_family, sa_inputs, ac_inputs):
    stage_times = _calibrated_models(sa_family, ac_family, sa_inputs, ac_inputs)

    def run():
        loads = LOADS + OVERLOAD_LOADS
        plain = _heavy_load_rows(stage_times, loads=loads)
        batched = _heavy_load_rows(stage_times, max_stage_batch=16, loads=loads)
        # One merged row set: the batched columns show the effect of
        # stage-level coalescing (only visible once the system is backlogged).
        for row, batched_row in zip(plain, batched):
            row.pop("mean_stage_batch", None)
            row["batched_throughput_kqps"] = batched_row["throughput_kqps"]
            row["batched_ls_ms"] = batched_row["mean_latency_sensitive_ms"]
            row["batched_mean_batch"] = batched_row["mean_stage_batch"]
        return plain

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    report = ExperimentReport(
        "Figure 13",
        "PRETZEL throughput and latency-sensitive mean latency under Zipf(2) load, 13 cores; "
        "batched_* columns use stage-level coalescing (max_stage_batch=16).",
    )
    report.rows = rows
    # The claims are recorded, not asserted: each compares simulations
    # calibrated from wall-clock stage times.  Batching does not hurt the
    # latency-sensitive mean at the deepest overload point; over the paper's
    # sweep, throughput grows with offered load and latency degrades
    # gracefully (no order-of-magnitude blow-up).  The overload rows past
    # the sweep are allowed to backlog -- that is their job.
    top = rows[-1]
    sweep = rows[: len(LOADS)]
    write_report(
        "fig13_heavy_load",
        report.render(),
        metrics={
            **claim_below(
                "batched_ls_ratio",
                top["batched_ls_ms"] / max(top["mean_latency_sensitive_ms"], 1e-9),
                1.05,
            ),
            **claim(
                "sweep_throughput_growth",
                sweep[-1]["throughput_kqps"] / sweep[0]["throughput_kqps"],
                1.0,
            ),
            **claim_below(
                "sweep_ls_latency_growth",
                sweep[-1]["mean_latency_sensitive_ms"]
                / max(sweep[0]["mean_latency_sensitive_ms"], 1e-3),
                50.0,
            ),
        },
    )
    # At the deepest overload point the queues back up far enough for
    # stage-level coalescing to engage.
    assert top["batched_mean_batch"] > 1.0


# -- cluster series: admission control under synthetic overload ----------------

#: concurrent clients offered to a 2-worker cluster with 1 in-flight slot per
#: worker; past 2 clients the router must shed instead of queueing.
CLUSTER_CONCURRENCIES = [1, 2, 4, 8]
CLUSTER_OVERLOAD_BATCH = 300
CLUSTER_BATCHES_PER_CLIENT = 2


def test_fig13_cluster_overload(sa_family, sa_inputs):
    """Real heavy load on a real 2-worker cluster: the fig13 analogue of
    saturation.  Capacity is two in-flight batches (2 workers x 1 slot);
    every client beyond that must be shed with the typed backpressure error
    -- never queued -- and the shed counts must show up in cluster stats."""
    config = PretzelConfig(
        num_workers=2,
        placement_replicas=2,
        max_inflight_per_worker=1,
        shm_min_parameter_bytes=1024,
    )
    batch = (sa_inputs * (CLUSTER_OVERLOAD_BATCH // len(sa_inputs) + 1))[:CLUSTER_OVERLOAD_BATCH]
    rows = []
    with PretzelCluster(config) as cluster:
        plan_id = cluster.register(
            sa_family.pipelines[0].pipeline, stats=sa_family.pipelines[0].stats
        )
        cluster.predict_batch(plan_id, batch)  # warm
        for concurrency in CLUSTER_CONCURRENCIES:
            shed_counts = [0] * concurrency
            completed_counts = [0] * concurrency
            gate = threading.Barrier(concurrency)

            def client(slot):
                gate.wait()
                attempts = 0
                while completed_counts[slot] < CLUSTER_BATCHES_PER_CLIENT and attempts < 2000:
                    attempts += 1
                    try:
                        cluster.predict_batch(plan_id, batch)
                        completed_counts[slot] += 1
                    except BackpressureError:
                        shed_counts[slot] += 1
                        # The error is retryable by contract: back off briefly
                        # instead of spinning (which would starve the workers
                        # of CPU on small hosts).
                        time.sleep(0.005)

            threads = [
                threading.Thread(target=client, args=(slot,)) for slot in range(concurrency)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rows.append(
                {
                    "clients": concurrency,
                    "completed_batches": sum(completed_counts),
                    "shed_requests": sum(shed_counts),
                    "inflight_after": sum(cluster.router.stats()["inflight"].values()),
                }
            )
        stats = cluster.stats()
    report = ExperimentReport(
        "Figure 13 (cluster overload)",
        "2-worker cluster, 1 in-flight slot per worker, batch=300: completed vs shed "
        "as offered concurrency grows past the 2-slot capacity.",
    )
    report.rows = rows
    report.add_note(
        f"cluster stats: shed={stats['shed']}, served={stats['served_predictions']} records"
    )
    write_report("fig13_cluster_overload", report.render())

    by_clients = {row["clients"]: row for row in rows}
    # Within capacity nothing is shed; past capacity the router sheds with
    # the typed error (counted above) instead of queueing without bound.
    assert by_clients[1]["shed_requests"] == 0
    assert by_clients[2]["shed_requests"] == 0
    assert by_clients[4]["shed_requests"] > 0
    assert by_clients[8]["shed_requests"] > 0
    # Every client eventually completed its batches (shedding is retryable).
    for concurrency in CLUSTER_CONCURRENCIES:
        expected = concurrency * CLUSTER_BATCHES_PER_CLIENT
        assert by_clients[concurrency]["completed_batches"] == expected
    # The shed accounting is surfaced cluster-wide, and admission control kept
    # the in-flight population bounded by capacity throughout.
    assert stats["shed"] == sum(row["shed_requests"] for row in rows)
    assert all(row["inflight_after"] == 0 for row in rows)
    assert all(
        count <= config.max_inflight_per_worker
        for count in stats["router"]["inflight"].values()
    )


def _zipf_mix_stats(stage_times, n=2000, seed=ZIPF_SEED):
    """Mean service seconds and records per request of the heavy-load mix.

    Uses the same `_mix_population` and Zipf parameters as `_heavy_load_rows`
    so load points can be expressed relative to the host's calibrated
    capacity instead of as absolute rates that silently leave the overload
    regime when the host gets faster.
    """
    models = list(stage_times)
    _, batch_sizes = _mix_population(models)
    sequence = zipf_request_sequence(models, n, alpha=ZIPF_ALPHA, seed=seed)
    mean_service = float(np.mean([sum(stage_times[m]) * batch_sizes[m] for m in sequence]))
    mean_records = float(np.mean([batch_sizes[m] for m in sequence]))
    return mean_service, mean_records


def test_reservation_scheduling_keeps_latency_flat(benchmark, sa_family, ac_family, sa_inputs, ac_inputs):
    """Section 5.4.1: reserving a core for one pipeline shields it from load.

    The paper evaluates reservation at the *highest load point*, i.e. past
    saturation, where the shared configuration's queues have backed up.  The
    ablation load is therefore calibrated to ~2x the estimated capacity of
    the 13 simulated cores under this host's measured stage times, and the
    report records whether the shared configuration is actually saturated
    there -- the premise the comparison rests on.
    """
    stage_times = _calibrated_models(sa_family, ac_family, sa_inputs, ac_inputs)
    reserved_model = list(stage_times)[0]
    mean_service, mean_records = _zipf_mix_stats(stage_times)
    capacity_rps = N_CORES / mean_service
    ablation_loads = [0.5 * capacity_rps, 2.0 * capacity_rps]

    def run():
        shared = _heavy_load_rows(stage_times, loads=ablation_loads)
        reserved = _heavy_load_rows(
            stage_times, reservations={reserved_model: 0}, loads=ablation_loads
        )
        return shared, reserved

    shared, reserved = benchmark.pedantic(run, iterations=1, rounds=1)
    report = ExperimentReport(
        "Section 5.4.1 (reservation)",
        "Latency-sensitive latency with and without a reserved core, highest load point "
        "(calibrated to ~2x the shared configuration's capacity: true overload).",
    )
    report.add_row(
        config="shared", mean_latency_ms=shared[-1]["mean_latency_sensitive_ms"],
        throughput_kqps=shared[-1]["throughput_kqps"],
    )
    report.add_row(
        config="reserved", mean_latency_ms=reserved[-1]["mean_latency_sensitive_ms"],
        throughput_kqps=reserved[-1]["throughput_kqps"],
    )
    report.add_note(
        f"estimated shared capacity {capacity_rps:.0f} rps ({N_CORES} cores); "
        f"ablation load {ablation_loads[-1]:.0f} rps (~2x capacity)"
    )
    # Every comparison below is between simulations calibrated from
    # wall-clock stage times, so each is recorded as a claim, not asserted.
    # The saturation premise of Section 5.4.1: at the ablation point the
    # shared config is actually overloaded -- served records below offered,
    # and queueing delay (not service time) dominating the latency-sensitive
    # mean relative to the uncongested 0.5x point.  Then the conclusion
    # itself: under overload, reserving a core lowers the latency-sensitive
    # mean (observed ~1.2-1.3x across hosts) without collapsing total
    # throughput.
    offered_kqps = ablation_loads[-1] * mean_records / 1e3
    write_report(
        "ablation_reservation",
        report.render(),
        metrics={
            **claim_below(
                "shared_served_over_offered", shared[-1]["throughput_kqps"] / offered_kqps, 0.9
            ),
            **claim(
                "shared_ls_latency_congestion",
                shared[-1]["mean_latency_sensitive_ms"] / shared[0]["mean_latency_sensitive_ms"],
                10.0,
            ),
            **claim(
                "reservation_ls_latency_speedup",
                shared[-1]["mean_latency_sensitive_ms"] / reserved[-1]["mean_latency_sensitive_ms"],
                1.0,
            ),
            **claim(
                "reserved_over_shared_kqps",
                reserved[-1]["throughput_kqps"] / shared[-1]["throughput_kqps"],
                0.6,
            ),
        },
    )
    assert len(shared) == len(reserved) == len(ablation_loads)
    assert all(row["throughput_kqps"] > 0 for row in shared + reserved)


# -- cluster series: zero lost requests under an induced worker kill -----------

FAILOVER_CLIENTS = 4
FAILOVER_BATCHES_PER_CLIENT = 15
FAILOVER_BATCH = 100
#: batch index the clients line up on before the worker is killed, so the
#: kill lands mid-stream for every client rather than before/after traffic
FAILOVER_KILL_AFTER = 3


def test_fig13_cluster_failover_zero_lost(sa_family, sa_inputs):
    """Fig13-style heavy load with an induced worker kill: a 2-worker
    cluster serves 4 concurrent clients; one worker is killed
    mid-stream.  Every request must complete (typed retryable
    ``WorkerFailedError`` + client retry -- zero lost requests), with values
    bit-equal to the pre-kill oracle, and the fail-over must be counted in
    ``stats()["control_plane"]``."""
    from repro.serving import WorkerFailedError

    config = PretzelConfig(
        num_workers=2,
        placement_replicas=2,
        heartbeat_interval_seconds=0.2,
        shm_min_parameter_bytes=1024,
        worker_timeout_seconds=60.0,
    )
    generated = sa_family.pipelines[0]
    batch = (sa_inputs * (FAILOVER_BATCH // len(sa_inputs) + 1))[:FAILOVER_BATCH]
    completed = [0] * FAILOVER_CLIENTS
    retries = [0] * FAILOVER_CLIENTS
    mismatches = [0] * FAILOVER_CLIENTS
    kill_gate = threading.Barrier(FAILOVER_CLIENTS + 1)
    with PretzelCluster(config) as cluster:
        plan_id = cluster.register(generated.pipeline, stats=generated.stats)
        expected = cluster.predict_batch(plan_id, batch)  # warm both workers

        def client(slot):
            for index in range(FAILOVER_BATCHES_PER_CLIENT):
                if index == FAILOVER_KILL_AFTER:
                    kill_gate.wait()
                deadline = time.time() + 120.0
                while True:
                    try:
                        outputs = cluster.predict_batch(plan_id, batch)
                        break
                    except (WorkerFailedError, BackpressureError) as error:
                        assert error.retryable is True
                        retries[slot] += 1
                        assert time.time() < deadline, "retry never succeeded"
                        time.sleep(0.002)
                if not np.allclose(outputs, expected):
                    mismatches[slot] += 1
                completed[slot] += 1

        threads = [
            threading.Thread(target=client, args=(slot,)) for slot in range(FAILOVER_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        kill_gate.wait()
        victim = cluster.placement(plan_id)[0]
        cluster._workers[victim].process.kill()
        for thread in threads:
            thread.join(timeout=300.0)
        assert all(not thread.is_alive() for thread in threads)
        stats = cluster.stats()

    control = stats["control_plane"]
    report = ExperimentReport(
        "Figure 13 (cluster fail-over)",
        f"2-worker cluster, {FAILOVER_CLIENTS} clients x "
        f"{FAILOVER_BATCHES_PER_CLIENT} batches of {FAILOVER_BATCH}; one worker "
        f"killed after every client completed {FAILOVER_KILL_AFTER} batches.",
    )
    report.rows = [
        {
            "client": slot,
            "completed_batches": completed[slot],
            "retried_errors": retries[slot],
            "value_mismatches": mismatches[slot],
        }
        for slot in range(FAILOVER_CLIENTS)
    ]
    report.add_note(
        f"failovers={control['failovers']} plans_failed_over={control['plans_failed_over']} "
        f"dead={control['dead_workers']} served={stats['served_predictions']} records "
        "on survivors"
    )
    write_report("fig13_cluster_failover", report.render())

    # Zero lost requests: every client completed every batch, bit-equal.
    offered = FAILOVER_CLIENTS * FAILOVER_BATCHES_PER_CLIENT
    assert sum(completed) == offered
    assert sum(mismatches) == 0
    # The kill really happened mid-stream and was adjudicated exactly once.
    assert control["failovers"] == 1
    assert victim in control["dead_workers"]
    # The clients saw the typed retryable error (the kill was not a no-op).
    assert sum(retries) >= 1
    # The survivor absorbed the whole tail: its served count covers at least
    # the post-kill batches of every client.
    assert stats["served_predictions"] >= (
        FAILOVER_CLIENTS * (FAILOVER_BATCHES_PER_CLIENT - FAILOVER_KILL_AFTER) * FAILOVER_BATCH
    )
