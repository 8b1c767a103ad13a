"""Figure 12: batch throughput scaling with CPU cores, PRETZEL vs the black box."""

import time

import numpy as np

from conftest import claim, write_report
from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.mlnet.runtime import MLNetRuntime
from repro.serving import PretzelCluster
from repro.simulation.calibrate import (
    calibrate_blackbox,
    calibrate_plan_stage_batches,
    calibrate_plan_stages,
)
from repro.simulation.queueing import (
    ArrivalProcess,
    simulate_stage_scheduler,
    simulate_thread_per_request,
)
from repro.telemetry.reporting import ExperimentReport

CORE_COUNTS = [1, 2, 4, 8, 13]
#: sub-linear scaling of the black box: duplicated per-thread model state
#: stresses the memory subsystem as cores are added (Section 5.3).
BLACKBOX_CONTENTION_PER_CORE = 0.04


def _calibrate(family, inputs, sample=10):
    """Measure per-stage (PRETZEL) and per-request (black box) service times.

    Alongside the scalar per-stage times, the vectorized batch path
    (``execute_plan_stage_batch``) is calibrated at the benchmark's request
    batch size.  The batched path never does more per-record work than the
    scalar loop (operators without a vectorized kernel fall back to it), so a
    measured per-record time *above* the scalar one is timer noise; clamping
    at the scalar time keeps the batched series deterministic.
    """
    pretzel = PretzelRuntime(PretzelConfig())
    mlnet = MLNetRuntime()
    stage_times = {}
    batched_stage_times = {}
    raw_speedups = {}
    request_times = {}
    try:
        for generated in family.pipelines[:sample]:
            plan_id = pretzel.register(generated.pipeline, stats=generated.stats)
            mlnet.load(generated.pipeline)
            calibrated = calibrate_plan_stages(pretzel, plan_id, inputs[:3], repetitions=2)
            stage_times[generated.name] = calibrated.stage_seconds
            batched = calibrate_plan_stage_batches(
                pretzel, plan_id, inputs[:3], batch_size=100, repetitions=2
            )
            batched_stage_times[generated.name] = [
                min(scalar, vectorized)
                for scalar, vectorized in zip(calibrated.stage_seconds, batched.stage_seconds)
            ]
            # Unclamped whole-plan ratio: < 1.0 here means the batch path
            # measured *slower* than the scalar loop -- the clamp above keeps
            # the simulated series deterministic, this keeps the report honest.
            raw_speedups[generated.name] = calibrated.total_seconds / max(
                batched.total_seconds, 1e-12
            )
            request_times[generated.name] = calibrate_blackbox(
                mlnet, generated.name, inputs[:3], repetitions=2
            )
    finally:
        pretzel.shutdown()
    return stage_times, batched_stage_times, raw_speedups, request_times


def _sweep(family, stage_times, batched_stage_times, request_times, batch=100, requests=300):
    models = list(stage_times)
    arrivals = ArrivalProcess.constant_rate(
        models, requests_per_second=100000.0, duration_seconds=requests / 100000.0, batch_size=batch
    )
    rows = []
    for cores in CORE_COUNTS:
        pretzel_result = simulate_stage_scheduler(
            arrivals,
            lambda model, batch_size: [t * batch_size for t in stage_times[model]],
            n_cores=cores,
        )
        batched_result = simulate_stage_scheduler(
            arrivals,
            lambda model, batch_size: [t * batch_size for t in batched_stage_times[model]],
            n_cores=cores,
        )
        mlnet_result = simulate_thread_per_request(
            arrivals,
            lambda model, batch_size: request_times[model] * batch_size,
            n_cores=cores,
            contention_per_core=BLACKBOX_CONTENTION_PER_CORE,
        )
        rows.append(
            {
                "cores": cores,
                "pretzel_kqps": pretzel_result.throughput_qps / 1e3,
                "pretzel_batched_kqps": batched_result.throughput_qps / 1e3,
                "mlnet_kqps": mlnet_result.throughput_qps / 1e3,
                "speedup": pretzel_result.throughput_qps / max(mlnet_result.throughput_qps, 1e-9),
            }
        )
    return rows


def _run(family, inputs):
    stage_times, batched_stage_times, raw_speedups, request_times = _calibrate(family, inputs)
    rows = _sweep(family, stage_times, batched_stage_times, request_times)
    return rows, float(np.mean(list(raw_speedups.values())))


def _check_shape(rows):
    # Stage-level batching (vectorized batched stage execution) must never
    # lose throughput against the unbatched configuration of the same run.
    # Structural, not a timing claim: every batched stage time is clamped at
    # its scalar time in _calibrate, so the simulator sees no slower stage.
    assert np.mean([r["pretzel_batched_kqps"] for r in rows]) >= np.mean(
        [r["pretzel_kqps"] for r in rows]
    )


def _shape_claims(rows):
    """PRETZEL scales close to linearly and the black box scales worse, so
    the gap widens with core count (the paper's headline observation).

    The series are simulated from service times measured on this host, so
    each ordering is a wall-clock claim: a ratio above its floor means it
    held.
    """
    one = next(r for r in rows if r["cores"] == 1)
    eight = next(r for r in rows if r["cores"] == 8)
    top = rows[-1]
    pretzel_scaling = eight["pretzel_kqps"] / one["pretzel_kqps"]
    mlnet_scaling = eight["mlnet_kqps"] / one["mlnet_kqps"]
    return {
        **claim("pretzel_8_core_scaling", pretzel_scaling, 5.0),
        **claim("pretzel_over_mlnet_scaling_ratio", pretzel_scaling / mlnet_scaling, 1.0),
        **claim("top_over_one_core_speedup_ratio", top["speedup"] / one["speedup"], 1.0),
        **claim(
            "top_pretzel_over_mlnet_kqps_ratio",
            top["pretzel_kqps"] / max(top["mlnet_kqps"], 1e-9),
            1.0,
        ),
    }


#: the unclamped batch-path speedup the figure claims (observed 1.19-1.30x on
#: SA and 1.73-1.84x on AC; 1.05 leaves noise room)
RAW_SPEEDUP_FLOOR = 1.05


def _claims(rows, raw_speedup, win_ratio_floor):
    """The figure's wall-clock claims, recorded as report fields, not asserted.

    ``raw_speedup`` is the unclamped per-record batch-path speedup (the
    clamped simulated series cannot regress below the scalar one by
    construction, so this is the number that shows a real slowdown).
    ``min_win_ratio`` is the worst per-row PRETZEL/black-box throughput
    ratio: at low core counts that margin sits within timer noise on small
    hosts (observed 0.88-1.07x at 1 core for SA), so its floor is a noise
    floor, not a strict win.
    """
    win_ratio = min(row["pretzel_kqps"] / max(row["mlnet_kqps"], 1e-9) for row in rows)
    return {
        **claim("raw_speedup", raw_speedup, RAW_SPEEDUP_FLOOR),
        **claim("min_win_ratio", win_ratio, win_ratio_floor),
        **_shape_claims(rows),
    }


# -- cluster series (multi-process serving tier) -------------------------------

#: worker counts for the cluster_* series (the serving-tier analogue of the
#: core sweep above)
CLUSTER_WORKER_COUNTS = [1, 2, 4]
CLUSTER_SAMPLE_PLANS = 8
CLUSTER_BATCH = 100
CLUSTER_N_BATCHES = 240


def _cluster_config(n_workers):
    """Every plan on every worker: the checksum-identical-plans setup the
    arena exists for, and maximum dispatch freedom for the router."""
    return PretzelConfig(
        num_workers=n_workers,
        placement_replicas=n_workers,
        shm_min_parameter_bytes=1024,
    )


#: interleaved (local, round trip) trial pairs per model.  The per-batch
#: overhead is a few hundred microseconds measured as the difference of two
#: ~25 ms Python loops whose individual run-to-run drift (GC, allocator
#: state) is itself ~1 ms, so the estimator is the *median of the paired
#: per-trial differences*: pairing cancels the drift both loops share, and
#: the median rejects the occasional trial where a collection lands inside
#: exactly one of the two loops.  min-of-mins over few trials -- the
#: previous estimator -- let that single-loop drift masquerade as wire cost.
CLUSTER_CALIBRATION_TRIALS = 10


def _calibrate_cluster(family, inputs):
    """Real single-process whole-batch cost and real per-batch cluster round
    trip (one live worker, wire framing + IPC + execution included).

    Both sides time the *same* work -- the scalar per-record loop a
    request-response worker runs over the batch -- so their difference is the
    IPC+framing overhead and nothing else.  Trials are interleaved per model
    (local, round trip, local, ...) so host-speed drift between two separate
    measurement phases cannot bias one side, and the overhead estimate is the
    median of the paired per-trial differences (see
    ``CLUSTER_CALIBRATION_TRIALS``).  The cluster executes the exact
    single-process loop plus IPC, so a paired difference *below* zero is
    timer noise; clamping at the floor keeps the derived overhead physically
    meaningful (>= 0), and the raw unclamped mean is reported alongside as
    the honesty check.
    """
    import gc

    sample = family.pipelines[:CLUSTER_SAMPLE_PLANS]
    batch = (inputs * (CLUSTER_BATCH // len(inputs) + 1))[:CLUSTER_BATCH]
    single_batch = {}
    round_trip = {}
    raw_overheads = []
    with PretzelCluster(_cluster_config(1)) as probe, PretzelRuntime(PretzelConfig()) as runtime:
        for generated in sample:
            local_id = runtime.register(generated.pipeline, stats=generated.stats)
            probe_id = probe.register(generated.pipeline, stats=generated.stats)
            runtime.predict(local_id, inputs[0])  # warm (compile, pools)
            probe.predict_batch(probe_id, batch)  # warm
            best_local = float("inf")
            deltas = []
            gc.collect()  # start every model's trials from a settled heap
            for _ in range(CLUSTER_CALIBRATION_TRIALS):
                start = time.perf_counter()
                for record in batch:
                    runtime.predict(local_id, record)
                local = time.perf_counter() - start
                best_local = min(best_local, local)
                start = time.perf_counter()
                probe.predict_batch(probe_id, batch)
                deltas.append((time.perf_counter() - start) - local)
            overhead = float(np.median(deltas))
            single_batch[generated.name] = best_local
            raw_overheads.append(overhead)
            round_trip[generated.name] = best_local + max(overhead, 0.0)
    return single_batch, round_trip, raw_overheads


def _measure_cluster_memory(family):
    """Real N-worker clusters serving checksum-identical plans."""
    sample = family.pipelines[:CLUSTER_SAMPLE_PLANS]
    rows = []
    for n_workers in CLUSTER_WORKER_COUNTS:
        with PretzelCluster(_cluster_config(n_workers)) as cluster:
            for generated in sample:
                cluster.register(generated.pipeline, stats=generated.stats)
            stats = cluster.stats()
            rows.append(
                {
                    "workers": n_workers,
                    "memory_mb": stats["memory_bytes"] / 1e6,
                    "arena_mb": stats["arena"]["used_bytes"] / 1e6,
                    "adopted_parameters": sum(
                        w["stats"]["object_store"]["parameter_backing"]["adopted_parameters"]
                        for w in stats["workers"].values()
                    ),
                }
            )
    one_worker_mb = rows[0]["memory_mb"]
    for row in rows:
        row["linear_mb"] = one_worker_mb * row["workers"]
    return rows


def test_fig12_cluster_scaling(sa_family, sa_inputs):
    """The serving tier's fig12 analogue: kqps and memory vs worker count.

    Single-process whole-batch cost and whole-batch worker round trips (wire
    framing + IPC + execution) are measured against the real implementations
    on this host;
    the worker sweep then uses the same deterministic queueing model as the
    core sweep above, with the router's least-loaded dispatch (this container
    exposes a single CPU, so N-process parallelism -- like the 13-core sweep
    -- cannot be timed directly).  The memory series is fully real: live
    clusters of 1/2/4 workers serving the same plans.
    """
    single_batch, round_trip, raw_overheads = _calibrate_cluster(sa_family, sa_inputs)
    raw_overhead_ms = float(np.mean(raw_overheads)) * 1e3
    models = list(single_batch)
    arrivals = ArrivalProcess.constant_rate(
        models,
        requests_per_second=1e6,
        duration_seconds=CLUSTER_N_BATCHES / 1e6,
        batch_size=CLUSTER_BATCH,
    )
    single = simulate_thread_per_request(
        arrivals, lambda model, batch: single_batch[model], n_cores=1
    )
    single_kqps = single.throughput_qps / 1e3
    throughput_rows = []
    for n_workers in CLUSTER_WORKER_COUNTS:
        # One worker serves one batch request at a time; the measured round
        # trip is its whole-batch service time.  No cross-worker contention
        # term: workers are separate processes sharing only read-only arena
        # pages.
        result = simulate_thread_per_request(
            arrivals, lambda model, batch: round_trip[model], n_cores=n_workers
        )
        throughput_rows.append(
            {
                "workers": n_workers,
                "cluster_kqps": result.throughput_qps / 1e3,
                "single_process_kqps": single_kqps,
                "speedup": result.throughput_qps / 1e3 / single_kqps,
            }
        )
    memory_rows = _measure_cluster_memory(sa_family)

    throughput = ExperimentReport(
        "Figure 12 (cluster, SA)",
        "Sharded serving-tier throughput vs worker count (batch=100).",
    )
    throughput.rows = throughput_rows
    mean_overhead_ms = float(
        np.mean([round_trip[m] - single_batch[m] for m in models])
    ) * 1e3
    # The unclamped overheads are recorded, not asserted: the local side runs
    # in this long-lived test process (large heap, warm allocator) and the
    # worker side in a fresh fork, so "cluster below the local floor" is what
    # the comparison can legitimately read in a full suite run.
    min_raw_overhead_ms = min(raw_overheads) * 1e3
    throughput.add_note(
        f"measured per-batch IPC+framing overhead: {mean_overhead_ms:.3f} ms "
        f"(batch={CLUSTER_BATCH}, 1 live worker, binary output frames; raw "
        f"unclamped mean {raw_overhead_ms:.3f} ms, min {min_raw_overhead_ms:.3f} ms; "
        f"paired-difference median over {CLUSTER_CALIBRATION_TRIALS} interleaved "
        f"trials per model)"
    )
    memory = ExperimentReport(
        "Figure 12 (cluster memory, SA)",
        "Real N-worker cluster footprint; linear_mb is N private copies.",
    )
    memory.rows = memory_rows
    # Throughput claims, recorded rather than asserted (they are simulated
    # from measured round trips): a 4-worker cluster beats the
    # single-process runtime with margin, and adding workers keeps paying.
    by_workers = {row["workers"]: row for row in throughput_rows}
    write_report(
        "fig12_cluster_scaling",
        throughput.render() + "\n\n" + memory.render(),
        metrics={
            "raw_overhead_ms": raw_overhead_ms,
            "min_raw_overhead_ms": min_raw_overhead_ms,
            **claim(
                "cluster_4_over_single_kqps_ratio",
                by_workers[4]["cluster_kqps"] / single_kqps,
                1.5,
            ),
            **claim(
                "cluster_4_over_2_kqps_ratio",
                by_workers[4]["cluster_kqps"] / by_workers[2]["cluster_kqps"],
                1.0,
            ),
            **claim(
                "cluster_2_over_1_kqps_ratio",
                by_workers[2]["cluster_kqps"] / by_workers[1]["cluster_kqps"],
                1.0,
            ),
        },
    )

    # Memory: strictly sub-linear in N, and the gap is explained by shared
    # parameters mapped once -- N workers pay the arena once instead of N
    # private copies (2.5 of the 3 saved copies leaves accounting noise room).
    by_n = {row["workers"]: row for row in memory_rows}
    arena_mb = by_n[4]["arena_mb"]
    assert arena_mb > 0
    for n_workers in (2, 4):
        assert by_n[n_workers]["memory_mb"] < by_n[n_workers]["linear_mb"]
    assert by_n[4]["memory_mb"] <= by_n[4]["linear_mb"] - 2.5 * arena_mb
    assert all(row["adopted_parameters"] > 0 for row in memory_rows)


def _report_throughput(label, rows, raw_speedup, win_ratio_floor):
    report = ExperimentReport(
        f"Figure 12 ({label})",
        "Batch throughput (thousands of queries/second) vs number of CPU cores.",
    )
    report.rows = rows
    report.add_note(f"raw (unclamped) per-record batch-path speedup: {raw_speedup:.3f}x")
    write_report(
        f"fig12_throughput_{label.lower()}",
        report.render(),
        metrics=_claims(rows, raw_speedup, win_ratio_floor),
    )
    _check_shape(rows)


def test_fig12_throughput_sa(benchmark, sa_family, sa_inputs):
    rows, raw_speedup = benchmark.pedantic(
        lambda: _run(sa_family, sa_inputs), iterations=1, rounds=1
    )
    _report_throughput("SA", rows, raw_speedup, win_ratio_floor=0.8)


def test_fig12_throughput_ac(benchmark, ac_family, ac_inputs):
    rows, raw_speedup = benchmark.pedantic(
        lambda: _run(ac_family, ac_inputs), iterations=1, rounds=1
    )
    # The very cheap AC pipelines' per-record advantage is small at low core
    # counts (observed down to 0.82x at 1 core); the widening gap with cores
    # is the shape under test.
    _report_throughput("AC", rows, raw_speedup, win_ratio_floor=0.6)
