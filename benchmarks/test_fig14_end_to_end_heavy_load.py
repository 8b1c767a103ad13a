"""Figure 14: end-to-end heavy load, PRETZEL vs ML.Net + Clipper (AC pipelines)."""


from conftest import claim, write_report
from repro.clipper.container import ModelContainer
from repro.core.config import PretzelConfig
from repro.core.frontend import FrontEndConfig
from repro.core.runtime import PretzelRuntime
from repro.simulation.calibrate import calibrate_container, calibrate_plan_stages
from repro.simulation.queueing import (
    ArrivalProcess,
    simulate_stage_scheduler,
    simulate_thread_per_request,
)
from repro.telemetry.reporting import ExperimentReport
from repro.workloads.zipf import zipf_request_sequence

LOADS = [250, 500, 1000, 2000, 3000]
N_CORES = 13
#: per-request cost of switching between containers on a core (context
#: switches across hundreds of containers, Section 5.4.2)
CONTAINER_SWITCH_PENALTY = 0.002


def _calibrate(ac_family, ac_inputs, sample=12):
    pretzel = PretzelRuntime(PretzelConfig())
    pretzel_frontend_overhead = FrontEndConfig().client_network.round_trip_seconds
    clipper_overheads = {}
    stage_times = {}
    container_times = {}
    try:
        for generated in ac_family.pipelines[:sample]:
            plan_id = pretzel.register(generated.pipeline, stats=generated.stats)
            calibrated = calibrate_plan_stages(pretzel, plan_id, ac_inputs[:2], repetitions=2)
            stage_times[generated.name] = calibrated.stage_seconds
            container = ModelContainer(generated.pipeline)
            container_times[generated.name] = calibrate_container(container, ac_inputs[:2])
            clipper_overheads[generated.name] = 0.009  # Redis front-end hop
    finally:
        pretzel.shutdown()
    return stage_times, container_times, pretzel_frontend_overhead, clipper_overheads


def _sweep(stage_times, container_times, pretzel_hop, clipper_hops, duration=2.0, seed=5):
    models = list(stage_times)
    rows = []
    for load in LOADS:
        sequence = zipf_request_sequence(models, int(load * duration), alpha=2.0, seed=seed)
        arrivals = ArrivalProcess.from_model_sequence(sequence, requests_per_second=load)
        # The delayed-batching front-end path: the same arrivals marked
        # throughput-oriented, so stage-level coalescing may batch them.
        batched_arrivals = ArrivalProcess.from_model_sequence(
            sequence,
            requests_per_second=load,
            latency_sensitive={model: False for model in models},
        )
        pretzel_result = simulate_stage_scheduler(
            arrivals,
            lambda model, batch_size: stage_times[model],
            n_cores=N_CORES,
        )
        pretzel_batched_result = simulate_stage_scheduler(
            batched_arrivals,
            lambda model, batch_size: stage_times[model],
            n_cores=N_CORES,
            max_stage_batch=16,
        )
        clipper_result = simulate_thread_per_request(
            arrivals,
            lambda model, batch_size: container_times[model],
            n_cores=N_CORES,
            model_switch_penalty=CONTAINER_SWITCH_PENALTY,
        )
        rows.append(
            {
                "load_rps": load,
                "pretzel_qps": pretzel_result.throughput_qps,
                "pretzel_batched_qps": pretzel_batched_result.throughput_qps,
                "clipper_qps": clipper_result.throughput_qps,
                "pretzel_latency_ms": (pretzel_result.mean_latency + pretzel_hop) * 1e3,
                "pretzel_batched_latency_ms": (
                    pretzel_batched_result.mean_latency + pretzel_hop
                ) * 1e3,
                "clipper_latency_ms": (clipper_result.mean_latency + clipper_hops[models[0]]) * 1e3,
            }
        )
    return rows


def test_fig14_end_to_end_heavy_load(benchmark, ac_family, ac_inputs):
    stage_times, container_times, pretzel_hop, clipper_hops = _calibrate(ac_family, ac_inputs)
    rows = benchmark.pedantic(
        lambda: _sweep(stage_times, container_times, pretzel_hop, clipper_hops),
        iterations=1,
        rounds=1,
    )
    report = ExperimentReport(
        "Figure 14",
        "End-to-end throughput and mean latency under Zipf(2) load over AC pipelines, "
        "PRETZEL (ASP.Net-style front-end) vs ML.Net + Clipper (containers); "
        "pretzel_batched_* is the delayed-batching front-end path (requests marked "
        "throughput-oriented, stage-level coalescing with max_stage_batch=16).",
    )
    report.rows = rows
    # Shape, recorded as claims (the series are simulated from stage times
    # measured on this host): PRETZEL sustains at least the offered load for
    # longer and with lower latency than the containerized deployment at
    # every load point (throughputs are equal while both keep up, hence the
    # 0.99 floor), and the batched front-end path never costs throughput.
    # Clipper saturates: at the top of the sweep it can no longer match the
    # offered load while PRETZEL still tracks it closely.
    top = rows[-1]
    write_report(
        "fig14_end_to_end_heavy_load",
        report.render(),
        metrics={
            **claim(
                "min_pretzel_over_clipper_qps",
                min(row["pretzel_qps"] / row["clipper_qps"] for row in rows),
                0.99,
            ),
            **claim(
                "min_clipper_over_pretzel_latency",
                min(row["clipper_latency_ms"] / row["pretzel_latency_ms"] for row in rows),
                1.0,
            ),
            **claim(
                "min_batched_over_pretzel_qps",
                min(row["pretzel_batched_qps"] / row["pretzel_qps"] for row in rows),
                0.9,
            ),
            **claim("top_pretzel_qps_over_load", top["pretzel_qps"] / top["load_rps"], 0.9),
        },
    )
    assert [row["load_rps"] for row in rows] == LOADS
    assert all(row["pretzel_qps"] > 0 and row["clipper_qps"] > 0 for row in rows)
