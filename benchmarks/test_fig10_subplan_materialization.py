"""Figure 10 + Section 5.2.1 ablations: materialization and AOT compilation.

The figures' wall-clock claims are recorded as ``metrics`` fields (value,
floor, ``*_met``) in their ``results/*.json``, not asserted: they compare
means of sub-millisecond timings that move with host load.
"""

import numpy as np

from conftest import claim, write_report
from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.telemetry.reporting import ExperimentReport

#: materialization must help on average ...
MEAN_SPEEDUP_FLOOR = 1.3
#: ... a majority of SA pipelines must see at least 1.5x ...
FRAC_ABOVE_1_5X_FLOOR = 0.5
#: ... and no pipeline may get meaningfully slower
MIN_SPEEDUP_FLOOR = 0.7
#: without AOT every plan's cold prediction pays stage specialization
NO_AOT_COLD_RATIO_FLOOR = 1.1


def _hot_latencies(runtime, plan_ids, inputs, repetitions=6):
    """Mean hot latency per plan (after warm-up)."""
    latencies = {}
    for plan_id in plan_ids:
        runtime.predict(plan_id, inputs[0])
        samples = []
        for _ in range(repetitions):
            for text in inputs[1:3]:
                samples.append(runtime.timed_predict(plan_id, text)[1])
        latencies[plan_id] = float(np.mean(samples))
    return latencies


def test_fig10_subplan_materialization(benchmark, sa_family, sa_inputs):
    """Hot SA latency with and without sub-plan materialization."""

    def run():
        baseline = PretzelRuntime(PretzelConfig(enable_subplan_materialization=False))
        materialized = PretzelRuntime(
            PretzelConfig(enable_subplan_materialization=True, materialization_budget_bytes=64 * 1024 * 1024)
        )
        try:
            base_ids, mat_ids = [], []
            for generated in sa_family.pipelines:
                base_ids.append(baseline.register(generated.pipeline, stats=generated.stats))
                mat_ids.append(materialized.register(generated.pipeline, stats=generated.stats))
            base = _hot_latencies(baseline, base_ids, sa_inputs)
            mat = _hot_latencies(materialized, mat_ids, sa_inputs)
            speedups = [base[b] / mat[m] for b, m in zip(base_ids, mat_ids)]
            hits = materialized.materializer.stats()["hits"]
        finally:
            baseline.shutdown()
            materialized.shutdown()
        return speedups, hits

    speedups, hits = benchmark.pedantic(run, iterations=1, rounds=1)
    report = ExperimentReport(
        "Figure 10",
        "Per-pipeline hot-latency speedup from sub-plan materialization (SA family).",
    )
    mean_speedup = float(np.mean(speedups))
    report.add_row(
        pipelines=len(speedups),
        mean_speedup=mean_speedup,
        p50_speedup=float(np.percentile(speedups, 50)),
        frac_above_2x=float(np.mean([s >= 2.0 for s in speedups])),
        cache_hits=hits,
    )
    write_report(
        "fig10_subplan_materialization",
        report.render(),
        metrics={
            **claim("mean_speedup", mean_speedup, MEAN_SPEEDUP_FLOOR),
            **claim(
                "frac_above_1_5x",
                float(np.mean([s >= 1.5 for s in speedups])),
                FRAC_ABOVE_1_5X_FLOOR,
            ),
            **claim("min_speedup", float(min(speedups)), MIN_SPEEDUP_FLOOR),
        },
    )
    # Structural: materialized stage outputs were actually reused.
    assert hits > 0


def test_ablation_aot_compilation(benchmark, sa_family, sa_inputs):
    """Section 5.2.1: disabling AOT compilation inflates cold latency."""

    def run():
        results = {}
        for label, config in (
            ("full", PretzelConfig()),
            ("no-aot", PretzelConfig(enable_aot_compilation=False)),
        ):
            runtime = PretzelRuntime(config)
            try:
                cold, hot = [], []
                for generated in sa_family.pipelines[:25]:
                    plan_id = runtime.register(generated.pipeline, stats=generated.stats)
                    cold.append(runtime.timed_predict(plan_id, sa_inputs[0])[1])
                    runtime.predict(plan_id, sa_inputs[1])
                    samples = [
                        runtime.timed_predict(plan_id, text)[1] for text in sa_inputs[2:8]
                    ]
                    hot.append(float(np.mean(samples)))
                results[label] = (float(np.mean(cold)), float(np.mean(hot)))
            finally:
                runtime.shutdown()
        return results

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    report = ExperimentReport("Section 5.2.1 ablations", "Effect of disabling AOT compilation.")
    for label, (cold, hot) in results.items():
        report.add_row(config=label, mean_cold_ms=cold * 1e3, mean_hot_ms=hot * 1e3)
    report.add_note(
        "the paper's vector-pooling ablation is not reproduced: every kernel allocates "
        "its own outputs, so a pre-allocated buffer would be lent and returned without "
        "being written; the runtime has no vector pool to switch off"
    )
    # Without AOT every plan's cold prediction pays interpretation plus stage
    # specialization (the compiler hands out fresh uncompiled stages instead
    # of already-specialized catalog entries).
    write_report(
        "ablation_aot_pooling",
        report.render(),
        metrics=claim(
            "no_aot_cold_ratio",
            results["no-aot"][0] / results["full"][0],
            NO_AOT_COLD_RATIO_FLOOR,
        ),
    )
