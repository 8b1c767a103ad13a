"""Figure 9: hot/cold latency micro-benchmark, PRETZEL vs the black box (SA & AC).

The figure's speedups and cold/hot ratios are recorded as ``metrics`` fields
(value, floor, ``*_met``) in its ``results/*.json``, not asserted: they
compare medians of sub-millisecond timings that move with host load.
"""

import numpy as np

from conftest import claim, write_report
from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.mlnet.runtime import MLNetRuntime
from repro.telemetry.latency import LatencyRecorder
from repro.telemetry.reporting import ExperimentReport


#: the figure's four latency series
_GROUPS = ("pretzel-hot", "mlnet-hot", "pretzel-cold", "mlnet-cold")


def _measure(family, inputs, sample=40):
    """Cold + hot latency per pipeline on both systems (request/response path)."""
    recorder = LatencyRecorder()
    mlnet = MLNetRuntime()
    pretzel = PretzelRuntime(PretzelConfig())
    plan_ids = {}
    pipelines = family.pipelines[:sample]
    for generated in pipelines:
        mlnet.load(generated.pipeline)
        plan_ids[generated.name] = pretzel.register(generated.pipeline, stats=generated.stats)
    try:
        for generated in pipelines:
            plan_id = plan_ids[generated.name]
            recorder.record(mlnet.timed_predict(generated.name, inputs[0])[1], "mlnet-cold")
            recorder.record(pretzel.timed_predict(plan_id, inputs[0])[1], "pretzel-cold")
            for text in inputs[1:4]:
                mlnet.predict(generated.name, text)
                pretzel.predict(plan_id, text)
            mlnet_hot, pretzel_hot = [], []
            for text in inputs[4:12]:
                mlnet_hot.append(mlnet.timed_predict(generated.name, text)[1])
                pretzel_hot.append(pretzel.timed_predict(plan_id, text)[1])
            recorder.record(float(np.mean(mlnet_hot)), "mlnet-hot")
            recorder.record(float(np.mean(pretzel_hot)), "pretzel-hot")
    finally:
        pretzel.shutdown()
    return recorder


def _render(category, recorder):
    report = ExperimentReport(
        f"Figure 9 ({category})",
        "P99 latency (ms) of hot and cold predictions, PRETZEL vs black box.",
    )
    for group in _GROUPS:
        summary = recorder.summary(group)
        report.add_row(series=group, p99_ms=summary["p99"] * 1e3, worst_ms=summary["worst"] * 1e3)
    report.add_note(
        f"hot P99 speedup: {recorder.speedup('mlnet-hot', 'pretzel-hot'):.2f}x; "
        f"cold P99 speedup: {recorder.speedup('mlnet-cold', 'pretzel-cold'):.2f}x"
    )
    return report


# The *reports* keep P99 (the figure the paper shows); the *metrics* below
# use medians.  A P99 over 40 cold samples is an extreme statistic -- one GC
# pause or scheduler hiccup during a single ~50us prediction flips it.  The
# median carries the same shape signal (cold speedups measure ~3x) without
# the jitter.


def _claims(recorder, hot_speedup_floor, cold_speedup_floor):
    """Hot and cold median speedups, and how much worse the black box degrades cold."""
    mlnet_ratio = recorder.percentile(50, "mlnet-cold") / recorder.percentile(50, "mlnet-hot")
    pretzel_ratio = recorder.percentile(50, "pretzel-cold") / recorder.percentile(50, "pretzel-hot")
    return {
        **claim(
            "hot_p50_speedup",
            recorder.speedup("mlnet-hot", "pretzel-hot", q=50.0),
            hot_speedup_floor,
        ),
        **claim(
            "cold_p50_speedup",
            recorder.speedup("mlnet-cold", "pretzel-cold", q=50.0),
            cold_speedup_floor,
        ),
        # > 1: the cold/hot degradation is worse for the black box
        **claim("cold_hot_degradation_ratio", mlnet_ratio / pretzel_ratio, 1.0),
    }


def test_fig9_latency_sa(benchmark, sa_family, sa_inputs):
    recorder = benchmark.pedantic(lambda: _measure(sa_family, sa_inputs), iterations=1, rounds=1)
    write_report(
        "fig9_latency_sa",
        _render("SA", recorder).render(),
        metrics=_claims(recorder, hot_speedup_floor=1.0, cold_speedup_floor=1.5),
    )
    # Structural: one sample per sampled pipeline in every series.
    assert {recorder.summary(group)["count"] for group in _GROUPS} == {40}


def test_fig9_latency_ac(benchmark, ac_family, ac_inputs):
    recorder = benchmark.pedantic(lambda: _measure(ac_family, ac_inputs), iterations=1, rounds=1)
    # The AC pipelines are tiny (tens of microseconds of real compute), so the
    # hot-path advantage the paper reports does not fully materialize in pure
    # Python: stage orchestration overhead is of the same order as the avoided
    # buffer copies.  The shape claimed is therefore parity on the hot path
    # (within 2x) and a clear win on the cold path (see EXPERIMENTS.md).
    write_report(
        "fig9_latency_ac",
        _render("AC", recorder).render(),
        metrics=_claims(recorder, hot_speedup_floor=0.5, cold_speedup_floor=1.2),
    )
    # Structural: one sample per sampled pipeline in every series.
    assert {recorder.summary(group)["count"] for group in _GROUPS} == {40}
