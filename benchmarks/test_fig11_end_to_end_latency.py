"""Figure 11: end-to-end client latency, PRETZEL front-end vs ML.Net + Clipper.

The orderings are wall-clock claims, recorded in each report's ``metrics``
through ``claim()`` (a ratio above 1.0 means the ordering held), not asserted.
"""


from conftest import claim, write_report
from repro.clipper.frontend import ClipperFrontEnd
from repro.core.config import PretzelConfig
from repro.core.frontend import PretzelFrontEnd
from repro.core.runtime import PretzelRuntime
from repro.telemetry.latency import LatencyRecorder
from repro.telemetry.reporting import ExperimentReport


def _measure(family, inputs, sample=30):
    recorder = LatencyRecorder()
    runtime = PretzelRuntime(PretzelConfig())
    frontend = PretzelFrontEnd(runtime)
    clipper = ClipperFrontEnd()
    pipelines = family.pipelines[:sample]
    plan_ids = {}
    for generated in pipelines:
        plan_ids[generated.name] = runtime.register(generated.pipeline, stats=generated.stats)
        clipper.deploy(generated.pipeline)
    try:
        for generated in pipelines:
            plan_id = plan_ids[generated.name]
            # Warm both systems before measuring.
            frontend.predict(plan_id, [inputs[0]])
            clipper.predict(generated.name, [inputs[0]])
            for text in inputs[1:6]:
                response = frontend.predict(plan_id, [text])
                recorder.record(response.prediction_seconds, "pretzel-prediction")
                recorder.record(response.end_to_end_seconds, "pretzel-e2e")
                clipper_response = clipper.predict(generated.name, [text])
                recorder.record(clipper_response.end_to_end_seconds, "clipper-e2e")
    finally:
        runtime.shutdown()
    return recorder


def _render(category, recorder):
    report = ExperimentReport(
        f"Figure 11 ({category})",
        "P99 latency observed by a remote client (ms): prediction only, PRETZEL end-to-end, "
        "ML.Net + Clipper end-to-end.",
    )
    for group in ("pretzel-prediction", "pretzel-e2e", "clipper-e2e"):
        summary = recorder.summary(group)
        report.add_row(series=group, p99_ms=summary["p99"] * 1e3, mean_ms=summary["mean"] * 1e3)
    return report


def _p99_ratio(recorder, slower, faster):
    return recorder.percentile(99, slower) / recorder.percentile(99, faster)


def test_fig11_end_to_end_sa(benchmark, sa_family, sa_inputs):
    recorder = benchmark.pedantic(lambda: _measure(sa_family, sa_inputs), iterations=1, rounds=1)
    write_report(
        "fig11_end_to_end_sa",
        _render("SA", recorder).render(),
        metrics={
            **claim(
                "e2e_over_prediction_p99_ratio",
                _p99_ratio(recorder, "pretzel-e2e", "pretzel-prediction"),
                1.0,
            ),
            **claim(
                "clipper_over_pretzel_e2e_p99_ratio",
                _p99_ratio(recorder, "clipper-e2e", "pretzel-e2e"),
                1.0,
            ),
        },
    )
    assert len(recorder.group("pretzel-e2e")) == len(recorder.group("clipper-e2e")) > 0


def test_fig11_end_to_end_ac(benchmark, ac_family, ac_inputs):
    recorder = benchmark.pedantic(lambda: _measure(ac_family, ac_inputs), iterations=1, rounds=1)
    write_report(
        "fig11_end_to_end_ac",
        _render("AC", recorder).render(),
        metrics=claim(
            "clipper_over_pretzel_e2e_p99_ratio",
            _p99_ratio(recorder, "clipper-e2e", "pretzel-e2e"),
            1.0,
        ),
    )
    assert len(recorder.group("pretzel-e2e")) == len(recorder.group("clipper-e2e")) > 0
