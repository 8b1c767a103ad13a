"""Figure 5 from live traces: the trace-derived breakdown must agree with
the offline harness, and tracing's overhead is recorded against its budget.

Three measurements on one SA pipeline:

1. **Live**: serve sampled predictions through the batch engine
   (``trace_sample_rate=1``) and fold the harvested ``stage.execute`` spans
   with :func:`~repro.observability.trace_breakdown` -- the paper's fig5
   shares reconstructed from production traffic.
2. **Offline white-box**: time every compiled stage of the *same plan* with
   an inline ``execute_plan_stage`` loop (what the traced executors measure,
   minus queues and threads).  Per-signature shares must agree within
   ``LIVE_VS_OFFLINE_TOL`` absolute.
3. **Offline black-box**: ``pipeline.latency_breakdown`` (the original fig5
   harness, per pipeline node).  Grouped shares -- char featurization, word
   featurization, classifier -- must agree within ``LIVE_VS_BLACKBOX_TOL``
   (looser: the node->stage mapping is structural, not exact).  Both sides
   are renormalised over those three groups: the black box's ``Concat`` node
   is left out, because Oven deletes that operator and the live plan never
   runs it; its share is reported as a note of its own.

All three measure the same records, and the compared shares are shares of
each stage's *median* sample (:func:`_median_shares`).  A stage runs for
tens to hundreds of microseconds, so one preemption of the process (several
milliseconds on a loaded host) inside one sample moves a summed share by
more than either tolerance; a median ignores it.

Plus tracing's bill at the shipping ``trace_sample_rate``: the traced
predict slice over the untraced one (interleaved min-of-trials), recorded
in the report's ``metrics`` next to its ``OVERHEAD_CEILING`` -- a wall-clock
ratio, so it is not asserted (it read 1.089 on a loaded 2-CPU host).

``TRACING_SMOKE=1`` shrinks the counts for the CI smoke job.
"""

import os
import statistics
import time

from conftest import claim_below, write_report
from repro import observability
from repro.core.config import PretzelConfig
from repro.core.engines import execute_plan_stage
from repro.core.runtime import PretzelRuntime
from repro.telemetry.reporting import ExperimentReport

SMOKE = os.environ.get("TRACING_SMOKE", "0") == "1"
LIVE_PREDICTIONS = 30 if SMOKE else 80
OFFLINE_REPETITIONS = 8 if SMOKE else 20
OVERHEAD_PREDICTS = 150 if SMOKE else 400
OVERHEAD_TRIALS = 3 if SMOKE else 5

#: live vs offline-white-box per-signature share agreement (absolute)
LIVE_VS_OFFLINE_TOL = 0.15
#: live vs black-box node-grouped share agreement (absolute)
LIVE_VS_BLACKBOX_TOL = 0.25
#: tracing-on / tracing-off wall-clock budget on the predict slice
OVERHEAD_CEILING = 1.05


def _median_shares(samples):
    """Each key's median sample as a share of the sum of the medians."""
    medians = {key: statistics.median(values) for key, values in samples.items()}
    total = sum(medians.values())
    return {key: median / total for key, median in medians.items()}


def _live_breakdown(runtime, plan_id, inputs):
    """Serve sampled traffic through the batch engine; fold the spans.

    Returns :func:`~repro.observability.trace_breakdown`'s entries with
    ``share`` replaced by the signature's median-span share (the summed
    share stays as ``summed_share``).
    """
    for record in inputs[:4]:  # warm: compile, pools, executor threads
        runtime.submit(plan_id, record).wait(60)
    observability.tracer().clear()
    for index in range(LIVE_PREDICTIONS):
        runtime.submit(plan_id, inputs[index % len(inputs)]).wait(60)
    spans = observability.tracer().dump()
    breakdown = observability.trace_breakdown(spans)
    durations = {}
    for span in spans:
        if span.get("name") == "stage.execute":
            signature = str(span["attributes"]["signature"])
            durations.setdefault(signature, []).append(span["duration"])
    for signature, share in _median_shares(durations).items():
        breakdown[signature]["summed_share"] = breakdown[signature]["share"]
        breakdown[signature]["share"] = share
    return breakdown


def _offline_breakdown(plan, inputs, repetitions):
    """White-box oracle: inline per-stage timing of the same compiled plan."""
    samples = {}
    operators = {}
    for _ in range(repetitions):
        for record in inputs:
            values = {}
            for stage in plan.stages:
                started = time.perf_counter()
                execute_plan_stage(stage, record, values)
                elapsed = time.perf_counter() - started
                signature = stage.physical.full_signature
                samples.setdefault(signature, []).append(elapsed)
                operators[signature] = list(stage.physical.transform_names)
    shares = _median_shares(samples)
    return {
        signature: {
            "seconds": sum(samples[signature]),
            "share": shares[signature],
            "operators": operators[signature],
        }
        for signature in samples
    }


def _blackbox_breakdown(pipeline, inputs, repetitions):
    """The original fig5 harness, one timed prediction per sample."""
    samples = {}
    for _ in range(repetitions):
        for record in inputs:
            for node, seconds in pipeline.latency_breakdown(record, repetitions=1).items():
                samples.setdefault(node, []).append(seconds)
    return _median_shares(samples)


def _renormalised(groups):
    """Each group's share of the groups' total."""
    total = sum(groups.values())
    return {group: share / total for group, share in groups.items()}


def _grouped(shares_by_operator_test):
    """Fold signature shares into fig5's char / word / model groups."""
    groups = {"char": 0.0, "word": 0.0, "model": 0.0}
    for entry in shares_by_operator_test.values():
        operators = set(entry["operators"])
        if "CharNgram" in operators:
            groups["char"] += entry["share"]
        elif "WordNgram" in operators:
            groups["word"] += entry["share"]
        else:
            groups["model"] += entry["share"]
    return _renormalised(groups)


def _bench_tracing_overhead(runtime, plan_id, inputs):
    """Traced vs untraced predict slice, interleaved min-of-trials.

    Uses the *shipping* sample rate (the config default), not the
    everything-sampled rate the breakdown runs use: the ratio is the cost
    of leaving tracing on in production.
    """
    record = inputs[0]
    runtime.predict(plan_id, record)  # warm

    def slice_seconds():
        started = time.perf_counter()
        for _ in range(OVERHEAD_PREDICTS):
            runtime.predict(plan_id, record)
        return time.perf_counter() - started

    default_rate = PretzelConfig().trace_sample_rate
    best_on = float("inf")
    best_off = float("inf")
    try:
        for _ in range(OVERHEAD_TRIALS):
            observability.configure(enabled=True, sample_rate=default_rate)
            best_on = min(best_on, slice_seconds())
            observability.configure(enabled=False)
            best_off = min(best_off, slice_seconds())
    finally:
        observability.configure(enabled=True, sample_rate=1)
    return {
        "predicts": OVERHEAD_PREDICTS,
        "trials": OVERHEAD_TRIALS,
        "sample_rate": default_rate,
        "tracing_on_seconds": best_on,
        "tracing_off_seconds": best_off,
        "overhead_ratio": best_on / best_off,
    }


def test_fig5_trace_breakdown(benchmark, sa_family, sa_inputs):
    pipeline = sa_family.pipelines[0].pipeline
    config = PretzelConfig(trace_sample_rate=1, trace_buffer_size=8192)

    def run():
        with PretzelRuntime(config) as runtime:
            plan_id = runtime.register(pipeline, engine="batch")
            live = _live_breakdown(runtime, plan_id, sa_inputs)
            offline = _offline_breakdown(
                runtime.plan(plan_id), sa_inputs, OFFLINE_REPETITIONS
            )
            overhead = _bench_tracing_overhead(runtime, plan_id, sa_inputs)
        blackbox = _blackbox_breakdown(pipeline, sa_inputs, OFFLINE_REPETITIONS)
        return live, offline, blackbox, overhead

    live, offline, blackbox, overhead = benchmark.pedantic(run, iterations=1, rounds=1)

    assert set(live) == set(offline)  # same compiled stages observed
    report = ExperimentReport(
        "Figure 5 (live traces)",
        "Per-stage latency shares from sampled production traces vs the "
        "offline white-box harness on the same compiled plan.",
    )
    for signature in sorted(live, key=lambda s: -live[s]["share"]):
        report.add_row(
            operators="+".join(offline[signature]["operators"]),
            live_share_pct=100.0 * live[signature]["share"],
            offline_share_pct=100.0 * offline[signature]["share"],
            delta_pct=100.0
            * (live[signature]["share"] - offline[signature]["share"]),
            live_spans=live[signature]["count"],
        )

    blackbox_groups = _renormalised(
        {
            "char": blackbox["tokenizer"] + blackbox["char_ngram"],
            "word": blackbox["word_ngram"],
            "model": blackbox["classifier"],
        }
    )
    live_groups = _grouped(live)
    report.add_note(
        "grouped shares over char, word and classifier (live vs black-box harness): "
        + ", ".join(
            f"{group} {live_groups[group]:.2f}/{blackbox_groups[group]:.2f}"
            for group in ("char", "word", "model")
        )
    )
    report.add_note(
        f"black-box Concat share {blackbox['concat']:.2f} of its pipeline, left out of "
        "the grouped comparison: Oven deletes the operator, so the live plan never runs it"
    )
    report.add_note(
        f"tracing overhead on the predict slice (sample_rate="
        f"{overhead['sample_rate']}): "
        f"{(overhead['overhead_ratio'] - 1) * 100:.2f}% "
        f"({overhead['predicts']} predicts, on "
        f"{overhead['tracing_on_seconds']:.3f}s vs off "
        f"{overhead['tracing_off_seconds']:.3f}s, interleaved best of "
        f"{overhead['trials']})"
    )
    write_report(
        "fig5_trace_breakdown",
        report.render(),
        metrics={
            "smoke": SMOKE,
            "live_predictions": LIVE_PREDICTIONS,
            "live": live,
            "offline": offline,
            "blackbox_groups": blackbox_groups,
            "blackbox_concat_share": blackbox["concat"],
            "live_groups": live_groups,
            "overhead": overhead,
            **claim_below("overhead_ratio", overhead["overhead_ratio"], OVERHEAD_CEILING),
            "tolerances": {
                "live_vs_offline": LIVE_VS_OFFLINE_TOL,
                "live_vs_blackbox": LIVE_VS_BLACKBOX_TOL,
            },
        },
    )

    # Acceptance gate 1: live trace-derived shares agree with the offline
    # white-box harness per compiled stage.
    for signature in offline:
        delta = abs(live[signature]["share"] - offline[signature]["share"])
        assert delta < LIVE_VS_OFFLINE_TOL, (signature, live, offline)
        assert live[signature]["count"] >= LIVE_PREDICTIONS  # every request spanned
    # ... and with the original black-box fig5 harness after structural
    # grouping (the black box's Concat, which Oven deletes, left out).
    for group in blackbox_groups:
        delta = abs(live_groups[group] - blackbox_groups[group])
        assert delta < LIVE_VS_BLACKBOX_TOL, (group, live_groups, blackbox_groups)
    # The paper's fig5 shape survives the live reconstruction.
    assert live_groups["char"] + live_groups["word"] > 0.6
