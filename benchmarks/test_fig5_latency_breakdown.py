"""Figure 5: per-operator latency breakdown of one SA pipeline."""

from conftest import claim, claim_below, write_report
from repro.telemetry.reporting import ExperimentReport


def test_fig5_latency_breakdown(benchmark, sa_family, sa_inputs):
    pipeline = sa_family.pipelines[0].pipeline
    # Lazy set-up (the black box builds its n-gram key tables on first use)
    # is a cold-start cost, not part of the steady-state breakdown.
    pipeline.predict(sa_inputs[0])

    def run():
        return pipeline.latency_breakdown(sa_inputs[0], repetitions=20)

    breakdown = benchmark.pedantic(run, iterations=1, rounds=1)
    total = sum(breakdown.values())
    report = ExperimentReport(
        "Figure 5", "Relative wall-clock time per operator for one SA prediction (black box)."
    )
    for node, seconds in breakdown.items():
        report.add_row(operator=node, share_pct=100.0 * seconds / total, micros=seconds * 1e6)
    # Shape, recorded as wall-clock claims: featurization (n-grams + the
    # Concat buffer) dominates; the final linear model is a negligible
    # fraction, as in the paper.
    featurization = (
        breakdown["char_ngram"] + breakdown["word_ngram"] + breakdown["concat"]
    )
    write_report(
        "fig5_latency_breakdown",
        report.render(),
        metrics={
            **claim("featurization_share", featurization / total, 0.6),
            **claim_below("classifier_share", breakdown["classifier"] / total, 0.15),
            **claim(
                "concat_over_classifier", breakdown["concat"] / breakdown["classifier"], 1.0
            ),
        },
    )
    assert all(seconds > 0 for seconds in breakdown.values())
