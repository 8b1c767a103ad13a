"""Observability: follow one request across processes, read the live fig5.

``examples/multi_process_serving.py`` shows the rest of the serving tier;
this demo shows the two surfaces that answer "where does the time go", per
request and per stage:

* **Distributed tracing** -- every sampled request mints a
  :class:`~repro.observability.TraceContext` at the cluster front door that
  rides the message envelope into the worker process, where the receive
  loop, the scheduler and every compiled stage hang typed spans under it.
  ``cluster.trace_dump()`` stitches the per-process flight recorders back
  into one tree.
* **The unified metrics plane** -- every component's counters and latency
  histograms live in one registry per process, merge exactly across workers
  (fixed log2 buckets), and render as JSON or Prometheus text.

The payoff: ``cluster.trace_breakdown()`` reproduces the paper's Figure 5
per-stage latency breakdown from live traffic -- no offline harness.

Run with:  python examples/observability_demo.py
"""

from repro import observability
from repro.core import PretzelConfig
from repro.serving import PretzelCluster
from repro.workloads import build_sentiment_family


def main() -> None:
    family = build_sentiment_family(n_pipelines=4, seed=11)
    inputs = family.sample_inputs(8)

    config = PretzelConfig(
        num_workers=2,             # tracing crosses real process boundaries
        placement_replicas=1,      # pin plans to single workers: both get traffic
        trace_sample_rate=1,       # demo: trace everything (default is 1-in-64)
        trace_buffer_size=4096,    # per-process span ring buffer
        shm_budget_bytes=0,
    )

    with PretzelCluster(config) as cluster:
        plan_ids = [
            cluster.register(generated.pipeline, stats=generated.stats)
            for generated in family.pipelines
        ]
        for index in range(24):
            cluster.predict(plan_ids[index % len(plan_ids)], inputs[index % len(inputs)])

        # -- one request, end to end ---------------------------------------
        spans = cluster.trace_dump()
        processes = sorted({span["process"] for span in spans})
        print(f"Harvested {len(spans)} spans from {len(processes)} processes: "
              f"{', '.join(processes)}")
        root = next(span for span in spans if span["name"] == "request")
        print("\nOne sampled request as a trace tree "
              "(cluster spans + worker spans, stitched):")
        print(observability.format_trace_tree(spans, root["trace_id"]))

        # -- the live fig5 -------------------------------------------------
        print("\nFigure 5 from live traffic (per-stage latency shares):")
        breakdown = cluster.trace_breakdown()
        for signature, entry in sorted(
            breakdown.items(), key=lambda item: -item[1]["share"]
        ):
            operators = "+".join(entry["operators"])
            print(f"  {entry['share']:6.1%}  {operators:<45} "
                  f"({entry['count']} spans, {entry['seconds'] * 1e3:.2f} ms total)")

        # -- the metrics plane ---------------------------------------------
        merged = cluster.metrics()
        counters = merged["counters"]
        latency = merged["histograms"]["pretzel_request_latency_seconds"]
        print("\nMerged metrics (cluster registry + every worker's, "
              "exact bucket merge):")
        print(f"  worker predictions : {counters['pretzel_worker_predictions_total']:.0f}")
        print(f"  router dispatched  : {counters['pretzel_router_dispatched_total']:.0f}")
        print(f"  traces sampled     : {counters['pretzel_trace_sampled_total']:.0f}")
        print(f"  request latency    : {latency['count']} observations, "
              f"{latency['sum'] * 1e3:.1f} ms total")

        exposition = cluster.metrics_text()
        print(f"\nPrometheus exposition ({len(exposition.splitlines())} lines), "
              f"first few:")
        for line in exposition.splitlines()[:6]:
            print(f"  {line}")

        tracing = cluster.stats()["tracing"]
        print(f"\nRecorder state: sample_rate={tracing['sample_rate']}, "
              f"{tracing['buffered_spans']}/{tracing['buffer_size']} spans buffered, "
              f"{tracing['sampled']} requests sampled of {tracing['requests_seen']} seen")


if __name__ == "__main__":
    main()
