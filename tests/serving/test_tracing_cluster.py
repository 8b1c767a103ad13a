"""End-to-end tracing + metrics over a live multi-process socket cluster.

This is the CI ``tracing-smoke`` scenario: a 2-worker socket cluster with
``trace_sample_rate=1``, sampled predictions on plans placed on *different*
workers, and a harvest that must show spans from the cluster process and both
worker processes stitched into one trace view.
"""

import pytest

from repro import observability
from repro.core.config import PretzelConfig
from repro.core.runtime import PretzelRuntime
from repro.serving import PretzelCluster


def _config(**overrides):
    defaults = dict(
        num_workers=2,
        transport="socket",
        placement_replicas=1,  # pin each plan to exactly one worker
        shm_budget_bytes=0,
        trace_sample_rate=1,
        worker_timeout_seconds=60.0,
    )
    defaults.update(overrides)
    return PretzelConfig(**defaults)


# md5-based consistent hashing is stable across runs: "plan-a" lands on
# worker-1 and "plan-b" on worker-0 (asserted below), so traffic on both ids
# exercises both worker processes.
PLAN_ON_WORKER_1 = "plan-a"
PLAN_ON_WORKER_0 = "plan-b"


def test_trace_dump_stitches_spans_from_every_process(sa_pipeline, sa_inputs):
    observability.tracer().clear()
    with PretzelCluster(_config()) as cluster:
        cluster.register(sa_pipeline, plan_id=PLAN_ON_WORKER_1)
        cluster.register(sa_pipeline, plan_id=PLAN_ON_WORKER_0)
        placements = cluster.router.placements()
        assert placements[PLAN_ON_WORKER_1] == ["worker-1"]
        assert placements[PLAN_ON_WORKER_0] == ["worker-0"]
        for record in sa_inputs[:4]:
            cluster.predict(PLAN_ON_WORKER_1, record)
            cluster.predict(PLAN_ON_WORKER_0, record)
        spans = cluster.trace_dump()
        assert spans
        processes = {span["process"] for span in spans}
        assert {"cluster", "worker-0", "worker-1"} <= processes
        names = {span["name"] for span in spans}
        assert {
            "request",
            "admission",
            "ipc",
            "wire.encode",
            "worker.receive",
            "stage.execute",
            "reply.encode",
        } <= names

        # Each sampled request is one stitched tree: the worker-side spans
        # parent under the cluster-minted ipc span id.
        roots = [span for span in spans if span["name"] == "request"]
        assert len(roots) == 8
        trace_id = roots[0]["trace_id"]
        trace = [span for span in spans if span["trace_id"] == trace_id]
        by_id = {span["span_id"]: span for span in trace}
        ipc = next(span for span in trace if span["name"] == "ipc")
        assert by_id[ipc["parent_span_id"]]["name"] == "request"
        worker_side = [
            span for span in trace if span["process"].startswith("worker-")
        ]
        assert worker_side
        assert all(span["parent_span_id"] == ipc["span_id"] for span in worker_side)
        tree = observability.format_trace_tree(spans, trace_id)
        assert "request" in tree and "stage.execute" in tree

        # The live fig5 payoff: per-stage shares from production traffic.
        breakdown = cluster.trace_breakdown()
        assert breakdown
        assert sum(entry["share"] for entry in breakdown.values()) == pytest.approx(1.0)
        assert all(entry["count"] > 0 for entry in breakdown.values())

        stats = cluster.stats()
        assert stats["tracing"]["sample_rate"] == 1
        assert stats["tracing"]["sampled"] >= 8
        for worker_stats in stats["workers"].values():
            assert "tracing" in worker_stats


def test_metrics_plane_merges_worker_registries(sa_pipeline, sa_inputs):
    with PretzelCluster(_config()) as cluster:
        cluster.register(sa_pipeline, plan_id=PLAN_ON_WORKER_1)
        cluster.register(sa_pipeline, plan_id=PLAN_ON_WORKER_0)
        for record in sa_inputs[:3]:
            cluster.predict(PLAN_ON_WORKER_1, record)
            cluster.predict(PLAN_ON_WORKER_0, record)
        merged = cluster.metrics()
        counters = merged["counters"]
        # Worker-side counters fold across both processes into one series.
        assert counters["pretzel_worker_predictions_total"] >= 6
        assert counters["pretzel_wire_bytes_sent_total"] > 0
        assert counters["pretzel_wire_bytes_received_total"] > 0
        latency = merged["histograms"]["pretzel_request_latency_seconds"]
        assert latency["count"] >= 6
        assert latency["sum"] > 0
        assert sum(latency["counts"]) == latency["count"]
        text = cluster.metrics_text()
        assert "# TYPE pretzel_worker_predictions_total counter" in text
        assert "# TYPE pretzel_request_latency_seconds histogram" in text
        assert 'pretzel_request_latency_seconds_bucket{le="+Inf"}' in text


def test_head_sampling_traces_one_in_n(sa_pipeline, sa_inputs):
    observability.tracer().clear()
    with PretzelCluster(_config(trace_sample_rate=4)) as cluster:
        cluster.register(sa_pipeline, plan_id=PLAN_ON_WORKER_0)
        for index in range(16):
            cluster.predict(PLAN_ON_WORKER_0, sa_inputs[index % len(sa_inputs)])
        # 1-in-4 head sampling: exactly 4 of 16 requests minted a context,
        # wherever the modulo counter started.
        roots = [
            span for span in cluster.trace_dump() if span["name"] == "request"
        ]
        assert len(roots) == 4
        assert cluster.stats()["tracing"]["sample_rate"] == 4


def test_tracing_disabled_records_nothing(sa_pipeline, sa_inputs):
    observability.tracer().clear()
    with PretzelCluster(_config(enable_tracing=False)) as cluster:
        cluster.register(sa_pipeline, plan_id=PLAN_ON_WORKER_0)
        for record in sa_inputs[:3]:
            cluster.predict(PLAN_ON_WORKER_0, record)
        assert cluster.trace_dump() == []
        assert "tracing" not in cluster.stats()
        # The metrics plane stays on: it is counters, not sampling.
        assert cluster.metrics()["counters"]["pretzel_worker_predictions_total"] >= 3


def test_cluster_predict_batch_traces_one_group_span_per_stage(sa_pipeline, sa_inputs):
    """A worker runs a ``predict_batch`` as one columnar group on its own
    thread: no ready queue, so no ``queue.wait`` -- one ``stage.execute`` per
    stage carrying the whole group, inside the one sampled request."""
    observability.tracer().clear()
    records = sa_inputs[:4]
    with PretzelCluster(_config(enable_stage_batching=True)) as cluster:
        cluster.register(sa_pipeline, plan_id=PLAN_ON_WORKER_0, engine="batch")
        outputs = cluster.predict_batch(PLAN_ON_WORKER_0, records)
        assert outputs == pytest.approx([sa_pipeline.predict(text) for text in records])
        spans = cluster.trace_dump()
    roots = [span for span in spans if span["name"] == "request"]
    assert len(roots) == 1
    stages = [span for span in spans if span["name"] == "stage.execute"]
    assert stages and all(span["trace_id"] == roots[0]["trace_id"] for span in stages)
    assert all(span["attributes"]["events"] == len(records) for span in stages)
    assert len({span["attributes"]["signature"] for span in stages}) == len(stages)
    assert "queue.wait" not in {span["name"] for span in spans}


def test_batch_engine_traces_scheduler_hops(sa_pipeline, sa_inputs):
    """``submit`` traffic still queues: its trace shows the ready-queue wait."""
    observability.tracer().clear()
    config = PretzelConfig(num_executors=1, enable_stage_batching=True, trace_sample_rate=1)
    with PretzelRuntime(config) as runtime:
        plan_id = runtime.register(sa_pipeline, engine="batch")
        output = runtime.submit(plan_id, sa_inputs[0]).wait(timeout=30.0)
        assert output == pytest.approx(sa_pipeline.predict(sa_inputs[0]))
        names = {span["name"] for span in observability.tracer().dump()}
    assert "queue.wait" in names
    assert "stage.execute" in names


def test_traced_frames_keep_the_wire_spans_and_their_byte_counts(ac_pipeline, ac_inputs):
    """Sampled requests ride the same data-plane frames as unsampled ones (the
    context sits in the header), so the stitched tree still shows the wire
    hops -- and their ``bytes`` are the frames', not an envelope's."""
    observability.tracer().clear()
    with PretzelCluster(_config(transport="pipe")) as cluster:
        cluster.register(ac_pipeline, plan_id=PLAN_ON_WORKER_1)
        before = cluster.wire_stats()
        cluster.predict(PLAN_ON_WORKER_1, ac_inputs[0])
        wire = cluster.wire_stats()
        assert wire["binary_messages"] == before["binary_messages"] + 1
        assert wire["binary_replies"] == before["binary_replies"] + 1
        spans = {span["name"]: span for span in cluster.trace_dump()}
        assert {"request", "admission", "ipc", "wire.encode", "worker.receive", "reply.encode"} <= set(spans)
        sent = wire["bytes_sent"] - before["bytes_sent"]
        received = wire["bytes_received"] - before["bytes_received"]
        # header + 32-byte trace context + plan id + crc + 40 float64
        assert sent == 33 + 32 + len(PLAN_ON_WORKER_1) + 4 + 40 * 8
        assert received == 32 + 8
        assert spans["wire.encode"]["attributes"]["bytes"] == sent
        assert spans["worker.receive"]["attributes"]["bytes"] == sent
        assert spans["reply.encode"]["attributes"]["bytes"] == received
        ipc = spans["ipc"]
        for name in ("wire.encode", "worker.receive", "reply.encode"):
            assert spans[name]["parent_span_id"] == ipc["span_id"]
            assert spans[name]["trace_id"] == ipc["trace_id"]
