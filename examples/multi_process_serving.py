"""Multi-process serving: shard a family of models across worker processes.

The single-process runtime (see ``multi_model_serving.py``) is capped by the
GIL.  This example boots a :class:`~repro.serving.cluster.PretzelCluster` --
the multi-process serving tier -- and shows the three properties it exists
for:

* the cluster mirrors the runtime API (``register`` / ``predict`` /
  ``predict_batch`` / ``stats`` / ``memory_bytes`` / ``shutdown``) and its
  predictions are bit-equal to the single-process runtime's;
* parameter sharing survives the process boundary: the plans' array
  parameters live once in a shared-memory arena that every worker maps, so
  the footprint grows sub-linearly with the worker count;
* admission control sheds overload with a typed
  :class:`~repro.serving.router.BackpressureError` instead of queueing
  without bound;
* predicts travel the data plane: records that conform to the plan's input
  schema ship as one fixed-layout ``PZF1`` frame (raw float64 rows or UTF-8
  texts, no key names) and float outputs come back as one ``PZR2`` frame,
  instead of N JSON-encoded records (``cluster.wire_stats()`` counts the
  bytes).

Run with:  python examples/multi_process_serving.py
"""

from repro.core import PretzelConfig, PretzelRuntime
from repro.net import serialize_message
from repro.serving import PretzelCluster
from repro.telemetry.memory import format_bytes
from repro.workloads import build_sentiment_family, generate_events


def main() -> None:
    family = build_sentiment_family(n_pipelines=12, seed=11)
    inputs = family.sample_inputs(5)

    config = PretzelConfig(
        num_workers=2,             # worker processes, each a full PretzelRuntime
        placement_replicas=2,      # every plan on both workers (hot standby)
        shm_budget_bytes=32 * 1024 * 1024,   # shared parameter arena
        shm_min_parameter_bytes=1024,
        max_inflight_per_worker=32,  # admission control threshold
    )

    with PretzelRuntime(PretzelConfig()) as runtime, PretzelCluster(config) as cluster:
        reference_ids, cluster_ids = {}, {}
        for generated in family.pipelines:
            reference_ids[generated.name] = runtime.register(
                generated.pipeline, stats=generated.stats
            )
            cluster_ids[generated.name] = cluster.register(
                generated.pipeline, stats=generated.stats
            )
        print(f"Registered {len(family)} plans on {config.num_workers} workers")

        mismatches = 0
        for generated in family.pipelines:
            for text in inputs:
                sharded = cluster.predict(cluster_ids[generated.name], text)
                local = runtime.predict(reference_ids[generated.name], text)
                if abs(sharded - local) > 1e-9:
                    mismatches += 1
        print(f"Cluster vs single-process predictions: {mismatches} mismatches")

        stats = cluster.stats()
        arena = stats["arena"]
        print("\nFootprint:")
        print(f"  single-process runtime : {format_bytes(runtime.memory_bytes())}")
        print(f"  {config.num_workers}-worker cluster       : "
              f"{format_bytes(stats['memory_bytes'])}")
        print(f"  shared arena (mapped by every worker, counted once): "
              f"{format_bytes(arena['used_bytes'])} in {arena['parameters']} parameters")
        for worker_id, worker in sorted(stats["workers"].items()):
            object_store = worker["stats"]["object_store"]
            print(f"  {worker_id}: private {format_bytes(worker['memory_bytes'])}, "
                  f"adopted {format_bytes(object_store['shared_parameter_bytes'])} shared")

        print("\nRouting:")
        router = stats["router"]
        print(f"  dispatched={router['dispatched']}  shed={router['shed']}  "
              f"plans placed={router['plans_placed']}")
        name = family.pipelines[0].name
        print(f"  placement of {name!r}: {cluster.placement(cluster_ids[name])}")

        # The data plane: a predict whose records conform to the plan's input
        # schema travels as ONE frame per direction -- a fixed header plus raw
        # values, no key names -- instead of N JSON-encoded records; anything
        # else rides the JSON envelope.  The wire counters show the bytes.
        events = generate_events(n_events=200, seed=7).records
        sa_plan = cluster_ids[family.pipelines[1].name]
        before = cluster.wire_stats()
        cluster.predict_batch(sa_plan, [inputs[0]] * 200)  # texts: one PZF1 frame
        mid = cluster.wire_stats()
        print("\nData-plane wire (per 200-record predict_batch):")
        print(f"  text records as one frame : "
              f"{mid['bytes_sent'] - before['bytes_sent']} B sent, "
              f"{mid['bytes_received'] - before['bytes_received']} B received")
        # A structured-records plan is overkill for the quickstart, so frame
        # the AC workload's 40-feature events directly the way
        # cluster.predict_batch does for a plan with that input schema.
        from repro.net import encode_predict, frame_schema

        message = {"plan_id": "ac", "records": events, "latency_sensitive": False,
                   "type": "predict", "msg_id": "00000000:1"}
        as_json = len(serialize_message(message))
        framed = len(encode_predict(message, frame_schema(list(events[0]))))
        print(f"  numeric records as JSON would be {as_json} B; as one frame "
              f"{framed} B ({as_json / framed:.1f}x smaller), NaN markers "
              f"round-tripping bit-exactly")
        print(f"  totals: {mid['binary_messages']} frame / "
              f"{mid['json_messages']} JSON requests, "
              f"{mid['binary_replies']} frame replies")

        # Plans can also be retired: unregister tears the plan down on every
        # hosting worker and gives its exclusively-referenced arena slabs back
        # to the allocator (see examples/failover_demo.py for the control
        # plane's fail-over side).
        before = cluster.memory_bytes()
        cluster.unregister(cluster_ids[name])
        arena = cluster.stats()["arena"]
        print(f"\nAfter unregistering {name!r}:")
        print(f"  memory {format_bytes(before)} -> {format_bytes(cluster.memory_bytes())}, "
              f"{arena['free_slabs']} slab(s) back on the arena free lists")


if __name__ == "__main__":
    main()
