"""The traced run: the per-layer table, timed from the benchmark's own files.

Two parts, both printed for every workload:

* **this workload's requests** -- a live one-client round trip through the
  cluster, and the same calls replayed in this process one public call at a
  time (router -> encode -> transport echo -> decode -> ``ServingWorker.handle``
  ⊃ runtime ⊃ stages -> encode/decode of the reply) with a span around each.
  Per-call *means* are reported so the parts add up exactly:
  ``serving.cluster.predict_us`` = the replayed parts +
  ``serving.cluster.self_us`` (the residual the replay cannot see).
* **a fixed layer suite** -- runtime, stages, operators, scheduler and arena
  timed on a fixed plan/record sample of both families (medians), so every
  name exists on every workload and means the same thing on each.

Counts are before/after deltas of the public ``cluster.stats()`` /
``wire_stats()``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import statistics
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from benchmarks.harness import families, loadgen, workloads
from benchmarks.harness.spans import SpanRecorder
from repro import profiling
from repro.core.config import PretzelConfig
from repro.core.flour import FlourContext, flour_from_pipeline
from repro.core.object_store import ObjectStore
from repro.core.oven.compiler import ModelPlanCompiler
from repro.core.oven.optimizer import OvenOptimizer
from repro.core.runtime import PretzelRuntime
from repro.core.scheduler import InferenceRequest, Scheduler
from repro.net import decode_payload, encode_payload, pack_value_batch, unpack_value_batch
from repro.serving.control.transport import PipeTransport, SocketListener, SocketTransport
from repro.serving.router import ShardRouter
from repro.serving.shm_store import SharedMemoryArena
from repro.serving.worker import ServingWorker, encode_model
from repro.testing import StubPlan

__all__ = ["run_traced", "STAGES", "OPERATORS", "calibration_ms"]

#: physical stages reported by name: "+"-joined operator names -> metric label
#: (the <= 4 costliest per family; names must fit the 64-character limit)
STAGES: Dict[str, Dict[str, str]] = {
    "sa": {
        "Tokenizer+CharNgram": "Tokenizer-CharNgram",
        "WordNgram": "WordNgram",
        "PartialLinear+PartialLinear+MarginCombiner": "PartialLinear-MarginCombiner",
    },
    "ac": {
        "ColumnSelector+MissingValueImputer+MinMaxNormalizer": "Select-Impute-Normalize",
        "PCA": "PCA",
        "TreeFeaturizer": "TreeFeaturizer",
        "Concat+TreeEnsembleClassifier+*": "Concat-TreeEnsemble-Predictor",
    },
}
#: operator families timed on their own, by the pipeline family that has them
OPERATORS = {
    "sa": ("Tokenizer", "CharNgram", "WordNgram", "PartialLinear"),
    "ac": ("PCA", "KMeans", "TreeFeaturizer", "TreeEnsembleClassifier"),
}
#: fixed sample of the layer suite: plans x records per family
SUITE_PLANS = 6
SUITE_RECORDS = 8
SUITE_SEED = 20240611
#: the shipped stage-batch cap; stage/operator batch kernels are timed at it
STAGE_BATCH = PretzelConfig().max_stage_batch_size
#: replayed calls per traced run
REPLAY_CALLS_ONLINE = 400
REPLAY_CALLS_BATCH = 24
#: plans in the small clusters of the profiler/tracer on-vs-off loops
SMALL_CLUSTER_PLANS = 6
#: the churn phase: one register -> first predict -> unregister cycle this often
CHURN_CADENCE_SECONDS = 0.25


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if len(values) else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if len(values) else 0.0


def calibration_ms() -> float:
    """A fixed Python + numpy loop, for reading results across hosts."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        array = np.arange(250_000, dtype=np.float64)
        for _ in range(20):
            array = np.sqrt(array * 1.0001 + 1.0)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def stage_label(physical: Any) -> str:
    """The metric label of a physical stage ('' when it is not reported)."""
    name = "+".join(physical.transform_names)
    for table in STAGES.values():
        for pattern, label in table.items():
            if name == pattern or (pattern.endswith("*") and name.startswith(pattern[:-1])):
                return label
    return ""


# -- the transport echo child -------------------------------------------------


def echo_main(kind: str, bootstrap: Any) -> None:
    """Child process: answer every message with the configured reply size.

    ``SIZE<n>`` sets the reply length (acknowledged, untimed), ``STOP`` ends
    the loop; anything else is a timed request answered with ``n`` bytes, so
    a round trip carries the real request bytes out and reply bytes back.
    """
    if kind == "pipe":
        transport: Any = PipeTransport(bootstrap)
    else:
        with SocketListener(host="127.0.0.1", port=0) as listener:
            bootstrap.send_bytes(listener.port.to_bytes(4, "big"))
            bootstrap.close()
            transport = listener.accept(timeout=30.0)
    reply = b""
    try:
        while True:
            try:
                data = transport.recv_bytes()
            except (EOFError, OSError):
                return
            if data == b"STOP":
                return
            if data[:4] == b"SIZE":
                reply = bytes(int.from_bytes(data[4:], "big"))
                transport.send_bytes(b"ok")
            else:
                transport.send_bytes(reply)
    finally:
        transport.close()


class Echo:
    """Parent side of the echo child over a pipe or a localhost socket."""

    def __init__(self, kind: str):
        # spawn, not fork: this process has threads (sampler, executors).
        context = multiprocessing.get_context("spawn")
        parent_end, child_end = context.Pipe(duplex=True)
        self.process = context.Process(
            target=echo_main, args=(kind, child_end), name=f"harness-echo-{kind}", daemon=True
        )
        self.process.start()
        child_end.close()
        self._size = -1
        try:
            if kind == "pipe":
                self.transport: Any = PipeTransport(parent_end)
            else:
                if not parent_end.poll(60.0):
                    raise TimeoutError("socket echo child did not report its port")
                port = int.from_bytes(parent_end.recv_bytes(), "big")
                parent_end.close()
                self.transport = SocketTransport.connect("127.0.0.1", port, read_timeout=60.0)
        except BaseException:
            self.process.kill()
            self.process.join()
            raise

    def expect(self, reply_bytes: int) -> None:
        if reply_bytes != self._size:
            self._exchange(b"SIZE" + reply_bytes.to_bytes(8, "big"))
            self._size = reply_bytes

    def _exchange(self, data: bytes) -> bytes:
        # send, poll with a deadline, receive: what the cluster's channel does
        self.transport.send_bytes(data)
        if not self.transport.poll(60.0):
            raise TimeoutError("echo child stayed silent")
        return self.transport.recv_bytes()

    def round_trip(self, request: bytes) -> None:
        self._exchange(request)

    def close(self) -> None:
        try:
            self.transport.send_bytes(b"STOP")
        except OSError:
            pass
        self.transport.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


# -- part 1: this workload's requests -----------------------------------------


def _live(
    prepared: workloads.Prepared, cluster: Any, seconds: float, recorder: SpanRecorder
) -> Tuple[Dict[str, float], loadgen.ClientLog]:
    """One live client; alternating segments with the harness's spans off/on."""

    def hook(index: int, start: float, end: float) -> None:
        recorder.add("serving.cluster.request", start, end, index)

    segment = max(0.1, seconds * 0.1)
    logs: Dict[bool, List[loadgen.ClientLog]] = {False: [], True: []}
    for turn in range(4):
        traced = turn % 2 == 1
        logs[traced].append(
            workloads.run_clients(
                prepared, cluster, segment, on_request=hook if traced else None, clients=1
            )
        )
    rate = {
        traced: sum(len(log.latencies) for log in group) / sum(log.elapsed for log in group)
        for traced, group in logs.items()
    }
    merged = loadgen.merge_logs(logs[True], sequential=True)
    per_call = [value for values in merged.call_latencies.values() for value in values]
    numbers = {
        "serving.cluster.predict_us": _mean(per_call or merged.latencies) * 1e6,
        "harness.trace_overhead_share": 1.0 - rate[True] / rate[False],
    }
    return numbers, loadgen.merge_logs(logs[False] + logs[True], sequential=True)


def _instrument(worker: ServingWorker, recorder: SpanRecorder) -> None:
    """Spans around the runtime's and every physical stage's public entry points."""
    runtime = worker.runtime
    runtime.predict = recorder.wrap("core.runtime.call", runtime.predict)
    runtime.predict_batch = recorder.wrap("core.runtime.call", runtime.predict_batch)
    seen = set()
    for plan_id in runtime.plan_ids():
        for stage in runtime.plan(plan_id).stages:
            physical = stage.physical
            if id(physical) in seen:
                continue
            seen.add(id(physical))
            name = f"stage:{stage_label(physical) or '+'.join(physical.transform_names)}"
            physical.execute = recorder.wrap(name, physical.execute)
            physical.execute_batch = recorder.wrap(name, physical.execute_batch)


def _replay(prepared: workloads.Prepared, recorder: SpanRecorder) -> Tuple[Dict[str, float], int]:
    """Replay a sample of client 0's calls through each layer's public calls."""
    workload = prepared.workload
    config = workload.config()
    limit = REPLAY_CALLS_BATCH if workload.batch_records > 1 else REPLAY_CALLS_ONLINE
    sample = [call for request in prepared.requests[0] for call in request][:limit]
    worker = ServingWorker("replay", config=config)
    echoes = {kind: Echo(kind) for kind in ("pipe", "socket")}
    mismatches = 0
    try:
        register_s = []
        for plan_id, generated in prepared.plans:
            message = {
                "type": "register",
                "msg_id": f"replay:register:{plan_id}",
                "plan_id": plan_id,
                "model_b64": encode_model(generated.pipeline, generated.stats),
                "engine": workload.engine,
                "arena_refs": {},
            }
            started = time.perf_counter()
            reply = worker.handle(message)
            register_s.append(time.perf_counter() - started)
            if not reply["ok"]:
                raise RuntimeError(f"replay worker refused {plan_id}: {reply['error']}")
        _instrument(worker, recorder)
        router = ShardRouter(
            ["worker-0", "worker-1"],
            replicas=config.placement_replicas,
            max_inflight_per_worker=config.max_inflight_per_worker,
            backlog_ttl_seconds=config.heartbeat_interval_seconds,
        )
        for plan_id, _generated in prepared.plans:
            router.place(plan_id)
        # Layer-major order: every call goes through one layer before any
        # goes through the next, so each layer runs with the warm caches it
        # has in its own process, not the ones a strict per-call walk leaves.
        def layer(name: str, step: Any, inputs: Sequence[Any]) -> List[Any]:
            results = []
            for number, value in enumerate(inputs):
                recorder.request = number
                with recorder.span(name):
                    results.append(step(value))
            return results

        def encode_request(call: loadgen.Call) -> bytes:
            plan_id, payload, _expected = call
            records = payload if workload.batch_records > 1 else [payload]
            return encode_payload(
                {
                    "plan_id": plan_id,
                    "records": pack_value_batch(records),
                    "latency_sensitive": False,
                    "type": "predict",
                    "msg_id": f"replay:{recorder.request}",
                }
            )

        layer(
            "serving.router.acquire_release",
            lambda call: router.release(router.acquire(call[0]), backlog=0),
            sample,
        )
        requests = layer("net.encode_request", encode_request, sample)
        messages = layer("net.decode_request", decode_payload, requests)
        replies = layer("serving.worker.handle", worker.handle, messages)
        raws = layer("net.encode_reply", encode_payload, replies)
        for kind, echo in echoes.items():
            for number, (request, raw) in enumerate(zip(requests, raws)):
                recorder.request = number
                echo.expect(len(raw))
                with recorder.span(f"serving.control.transport.{kind}_rtt"):
                    echo.round_trip(request)
        outputs = layer(
            "net.decode_reply", lambda raw: unpack_value_batch(decode_payload(raw)["outputs"]), raws
        )
        for (_plan_id, _payload, expected), got in zip(sample, outputs):
            if not prepared.matches(got if workload.batch_records > 1 else got[0], expected):
                mismatches += 1
    finally:
        for echo in echoes.values():
            echo.close()
        worker.close()

    def per_call_us(seconds: Sequence[float]) -> float:
        return sum(seconds) / len(sample) * 1e6

    numbers = {
        f"{name}_us": per_call_us(recorder.seconds(name))
        for name in (
            "serving.router.acquire_release",
            "net.encode_request",
            "net.decode_request",
            "net.encode_reply",
            "net.decode_reply",
            "serving.control.transport.pipe_rtt",
            "serving.control.transport.socket_rtt",
            "serving.worker.handle",
        )
    }
    runtime_us = per_call_us(recorder.seconds("core.runtime.call"))
    numbers.update(
        {
            "serving.worker.self_us": per_call_us(recorder.self_seconds("serving.worker.handle")),
            "serving.worker.register_ms": _mean(register_s) * 1e3,
            "core.runtime.self_us": per_call_us(recorder.self_seconds("core.runtime.call")),
        }
    )
    numbers["core.oven.physical.stages_us"] = runtime_us - numbers["core.runtime.self_us"]
    return numbers, mismatches


#: counters of ``_cluster_state`` reported as deltas over the live phase
COUNTERS = ("serving.router.dispatched", "serving.router.shed", "core.scheduler.batches", "events")


def _cluster_state(cluster: Any) -> Dict[str, float]:
    """What the public ``cluster.stats()`` says, under the layer metrics' names."""
    stats = cluster.stats()
    batching = [entry["stats"]["stage_batching"] for entry in stats["workers"].values()]
    store = next(iter(stats["workers"].values()))["stats"]["object_store"]
    arena = stats["arena"]
    puts = arena["allocations"] + arena["dedup_hits"]
    return {
        "serving.router.dispatched": stats["router"]["dispatched"],
        "serving.router.shed": stats["router"]["shed"],
        "core.scheduler.batches": sum(entry["batches"] for entry in batching),
        "events": sum(entry["events"] for entry in batching),
        "serving.cluster.memory_bytes": stats["memory_bytes"],
        "core.object_store.unique_parameters": store["unique_parameters"],
        "core.object_store.shared_parameter_bytes": store["shared_parameter_bytes"],
        "core.object_store.memory_bytes": store["memory_bytes"],
        "serving.shm_store.used_bytes": arena["used_bytes"],
        "serving.shm_store.allocations": arena["allocations"],
        "serving.shm_store.frees": arena["frees"],
        # useful / attempted: puts that found the bytes already shared
        "serving.shm_store.dedup_hit_ratio": arena["dedup_hits"] / puts if puts else 0.0,
    }


def _churn(
    prepared: workloads.Prepared, cluster: Any, seconds: float
) -> Tuple[Dict[str, float], loadgen.ClientLog]:
    """A write path beside reads: one reader, and a registrar on a fixed cadence.

    Every :data:`CHURN_CADENCE_SECONDS` the registrar does ``register`` (the
    first plan's pipeline under a fresh plan id) -> first ``predict`` ->
    ``unregister``.  A worker that compiles serves nothing, so the reader
    stalls: ``churn_stall_ms`` is the reader's longest request during a
    cycle, the median over the cycles.
    """
    plan_id, generated = prepared.plans[0]
    _plan_id, record, expected = prepared.warm[plan_id][0]
    cycles: List[Tuple[float, float, float, float]] = []  # begin, registered, predicted, end
    log = loadgen.ClientLog()
    reads: List[Tuple[float, float]] = []

    def registrar() -> None:
        started = time.perf_counter()
        for cycle in range(int(seconds / CHURN_CADENCE_SECONDS)):
            time.sleep(max(0.0, started + cycle * CHURN_CADENCE_SECONDS - time.perf_counter()))
            log.attempted += 1
            try:
                begin = time.perf_counter()
                cluster.register(
                    generated.pipeline,
                    stats=generated.stats,
                    engine=prepared.workload.engine,
                    plan_id=f"churn-{cycle}",
                )
                registered = time.perf_counter()
                output = cluster.predict(f"churn-{cycle}", record)
                predicted = time.perf_counter()
                cluster.unregister(f"churn-{cycle}")
            except Exception as error:  # noqa: BLE001 - counted, the run goes on
                log.failures["error"] += 1
                log.first_error = log.first_error or repr(error)
                continue
            if loadgen.exact_match(output, expected):
                cycles.append((begin, registered, predicted, time.perf_counter()))
            else:
                log.failures["mismatch"] += 1

    reader = workloads.run_clients(
        prepared,
        cluster,
        seconds,
        extra=[registrar],
        on_request=lambda _index, start, end: reads.append((start, end)),
        clients=1,
    )
    if not cycles:
        raise RuntimeError(f"no churn cycle completed ({log.failures}, {log.first_error})")
    stalls = [
        max((end - start for start, end in reads if end >= begin and start <= done), default=0.0)
        for begin, _registered, _predicted, done in cycles
    ]
    numbers = {
        "serving.cluster.register_ms": _median([c[1] - c[0] for c in cycles]) * 1e3,
        "serving.cluster.unregister_ms": _median([c[3] - c[2] for c in cycles]) * 1e3,
        "serving.cluster.churn_stall_ms": _median(stalls) * 1e3,
    }
    return numbers, loadgen.merge_logs([reader, log])


def _open_loop(
    prepared: workloads.Prepared, cluster: Any, seconds: float
) -> Tuple[Dict[str, float], loadgen.ClientLog]:
    """The informational Poisson phase: two senders, timed from due time."""
    workload = prepared.workload
    call = workloads.client_call(cluster, workload)
    senders = 2
    logs: List[Any] = [None] * senders

    def sender(index: int) -> None:
        due = loadgen.poisson_schedule(
            workload.open_rate_rps / senders, seconds, prepared.seed * 7 + index
        )
        # disjoint requests per sender, also where one client's list is all there is
        requests = prepared.requests[index % len(prepared.requests)][index::senders]
        logs[index] = loadgen.open_loop(call, requests, prepared.matches, due)

    workloads.run_threads([lambda index=index: sender(index) for index in range(senders)])
    log = loadgen.merge_logs(logs)
    tail = workload.tail_percentile
    numbers = {
        "harness.open.rate_rps": workload.open_rate_rps,
        "harness.open.achieved_rps": len(log.latencies) / seconds,
        "harness.open.lat_p50_ms": loadgen.percentile(log.latencies, 50.0) * 1e3,
        "harness.open.lat_tail_ms": loadgen.percentile(log.latencies, tail) * 1e3,
        "harness.open.late_tail_ms": loadgen.percentile(log.lateness, tail) * 1e3,
    }
    return numbers, log


def _flag_overheads(prepared: workloads.Prepared, seconds: float) -> Dict[str, float]:
    """The same short one-client loop with one config flag on vs off.

    Small clusters (a few plans) keep three extra set-ups affordable; the
    loop only sends requests whose plans are registered there.
    """
    workload = prepared.workload
    chosen: List[str] = []
    for request in prepared.requests[0]:
        for plan_id, _payload, _expected in request:
            if plan_id not in chosen:
                chosen.append(plan_id)
        if len(chosen) >= SMALL_CLUSTER_PLANS:
            break
    small = dataclasses.replace(
        prepared,
        plans=[entry for entry in prepared.plans if entry[0] in chosen],
        requests=[
            [
                request
                for request in prepared.requests[0]
                if all(call[0] in chosen for call in request)
            ]
        ],
    )
    rate: Dict[str, float] = {}
    for label, overrides in (
        ("default", {}),
        ("profiling_off", {"enable_profiling": False}),
        ("tracing_off", {"enable_tracing": False}),
    ):
        cluster, _times = workloads.set_up(small, workload.config(**overrides))
        try:
            log = workloads.run_clients(small, cluster, max(0.2, seconds * 0.1), clients=1)
        finally:
            workloads.tear_down(cluster)
        if log.failed:
            raise RuntimeError(f"flag loop {label}: {log.failures} {log.first_error}")
        rate[label] = len(log.latencies) / log.elapsed
    return {
        "profiling.overhead_share": 1.0 - rate["default"] / rate["profiling_off"],
        "observability.tracing_overhead_share": 1.0 - rate["default"] / rate["tracing_off"],
    }


# -- part 2: the fixed layer suite --------------------------------------------


class _TimedOperator:
    """Stands in for an operator inside a stage and times its kernels."""

    def __init__(self, operator: Any, scalar_us: List[float], batch_us: List[float]):
        self._operator = operator
        self._scalar_us = scalar_us
        self._batch_us = batch_us
        self.name = operator.name

    def transform(self, value: Any) -> Any:
        started = time.perf_counter()
        output = self._operator.transform(value)
        self._scalar_us.append((time.perf_counter() - started) * 1e6)
        return output

    def transform_batch(self, values: Any) -> Any:
        started = time.perf_counter()
        output = self._operator.transform_batch(values)
        self._batch_us.append((time.perf_counter() - started) * 1e6 / len(output))
        return output


def _walk(plan: Any, records: Sequence[Any], times: Dict[str, Dict[str, List[float]]]) -> None:
    """Run a plan stage by stage over ``records``, timing stages and operators.

    Each stage runs four times on the same inputs: the compiled scalar path
    and the columnar batch path (the stage timings), then both again through
    the public reference interpreter / batch loop with timing stand-ins in
    the stage's ``operators`` list (the operator timings).
    """
    values: List[Dict[Tuple[str, str], Any]] = [{} for _ in records]
    for stage in plan.stages:
        physical = stage.physical
        externals = [
            [
                record if upstream is None else values[index][(upstream, transform_id)]
                for upstream, transform_id in stage.external_refs
            ]
            for index, record in enumerate(records)
        ]
        label = stage_label(physical)
        outputs = []
        for row in externals:
            started = time.perf_counter()
            outputs.append(physical.execute(row))
            times["stage_us"].setdefault(label, []).append((time.perf_counter() - started) * 1e6)
        started = time.perf_counter()
        physical.execute_batch(externals)
        times["stage_batch_us"].setdefault(label, []).append(
            (time.perf_counter() - started) * 1e6 / len(externals)
        )
        originals = list(physical.operators)
        physical.operators[:] = [
            _TimedOperator(
                operator,
                times["transform_us"].setdefault(operator.name, []),
                times["transform_batch_us"].setdefault(operator.name, []),
            )
            for operator in originals
        ]
        try:
            for row in externals:
                physical.interpret(row)
            physical.execute_batch(externals)
        finally:
            physical.operators[:] = originals
        for index, row_outputs in enumerate(outputs):
            for position, key in enumerate(stage.output_keys):
                values[index][key] = row_outputs[position]


def _suite_family(name: str, family: Any) -> Dict[str, float]:
    """Runtime, compile, stage and operator timings of one family's fixed sample."""
    members = family.pipelines[:SUITE_PLANS]
    scalar_records = families.sample_inputs(family, SUITE_SEED, SUITE_RECORDS)
    stage_records = families.sample_inputs(family, SUITE_SEED, STAGE_BATCH)
    batch_records = [scalar_records[i % SUITE_RECORDS] for i in range(100)]
    numbers: Dict[str, float] = {}

    compile_s = []
    for generated in members:
        store = ObjectStore(enabled=True)
        context = FlourContext(object_store=store, name=generated.pipeline.name)
        program = flour_from_pipeline(generated.pipeline, context=context, stats=generated.stats)
        graph = OvenOptimizer().optimize(program.to_transform_graph())
        started = time.perf_counter()
        ModelPlanCompiler(object_store=store).compile(graph)
        compile_s.append(time.perf_counter() - started)
    numbers[f"core.oven.compile_ms.{name}"] = _median(compile_s) * 1e3

    times: Dict[str, Dict[str, List[float]]] = {
        "stage_us": {},
        "stage_batch_us": {},
        "transform_us": {},
        "transform_batch_us": {},
    }
    with PretzelRuntime(PretzelConfig()) as runtime:
        register_s, predict_s = [], []
        for generated in members:
            started = time.perf_counter()
            plan_id = runtime.register(generated.pipeline, stats=generated.stats)
            register_s.append(time.perf_counter() - started)
            for record in scalar_records:
                started = time.perf_counter()
                runtime.predict(plan_id, record)
                predict_s.append(time.perf_counter() - started)
            _walk(runtime.plan(plan_id), stage_records, times)
    numbers[f"core.runtime.register_ms.{name}"] = _median(register_s) * 1e3
    numbers[f"core.runtime.predict_us.{name}"] = _median(predict_s) * 1e6

    with PretzelRuntime(PretzelConfig(enable_stage_batching=True)) as runtime:
        batch_s = []
        for generated in members:
            plan_id = runtime.register(generated.pipeline, stats=generated.stats, engine="batch")
            runtime.predict_batch(plan_id, batch_records[:STAGE_BATCH])  # start the executors
            started = time.perf_counter()
            runtime.predict_batch(plan_id, batch_records)
            batch_s.append((time.perf_counter() - started) / len(batch_records))
    numbers[f"core.runtime.predict_batch_us.{name}"] = _median(batch_s) * 1e6

    # A declared stage or operator this source tree no longer builds reads 0.
    for kind in ("stage_us", "stage_batch_us"):
        for label in STAGES[name].values():
            numbers[f"core.oven.physical.{kind}.{label}"] = _median(times[kind].get(label, ()))
    for kind in ("transform_us", "transform_batch_us"):
        for operator in OPERATORS[name]:
            numbers[f"operators.{kind}.{operator}"] = _median(times[kind].get(operator, ()))
    return numbers


def _suite_scheduler(depth: int = 2000, signatures: int = 32) -> Dict[str, float]:
    """``Scheduler.submit`` and ``next_batch`` on stub plans (no stage code runs)."""
    plans = [StubPlan(f"sig-{index}") for index in range(signatures)]
    scheduler = Scheduler(enable_stage_batching=True, max_stage_batch_size=STAGE_BATCH)
    requests = [InferenceRequest(f"p{i}", plans[i % signatures], "x") for i in range(depth)]
    started = time.perf_counter()
    for request in requests:
        scheduler.submit(request)
    submit_s = time.perf_counter() - started
    pulls = depth // STAGE_BATCH
    started = time.perf_counter()
    for _ in range(pulls):
        scheduler.next_batch(0, timeout=0.0)
    pull_s = time.perf_counter() - started
    scheduler.shutdown()
    return {
        "core.scheduler.submit_us": submit_s / depth * 1e6,
        "core.scheduler.next_batch_us": pull_s / pulls * 1e6,
    }


def _suite_arena(count: int = 64, nbytes: int = 64 * 1024) -> Dict[str, float]:
    """``SharedMemoryArena.put_array`` / ``free`` of 64 KiB parameters."""
    rng = np.random.default_rng(SUITE_SEED)
    arrays = [rng.random(nbytes // 8) for _ in range(count)]
    with SharedMemoryArena(2 * count * nbytes) as arena:
        started = time.perf_counter()
        for index, array in enumerate(arrays):
            arena.put_array(f"suite-{index}", array)
        put_s = time.perf_counter() - started
        started = time.perf_counter()
        for index in range(count):
            arena.free(f"suite-{index}")
        free_s = time.perf_counter() - started
    return {
        "serving.shm_store.put_array_us": put_s / count * 1e6,
        "serving.shm_store.free_us": free_s / count * 1e6,
    }


# -- the traced run -----------------------------------------------------------

def run_traced(prepared: workloads.Prepared, seconds: float) -> Dict[str, Any]:
    """The per-layer metrics of one workload, plus counts; writes the spans out."""
    workload = prepared.workload
    recorder = SpanRecorder()
    numbers: Dict[str, float] = {
        "harness.family_build_s": prepared.family_load_s,
        "harness.calibration_ms": calibration_ms(),
    }
    cluster, times = workloads.set_up(prepared, workload.config())
    numbers["serving.cluster.cold_predict_ms"] = statistics.median(times.cold_predict_s) * 1e3
    try:
        workloads.run_clients(prepared, cluster, workloads.WARM_SECONDS, clients=1)
        before, wire_before = _cluster_state(cluster), cluster.wire_stats()
        live_numbers, live_log = _live(prepared, cluster, seconds, recorder)
        wire_after, after = cluster.wire_stats(), _cluster_state(cluster)
        open_numbers, open_log = _open_loop(prepared, cluster, max(0.3, seconds * 0.2))
        churn_numbers, churn_log = _churn(prepared, cluster, max(1.0, seconds * 0.15))
        numbers.update(live_numbers)
        numbers.update(open_numbers)
        numbers.update(churn_numbers)
    finally:
        workloads.tear_down(cluster)

    numbers.update(after)
    for counter in COUNTERS:
        numbers[counter] = after[counter] - before[counter]
    events, batches = numbers.pop("events"), numbers["core.scheduler.batches"]
    numbers["core.scheduler.mean_batch_size"] = events / batches if batches else 0.0
    wire = {key: wire_after[key] - wire_before[key] for key in wire_after}
    messages = wire["binary_messages"] + wire["json_messages"]
    numbers["net.request_bytes"] = wire["bytes_sent"] / messages
    numbers["net.reply_bytes"] = wire["bytes_received"] / messages
    numbers["net.binary_message_share"] = wire["binary_messages"] / messages

    numbers.update(_flag_overheads(prepared, seconds))
    # In-process layers last: they start this process's sampler and executor
    # threads, and every cluster above had to fork from a quiet process.
    replay_numbers, mismatches = _replay(prepared, recorder)
    numbers.update(replay_numbers)
    replayed = sum(
        numbers[name]
        for name in (
            "serving.router.acquire_release_us",
            "net.encode_request_us",
            "serving.control.transport.pipe_rtt_us",
            "net.decode_request_us",
            "serving.worker.handle_us",
            "net.encode_reply_us",
            "net.decode_reply_us",
        )
    )
    numbers["serving.cluster.self_us"] = numbers["serving.cluster.predict_us"] - replayed
    for name in ("sa", "ac"):
        family = prepared.families.get(name) or families.load_family(name)[0]
        numbers.update(_suite_family(name, family))
    numbers.update(_suite_scheduler())
    numbers.update(_suite_arena())
    profiling.stop()

    families.OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = families.OUT_DIR / f"spans-{workload.name}-{prepared.seed}.json"
    recorder.dump(spans_path)
    replayed_calls = len(recorder.seconds("serving.worker.handle"))
    self_share = numbers["serving.cluster.self_us"] / numbers["serving.cluster.predict_us"]
    return {
        "metrics": {name: float(value) for name, value in numbers.items()},
        "attempted": live_log.attempted + open_log.attempted + churn_log.attempted + replayed_calls,
        "failed": live_log.failed + open_log.failed + churn_log.failed + mismatches,
        "detail": {
            "serving.cluster.self_share": self_share,
            "serving.cluster.self_flagged": self_share > 0.25,
            "replayed_calls": replayed_calls,
            "live_failures": dict(live_log.failures),
            "open_failures": dict(open_log.failures),
            "churn_failures": dict(churn_log.failures),
            "replay_mismatches": mismatches,
            "first_error": live_log.first_error or open_log.first_error or churn_log.first_error,
            "spans": len(recorder.spans),
            "spans_file": str(spans_path.relative_to(families.REPO_ROOT)),
        },
    }
