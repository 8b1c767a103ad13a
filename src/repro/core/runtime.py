"""The PRETZEL Runtime: plan catalog, engines, scheduler and accounting.

The Runtime is the on-line half of the system (Section 4.2).  Model plans
produced off-line by Oven/MPC are *registered*: their physical stages go into
a shared catalog (loaded only once when identical), their parameters live in
the Object Store, and vector pools are sized from the plans' statistics.
Prediction requests are served either by the request-response engine (inline
execution, lowest latency) or by the batch engine: a ``predict_batch`` call
runs as one columnar group on the calling thread, and ``submit`` traffic is
scheduled as stage events onto the shared executors.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import observability, profiling
from repro.core.config import PretzelConfig
from repro.core.engines import (
    RequestResponseEngine,
    execute_plan_stage,
    execute_plan_stage_columns,
    record_stage_span,
    record_values,
)
from repro.core.executors import ExecutorPool
from repro.core.flour import FlourContext, FlourProgram, flour_from_pipeline
from repro.core.materialization import SubPlanMaterializer
from repro.core.object_store import ObjectStore, ParameterBacking
from repro.core.oven.compiler import ModelPlanCompiler
from repro.core.oven.optimizer import OvenOptimizer
from repro.core.oven.plan import ModelPlan
from repro.core.scheduler import InferenceRequest, Scheduler
from repro.core.statistics import TransformStats
from repro.core.vector_pool import VectorPool
from repro.mlnet.pipeline import Pipeline
from repro.operators.batch import ColumnBatch

__all__ = ["PretzelRuntime", "RegisteredPlan"]

#: fixed footprint of the hosting process, counted once and shared by all
#: plans -- the whole point of the white-box architecture
RUNTIME_OVERHEAD_BYTES = 2 * 1024 * 1024
#: per-plan bookkeeping footprint (plan metadata, stage bindings)
PER_PLAN_OVERHEAD_BYTES = 4 * 1024


@dataclass
class RegisteredPlan:
    """Book-keeping for one registered model plan."""

    plan_id: str
    plan: ModelPlan
    registered_seconds: float
    engine: str = "request-response"
    reserved_executor: Optional[int] = None
    predictions: int = 0
    cold: bool = True


class PretzelRuntime:
    """Host many model plans on shared memory and CPU resources."""

    def __init__(
        self,
        config: Optional[PretzelConfig] = None,
        parameter_backing: Optional[ParameterBacking] = None,
    ):
        self.config = config or PretzelConfig()
        #: optional hook mapping parameter buffers onto storage shared across
        #: processes (the serving tier's shared-memory arena); None keeps
        #: every parameter private to this process.
        self.parameter_backing = parameter_backing
        self.object_store = ObjectStore(
            enabled=self.config.enable_object_store,
            materialization_budget_bytes=self.config.materialization_budget_bytes,
            parameter_backing=parameter_backing,
        )
        self.materializer = SubPlanMaterializer(
            self.object_store, enabled=self.config.enable_subplan_materialization
        )
        self.compiler = ModelPlanCompiler(object_store=self.object_store, config=self.config)
        self.optimizer = OvenOptimizer()
        self.scheduler = Scheduler(
            enable_stage_batching=self.config.enable_stage_batching,
            max_stage_batch_size=self.config.max_stage_batch_size,
        )
        self.executor_pool = ExecutorPool(
            self.scheduler,
            num_executors=self.config.num_executors,
            materializer=self.materializer,
            vector_pooling=self.config.enable_vector_pooling,
        )
        self._inline_pool = VectorPool(enabled=self.config.enable_vector_pooling)
        self._request_response = RequestResponseEngine(
            materializer=self.materializer, pool=self._inline_pool
        )
        self._plans: Dict[str, RegisteredPlan] = {}
        self._stage_plan_count: Dict[str, int] = {}
        self._id_counter = itertools.count()
        self._lock = threading.Lock()
        self._next_reserved_executor = 0
        # One process-global tracer; last configure wins, so a runtime
        # created with tracing off silences earlier runtimes deliberately.
        observability.configure(
            enabled=self.config.enable_tracing,
            sample_rate=self.config.trace_sample_rate,
            buffer_size=self.config.trace_buffer_size,
        )
        #: whether this runtime head-samples requests that arrive without a
        #: trace context.  True for a standalone runtime (it *is* the front
        #: door); the serving worker sets it False, because the cluster made
        #: the sampling decision already and an absent wire context means
        #: "not sampled" -- a worker minting its own traces would re-sample
        #: pass-through traffic and double the effective trace volume.
        self.mint_traces = True

    # -- registration (off-line -> on-line handoff) -----------------------------

    def register(
        self,
        model: Union[ModelPlan, FlourProgram, Pipeline],
        stats: Optional[Dict[str, TransformStats]] = None,
        engine: str = "request-response",
        reserve: bool = False,
        plan_id: Optional[str] = None,
    ) -> str:
        """Register a model for serving and return its pipeline id.

        ``model`` may be an already-compiled :class:`ModelPlan`, a Flour
        program, or a trained ML.Net pipeline (which is translated to Flour and
        compiled on the fly).  ``reserve=True`` dedicates one executor to this
        plan (reservation-based scheduling).
        """
        if engine not in ("request-response", "batch"):
            raise ValueError(f"unknown engine {engine!r}")
        start = time.perf_counter()
        plan = self._compile_to_plan(model, stats)
        elapsed = time.perf_counter() - start
        with self._lock:
            identifier = plan_id or f"plan-{next(self._id_counter)}-{plan.name}"
            if identifier in self._plans:
                raise ValueError(f"plan id {identifier!r} already registered")
            plan.plan_id = identifier
            registered = RegisteredPlan(
                plan_id=identifier, plan=plan, registered_seconds=elapsed, engine=engine
            )
            self._plans[identifier] = registered
            self._register_stages(plan)
            if reserve:
                registered.reserved_executor = self._reserve_executor(identifier)
        sizes = [stage.physical.max_vector_size for stage in plan.stages]
        self.executor_pool.preallocate(sizes)
        self._inline_pool.preallocate(sizes)
        return identifier

    def _compile_to_plan(
        self,
        model: Union[ModelPlan, FlourProgram, Pipeline],
        stats: Optional[Dict[str, TransformStats]],
    ) -> ModelPlan:
        if isinstance(model, ModelPlan):
            return model
        if isinstance(model, FlourProgram):
            graph = model.to_transform_graph()
            stage_graph = self.optimizer.optimize(graph)
            return self.compiler.compile(stage_graph)
        if isinstance(model, Pipeline):
            context = FlourContext(object_store=self.object_store, name=model.name)
            program = flour_from_pipeline(model, context=context, stats=stats)
            graph = program.to_transform_graph()
            stage_graph = self.optimizer.optimize(graph)
            return self.compiler.compile(stage_graph)
        raise TypeError(f"cannot register object of type {type(model).__name__}")

    def _register_stages(self, plan: ModelPlan) -> None:
        for stage in plan.stages:
            signature = stage.physical.full_signature
            count = self._stage_plan_count.get(signature, 0) + 1
            self._stage_plan_count[signature] = count
            if count >= 2:
                self.materializer.mark_shared(signature)
            if not stage.physical.supports_batch:
                # Make the per-record escape hatch visible: stages whose
                # operators lack a vectorized kernel show up in
                # stats()["stage_batching"]["loop_fallback_stages"].
                self.scheduler.batching.note_loop_fallback(
                    signature, stage.physical.loop_fallback_operators()
                )

    def _reserve_executor(self, plan_id: str) -> int:
        executor_id = self._next_reserved_executor % len(self.executor_pool.executors)
        self._next_reserved_executor += 1
        self.scheduler.reserve(plan_id, executor_id)
        return executor_id

    def unregister(self, plan_id: str) -> None:
        """Tear a plan down: catalog, stage counts and Object Store holds.

        Mirrors registration exactly: the plan's executor reservation (if
        any) is released back to the shared pool, every stage signature
        loses one plan (the shared physical stage is dropped from the
        compiler's catalog when the last plan using it goes), and every
        operator occurrence is released back to the Object Store -- canonical operators and their
        parameters disappear once no registered plan references them, so the
        runtime's footprint (and any externally backed parameter views, e.g.
        shared-memory arena slabs) are actually let go, not merely hidden.
        Unknown plan ids are a no-op, matching the previous behaviour.
        """
        with self._lock:
            registered = self._plans.pop(plan_id, None)
            if registered is None:
                return
            if registered.reserved_executor is not None:
                # Give the dedicated executor back to the shared pool (its
                # private queue is drained into the shared queues first).
                self.scheduler.unreserve(plan_id)
            for stage in registered.plan.stages:
                signature = stage.physical.full_signature
                if signature in self._stage_plan_count:
                    self._stage_plan_count[signature] -= 1
                    if self._stage_plan_count[signature] <= 0:
                        del self._stage_plan_count[signature]
                        self.compiler.stage_catalog.pop(signature, None)
                        # The physical stage no longer exists: drop its
                        # batching telemetry too, or plan churn grows it
                        # without bound and a re-registered signature
                        # inherits stale counters.
                        self.scheduler.forget_signature(signature)
                # One release per operator occurrence: registration interned
                # each stage-graph node once, shared stages included.
                for operator in stage.physical.operators:
                    self.object_store.release_operator(operator)

    # -- lookups -----------------------------------------------------------------

    def plan_ids(self) -> List[str]:
        return list(self._plans)

    def registered(self, plan_id: str) -> RegisteredPlan:
        if plan_id not in self._plans:
            raise KeyError(f"plan {plan_id!r} is not registered")
        return self._plans[plan_id]

    def plan(self, plan_id: str) -> ModelPlan:
        return self.registered(plan_id).plan

    def shared_stage_count(self) -> int:
        """Number of distinct physical stages referenced by >= 2 plans."""
        return sum(1 for count in self._stage_plan_count.values() if count >= 2)

    def unique_stage_count(self) -> int:
        return len(self._stage_plan_count)

    # -- serving -------------------------------------------------------------------

    def predict(self, plan_id: str, record: Any, trace: Any = None) -> Any:
        """Serve one prediction with the request-response engine.

        ``trace`` is a :class:`~repro.observability.tracing.TraceContext`
        propagated from an upstream hop (the serving worker passes the wire
        context here); when absent, this front door head-samples one -- so
        single-process runtimes get the same flight-recorder view as the
        cluster.  The untraced path costs one ``maybe_trace`` call.
        """
        registered = self.registered(plan_id)
        registered.predictions += 1
        registered.cold = False
        if trace is None and self.mint_traces:
            trace = observability.tracer().maybe_trace()
        if trace is None:
            return self._request_response.predict(registered.plan, record)
        started = time.perf_counter()
        try:
            return self._request_response.predict(registered.plan, record, trace=trace)
        finally:
            if trace.owns_root:
                observability.tracer().record(
                    trace.trace_id,
                    "request",
                    time.perf_counter() - started,
                    span_id=trace.parent_span_id,
                    attributes={"plan_id": plan_id, "engine": "request-response"},
                )

    def timed_predict(self, plan_id: str, record: Any) -> Tuple[Any, float]:
        start = time.perf_counter()
        result = self.predict(plan_id, record)
        return result, time.perf_counter() - start

    def predict_batch(
        self,
        plan_id: str,
        records: Sequence[Any],
        latency_sensitive: bool = False,
        trace: Any = None,
    ) -> List[Any]:
        """Serve a batch on the calling thread, one columnar pass per stage.

        The whole call is one group: every stage of the plan runs once over
        all records through :func:`execute_plan_stage_columns` -- the same
        columnar stage call and kernels the executors run -- never split by
        ``max_stage_batch_size``, never queued and never waited on, so no
        executor thread starts.  Only :meth:`submit` traffic goes through the
        scheduler, where coalescing across requests is the point; one call's
        records have nothing to wait for.

        With stage batching off, for a latency-sensitive call (whose records
        run alone, as on the scheduler), or with sub-plan materialization on
        (its cache is keyed per record), the records loop the scalar
        request-response path, bit-identical to calling :meth:`predict` per
        record.  A sampled call records one ``stage.execute`` span per stage
        (``events`` = the group size).
        """
        registered = self.registered(plan_id)
        registered.predictions += len(records)
        registered.cold = False
        if not records:
            return []
        if trace is None and self.mint_traces:
            trace = observability.tracer().maybe_trace()
        started = time.perf_counter()
        try:
            if self.config.enable_stage_batching and not (
                latency_sensitive or self.materializer.enabled
            ):
                return self._run_group(registered.plan, records, trace)
            return [
                self._request_response.predict(
                    registered.plan, record, trace=trace if index == 0 else None
                )
                for index, record in enumerate(records)
            ]
        finally:
            if trace is not None and trace.owns_root:
                observability.tracer().record(
                    trace.trace_id,
                    "request",
                    time.perf_counter() - started,
                    span_id=trace.parent_span_id,
                    attributes={"plan_id": plan_id, "engine": "batch"},
                )

    def _run_group(self, plan: ModelPlan, records: Sequence[Any], trace: Any) -> List[Any]:
        """Run ``records`` through ``plan`` stage by stage, each stage once.

        Stage outputs travel between stages as columns
        (:func:`execute_plan_stage_columns`): an n-gram stage's CSR column is
        what the linear stage downstream reduces, with no per-record value in
        between.  Nothing is leased from a vector pool: the gather allocates
        and frees per call.

        Errors: when a stage's columnar call raises, its records re-run that
        stage one by one through the scalar path.  The call raises the error
        of the lowest-index failing record -- the error a loop of
        :meth:`predict` over the records would raise -- so records after it
        are dropped at once (every column is cut to the records before it)
        and only lower-index ones keep running (one of them may still fail
        at a later stage and take its place).
        """
        record_column = ColumnBatch.from_rows(records)
        columns: Dict[Tuple[str, str], ColumnBatch] = {}
        results: List[Any] = [None] * len(records)
        failure: Optional[BaseException] = None
        for stage in plan.stages:
            started = time.perf_counter()
            live = len(record_column)
            try:
                final = execute_plan_stage_columns(stage, record_column, columns)
            except Exception:  # re-run the stage per record to attribute the fault
                contexts: List[Dict[Tuple[str, str], Any]] = []
                for index in range(live):
                    values = record_values(stage, columns, index)
                    try:
                        execute_plan_stage(stage, records[index], values)
                    except Exception as error:  # raised once the group is done
                        failure = error
                        break
                    contexts.append(values)
                record_column = record_column.head(len(contexts))
                columns = {key: column.head(len(contexts)) for key, column in columns.items()}
                for key in stage.output_keys:
                    columns[key] = ColumnBatch.from_rows([values[key] for values in contexts])
                final = columns[stage.output_keys[stage.physical.final_position()]]
            self.scheduler.batching.record(stage.physical.full_signature, live)
            if trace is not None:
                record_stage_span(trace, stage, time.perf_counter() - started, events=live)
            if not record_column:
                break
            if stage.is_sink:
                results[: len(final)] = final.rows
        if failure is not None:
            raise failure
        return results

    def submit(
        self,
        plan_id: str,
        record: Any,
        latency_sensitive: bool = False,
        trace: Any = None,
    ) -> InferenceRequest:
        """Asynchronously submit one prediction to the batch engine."""
        registered = self.registered(plan_id)
        registered.predictions += 1
        if not self.executor_pool.started:
            self.executor_pool.start()
        if trace is None and self.mint_traces:
            trace = observability.tracer().maybe_trace()
        return self.scheduler.submit(
            InferenceRequest(plan_id, registered.plan, record, latency_sensitive, trace=trace)
        )

    # -- accounting -------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Resident footprint: shared parameters + per-plan overhead + pools."""
        total = RUNTIME_OVERHEAD_BYTES
        if self.config.enable_object_store:
            total += self.object_store.memory_bytes()
        else:
            total += sum(reg.plan.memory_bytes() for reg in self._plans.values())
        total += PER_PLAN_OVERHEAD_BYTES * len(self._plans)
        total += self.executor_pool.memory_bytes()
        total += self._inline_pool.memory_bytes()
        return total

    def registration_seconds(self) -> float:
        """Cumulative time spent compiling + registering plans (model loading)."""
        return sum(reg.registered_seconds for reg in self._plans.values())

    def stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "plans": len(self._plans),
            "unique_stages": self.unique_stage_count(),
            "shared_stages": self.shared_stage_count(),
            "memory_bytes": self.memory_bytes(),
            "object_store": self.object_store.stats(),
            "materialization": self.materializer.stats(),
            "scheduler_events": self.scheduler.scheduled_events,
            "completed_requests": self.scheduler.completed_requests,
            "stage_batching": self.scheduler.batching.snapshot(),
            "queue_depths": self.scheduler.queue_depths(),
            "signature_backlog": self.scheduler.signature_depths(),
        }
        if self.config.enable_profiling:
            # The named-lock wait registry, {"locks": ...}; gated so
            # profiling-off runs keep the pre-profiler stats shape.
            stats["profile"] = profiling.snapshot()
        if self.config.enable_tracing:
            # Same gating discipline as the lock-wait block above.
            stats["tracing"] = observability.tracer().stats()
        return stats

    # -- lifecycle -----------------------------------------------------------------------

    def shutdown(self) -> None:
        self.executor_pool.shutdown()

    def __enter__(self) -> "PretzelRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
