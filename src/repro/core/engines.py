"""Execution engines: shared stage execution for both of PRETZEL's engines.

PRETZEL serves predictions through two engines (Section 4.2.1):

* the **request-response engine** (:func:`execute_plan`) executes a single
  prediction inline on the thread handling the request -- no scheduling or
  context switching, which is the right trade-off for latency-sensitive
  single predictions; and
* the **batch engine** (see :mod:`repro.core.scheduler`) routes per-stage
  events through the Scheduler onto shared Executors.

Both engines share one stage-execution implementation,
:meth:`~repro.core.oven.physical.PhysicalStage.execute_columns`, which runs a
stage over whole :class:`~repro.operators.batch.ColumnBatch` columns.  Three
entry points wrap it:

* :func:`execute_plan_stage_columns` runs one stage of a ``predict_batch``
  group (every record of the call, on the caller's thread): stage outputs
  stay columns -- dense matrices, CSR sparse columns, scalar arrays -- and
  feed the next stage as columns, so no per-record value is built between
  the stages of a group;
* :func:`execute_plan_stage_batch` runs a
  :class:`~repro.core.scheduler.StageBatch` -- ``submit`` events coalesced
  across requests (and plans) because they share one physical stage -- whose
  externals and outputs live in per-request dictionaries: it gathers them,
  makes one :meth:`~repro.core.oven.physical.PhysicalStage.execute_batch`
  call (rows -> columns -> rows) and scatters the outputs back;
* :func:`execute_plan_stage` is the batch-of-1 path of the request-response
  engine, the compiled scalar stage, bit-identical to the seed engine.

Sub-plan materialization lives on the scalar path only: its cache is keyed
per record, so callers with materialization enabled run their records
through :func:`execute_plan_stage` instead of a batched entry point.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.materialization import SubPlanMaterializer
from repro.core.oven.plan import ModelPlan, PlanStage
from repro.observability import tracer
from repro.observability.tracing import TraceContext
from repro.operators.batch import ColumnBatch

__all__ = [
    "execute_plan_stage",
    "execute_plan_stage_batch",
    "execute_plan_stage_columns",
    "record_values",
    "execute_plan",
]


def execute_plan_stage(
    stage: PlanStage,
    record: Any,
    values: Dict[Tuple[str, str], Any],
    materializer: Optional[SubPlanMaterializer] = None,
) -> Any:
    """Execute one plan stage for one request: the scalar fast path.

    Computes what :func:`execute_plan_stage_batch` computes for a single
    item (same gather and scatter; the batch path's batch-of-one short
    circuit runs the identical compiled scalar stage), plus the one thing
    only the scalar path does: the sub-plan materialization lookup and
    store.  The request-response engine calls this per stage per prediction,
    so the body avoids the batch path's per-call list machinery -- the AC
    pipelines' stages are only tens of microseconds and the wrapper overhead
    is measurable at fig12's scale.
    """
    physical = stage.physical
    externals = [
        record if upstream is None else values[(upstream, transform_id)]
        for upstream, transform_id in stage.external_refs
    ]
    outputs = None
    if materializer is not None and materializer.enabled:
        outputs = materializer.lookup(physical, externals)
    if outputs is None:
        outputs = physical.execute(externals)
        if materializer is not None and materializer.enabled:
            materializer.store(physical, externals, outputs)
    for position, key in enumerate(stage.output_keys):
        values[key] = outputs[position]
    return outputs[physical.final_position()]


def execute_plan_stage_batch(
    items: Sequence[Tuple[PlanStage, Any, Dict[Tuple[str, str], Any]]],
) -> List[Any]:
    """Execute one stage for many requests, each with its own value dictionary.

    ``items`` holds one ``(stage, record, values)`` triple per request; every
    stage must wrap the same physical stage (same ``full_signature``) -- the
    invariant :meth:`Scheduler.next_batch` establishes.  The plan-level
    wrappers may still differ (each plan names its stages and exports its own
    keys), so each request's externals are gathered and its outputs scattered
    into its own ``values``, while the stage itself runs once over the whole
    batch through
    :meth:`~repro.core.oven.physical.PhysicalStage.execute_batch` (a batch of
    one short-circuits to the compiled scalar stage).  Returns each request's
    final stage output, in ``items`` order.
    """
    if not items:
        return []
    physical = items[0][0].physical
    externals = [
        [
            record if upstream is None else values[(upstream, transform_id)]
            for upstream, transform_id in stage.external_refs
        ]
        for stage, record, values in items
    ]
    results: List[Any] = []
    for (stage, _record, values), outputs in zip(items, physical.execute_batch(externals)):
        for position, key in enumerate(stage.output_keys):
            values[key] = outputs[position]
        results.append(outputs[physical.final_position()])
    return results


def execute_plan_stage_columns(
    stage: PlanStage,
    records: ColumnBatch,
    columns: Dict[Tuple[str, str], ColumnBatch],
) -> ColumnBatch:
    """Execute one plan stage over a whole group of records, column in, column out.

    The group counterpart of :func:`execute_plan_stage`: ``records`` is the
    raw-record column and ``columns`` maps plan-level keys to the columns
    upstream stages published (the scalar path's ``values`` dictionary, one
    column per key instead of one value).  The stage's output columns are
    published under its ``output_keys``; its final column is returned.
    """
    physical = stage.physical
    externals = [
        records if upstream is None else columns[(upstream, transform_id)]
        for upstream, transform_id in stage.external_refs
    ]
    outputs = physical.execute_columns(externals)
    for key, column in zip(stage.output_keys, outputs):
        columns[key] = column
    return outputs[physical.final_position()]


def record_values(
    stage: PlanStage, columns: Dict[Tuple[str, str], ColumnBatch], index: int
) -> Dict[Tuple[str, str], Any]:
    """Record ``index``'s view of the upstream columns ``stage`` reads: the
    ``values`` dictionary :func:`execute_plan_stage` expects."""
    return {ref: columns[ref][index] for ref in stage.external_refs if ref[0] is not None}


def execute_plan(
    plan: ModelPlan,
    record: Any,
    materializer: Optional[SubPlanMaterializer] = None,
    trace: Optional[TraceContext] = None,
) -> Any:
    """Execute every stage of a plan inline, in topological order: the
    request-response engine.

    When the request carries a sampled :class:`TraceContext`, every stage
    records a ``stage.execute`` span keyed by the physical stage's signature
    (the fig5 unit); untraced requests pay a single ``is None`` check per
    stage.
    """
    values: Dict[Tuple[str, str], Any] = {}
    result: Any = None
    for stage in plan.stages:
        if trace is None:
            output = execute_plan_stage(stage, record, values, materializer)
        else:
            started = time.perf_counter()
            output = execute_plan_stage(stage, record, values, materializer)
            record_stage_span(trace, stage, time.perf_counter() - started)
        if stage.is_sink:
            result = output
    return result


def record_stage_span(
    trace: TraceContext,
    stage: PlanStage,
    duration: float,
    events: int = 1,
) -> None:
    """Record one ``stage.execute`` span for a traced stage execution.

    ``events`` > 1 marks a span produced by a coalesced batch execution (the
    member's share of one vectorized call); the signature attribute is what
    :func:`repro.observability.trace_breakdown` aggregates by.
    """
    physical = stage.physical
    tracer().record(
        trace.trace_id,
        "stage.execute",
        duration,
        parent_span_id=trace.parent_span_id,
        attributes={
            "signature": physical.full_signature,
            "operators": list(physical.transform_names),
            "events": events,
        },
    )

