"""Calibration: measure real service times to drive the virtual-time simulator.

The simulator (:mod:`repro.simulation.queueing`) needs per-stage service times
for PRETZEL plans and per-request service times for the black-box systems.
These are measured by executing the *real* implementations on sample inputs
and averaging wall-clock time, so the simulated experiments inherit the true
relative costs of the systems under test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.clipper.container import ModelContainer
from repro.core.engines import execute_plan_stage, execute_plan_stage_batch
from repro.core.runtime import PretzelRuntime
from repro.mlnet.runtime import MLNetRuntime

__all__ = [
    "CalibratedPlan",
    "calibrate_plan_stages",
    "calibrate_plan_stage_batches",
    "calibrate_blackbox",
    "calibrate_container",
]


@dataclass
class CalibratedPlan:
    """Measured per-stage service times (seconds) for one model plan."""

    plan_id: str
    stage_seconds: List[float]
    per_record_scaling: bool = True

    @property
    def total_seconds(self) -> float:
        return float(sum(self.stage_seconds))

    def stage_times(self, batch_size: int = 1) -> List[float]:
        """Per-stage times for a request carrying ``batch_size`` records.

        Stages process records one at a time inside the batch engine, so the
        service time scales linearly with the batch size.
        """
        factor = batch_size if self.per_record_scaling else 1
        return [seconds * factor for seconds in self.stage_seconds]


def calibrate_plan_stages(
    runtime: PretzelRuntime,
    plan_id: str,
    records: Sequence[Any],
    repetitions: int = 5,
) -> CalibratedPlan:
    """Measure per-stage execution times of a registered plan."""
    plan = runtime.plan(plan_id)
    totals = [0.0] * len(plan.stages)
    samples = 0
    for _ in range(repetitions):
        for record in records:
            values: Dict[Tuple[str, str], Any] = {}
            for index, stage in enumerate(plan.stages):
                start = time.perf_counter()
                execute_plan_stage(stage, record, values, runtime.materializer)
                totals[index] += time.perf_counter() - start
            samples += 1
    if samples == 0:
        raise ValueError("calibration needs at least one record")
    return CalibratedPlan(plan_id=plan_id, stage_seconds=[total / samples for total in totals])


def calibrate_plan_stage_batches(
    runtime: PretzelRuntime,
    plan_id: str,
    records: Sequence[Any],
    batch_size: int = 100,
    repetitions: int = 3,
) -> CalibratedPlan:
    """Measure *per-record* per-stage times of the vectorized batch path.

    Each stage is executed through
    :func:`~repro.core.engines.execute_plan_stage_batch` over ``batch_size``
    records (the sample records tiled as needed), the way an executor serves a
    coalesced :class:`StageBatch`.  The returned times are per record, so they
    are directly comparable to :func:`calibrate_plan_stages`.
    """
    if not records:
        raise ValueError("calibration needs at least one record")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    plan = runtime.plan(plan_id)
    tiled = (list(records) * ((batch_size + len(records) - 1) // len(records)))[:batch_size]
    totals = [0.0] * len(plan.stages)
    for _ in range(repetitions):
        values_list: List[Dict[Tuple[str, str], Any]] = [{} for _ in tiled]
        for index, stage in enumerate(plan.stages):
            items = [(stage, record, values) for record, values in zip(tiled, values_list)]
            start = time.perf_counter()
            execute_plan_stage_batch(items)
            totals[index] += time.perf_counter() - start
    samples = repetitions * batch_size
    return CalibratedPlan(
        plan_id=plan_id, stage_seconds=[total / samples for total in totals]
    )


def calibrate_blackbox(
    runtime: MLNetRuntime,
    model_name: str,
    records: Sequence[Any],
    repetitions: int = 5,
) -> float:
    """Measure the mean hot per-prediction time of a black-box model."""
    if not records:
        raise ValueError("calibration needs at least one record")
    # Warm up: pay initialization outside the measurement.
    runtime.predict(model_name, records[0])
    start = time.perf_counter()
    count = 0
    for _ in range(repetitions):
        for record in records:
            runtime.predict(model_name, record)
            count += 1
    return (time.perf_counter() - start) / count


def calibrate_container(
    container: ModelContainer,
    records: Sequence[Any],
    repetitions: int = 3,
) -> float:
    """Measure the mean per-request time of a container, including RPC cost."""
    if not records:
        raise ValueError("calibration needs at least one record")
    container.predict([records[0]])  # warm-up / initialization
    total = 0.0
    count = 0
    for _ in range(repetitions):
        for record in records:
            start = time.perf_counter()
            _outputs, rpc_overhead = container.predict([record])
            total += time.perf_counter() - start + rpc_overhead
            count += 1
    return total / count
