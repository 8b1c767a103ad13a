"""Model plans: the unit PRETZEL registers and serves.

A model plan is the union of the logical stage DAG, the physical stages
implementing it and the statistics needed at runtime (Section 4.1.2 and
Figure 6).  Plans reference physical stages by object: when two plans were
compiled against the same Object Store and their logical stages carry the
same trained state, they point at the *same* physical stage instances, which
is what enables both parameter sharing and sub-plan materialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.oven.physical import PhysicalStage
from repro.operators.base import ValueKind

__all__ = ["PlanStage", "ModelPlan"]


@dataclass
class PlanStage:
    """One stage of a model plan.

    ``external_refs`` lists, in positional order, where each external input of
    the physical stage comes from: ``(None, "$source")`` for the raw record or
    ``(stage_id, transform_id)`` for a value exported by an upstream stage.
    ``output_keys`` maps each transform position of the physical stage to the
    plan-level key under which its value is published for downstream stages.
    """

    stage_id: str
    physical: PhysicalStage
    external_refs: List[Tuple[Optional[str], str]]
    output_keys: List[Tuple[str, str]]
    is_sink: bool = False

    def upstream_stage_ids(self) -> List[str]:
        ids: List[str] = []
        for stage_id, _transform_id in self.external_refs:
            if stage_id is not None and stage_id not in ids:
                ids.append(stage_id)
        return ids


@dataclass
class ModelPlan:
    """A compiled, registrable representation of one pipeline."""

    name: str
    stages: List[PlanStage]
    input_kind: ValueKind
    metadata: Dict[str, Any] = field(default_factory=dict)
    plan_id: Optional[str] = None

    def sink_stage(self) -> PlanStage:
        sinks = [stage for stage in self.stages if stage.is_sink]
        if len(sinks) != 1:
            raise ValueError(f"plan {self.name!r} must have exactly one sink stage")
        return sinks[0]

    def stage_count(self) -> int:
        return len(self.stages)

    def operator_count(self) -> int:
        return sum(len(stage.physical.operators) for stage in self.stages)

    def physical_stages(self) -> List[PhysicalStage]:
        return [stage.physical for stage in self.stages]

    def stage_signature(self, index: int) -> str:
        """Full signature of the physical stage at ``index``.

        This is the key the batch engine coalesces on: two plans whose stages
        report the same signature share the physical stage (same operators,
        same trained state), so their queued events can be served by one
        vectorized execution.
        """
        return self.stages[index].physical.full_signature

    def memory_bytes(self) -> int:
        """Parameter bytes referenced by this plan (ignoring cross-plan sharing)."""
        return sum(stage.physical.memory_bytes() for stage in self.stages)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "stages": [stage.physical.describe() for stage in self.stages],
            "input_kind": self.input_kind.value,
        }
