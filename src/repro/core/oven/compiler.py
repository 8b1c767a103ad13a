"""The Model Plan Compiler (MPC).

The MPC maps an optimized stage graph to a :class:`~repro.core.oven.plan.ModelPlan`:

* operator parameters are interned in the Object Store so that identical
  trained state is stored exactly once across all registered plans,
* each logical stage is mapped to a physical stage; when a physical stage
  with the same trained state already exists in the catalog it is reused
  (1-to-n logical to physical mapping plus cross-plan sharing), and
* physical stages are AOT-compiled and operators build their derived serving
  state (unless disabled) so no specialization work remains on the
  prediction path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import PretzelConfig
from repro.core.object_store import ObjectStore
from repro.core.oven.logical import LogicalStage, StageGraph
from repro.core.oven.physical import PhysicalStage
from repro.core.oven.plan import ModelPlan, PlanStage
from repro.operators.base import ValueKind

__all__ = ["ModelPlanCompiler"]


class ModelPlanCompiler:
    """Compile optimized stage graphs into executable model plans."""

    def __init__(
        self,
        object_store: Optional[ObjectStore] = None,
        config: Optional[PretzelConfig] = None,
        stage_catalog: Optional[Dict[str, PhysicalStage]] = None,
    ):
        self.config = config or PretzelConfig()
        self.object_store = object_store or ObjectStore(
            enabled=self.config.enable_object_store,
            materialization_budget_bytes=self.config.materialization_budget_bytes,
        )
        #: full_signature -> physical stage, shared across compiled plans
        self.stage_catalog: Dict[str, PhysicalStage] = (
            stage_catalog if stage_catalog is not None else {}
        )

    # -- compilation ---------------------------------------------------------

    def compile(self, stage_graph: StageGraph) -> ModelPlan:
        """Build the model plan for one optimized stage graph."""
        self._intern_operators(stage_graph)
        order = stage_graph.topological_order()
        sink_id = stage_graph.sink().id
        plan_stages: List[PlanStage] = []
        for stage_id in order:
            logical = stage_graph.stages[stage_id]
            physical = self._physical_for(logical)
            external_refs = [
                (binding.stage_id, binding.transform_id) for binding in logical.external_inputs()
            ]
            output_keys = [(logical.id, node.id) for node in logical.transforms]
            plan_stages.append(
                PlanStage(
                    stage_id=logical.id,
                    physical=physical,
                    external_refs=external_refs,
                    output_keys=output_keys,
                    is_sink=(stage_id == sink_id),
                )
            )
        input_kind = stage_graph.metadata.get("input_kind", ValueKind.ROW)
        plan = ModelPlan(
            name=stage_graph.name,
            stages=plan_stages,
            input_kind=input_kind,
            metadata={"rewrites": stage_graph.metadata.get("rewrites", [])},
        )
        return plan

    # -- helpers -------------------------------------------------------------

    def _intern_operators(self, stage_graph: StageGraph) -> None:
        """Replace operator instances with the canonical Object Store copies.

        With AOT compilation on, each canonical operator also builds its
        derived serving state here (:meth:`Operator.prepare` -- idempotent, so
        a plan that dedups onto an existing operator pays nothing): like stage
        specialization, none of it is left for the prediction path.
        """
        for stage in stage_graph:
            for node in stage.transforms:
                node.operator = self.object_store.intern_operator(node.operator)
                if self.config.enable_aot_compilation:
                    node.operator.prepare()

    def _physical_for(self, logical: LogicalStage) -> PhysicalStage:
        """Reuse a catalogued physical stage or build (and AOT-compile) a new one.

        With AOT compilation disabled the catalog is bypassed entirely: a
        shared stage object would let every plan after the first skip the cold
        interpretation and specialization cost the no-AOT configuration is
        supposed to pay (the Section 5.2.1 ablation), regardless of whether
        plans are registered before or after the first prediction.  Each plan
        receives its own fresh, uncompiled stage; parameters stay deduplicated
        through the Object Store and materialization still shares results (the
        cache is keyed by the stage *signature*, not by object identity).
        """
        if not self.config.enable_aot_compilation:
            return PhysicalStage(logical, compile_ahead_of_time=False)
        signature = logical.full_signature()
        if self.config.enable_object_store and signature in self.stage_catalog:
            return self.stage_catalog[signature]
        physical = PhysicalStage(logical, compile_ahead_of_time=True)
        if self.config.enable_object_store:
            self.stage_catalog[signature] = physical
        return physical
