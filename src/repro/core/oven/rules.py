"""Individual rewriting rules used by Oven's optimization steps.

Rules follow the classic rule-based optimizer protocol: ``apply(graph)``
inspects the graph, performs its rewrite if the matching condition holds and
returns ``True`` when the graph was modified.  Steps (see
:mod:`repro.core.oven.steps`) iterate their rules until a fix-point is
reached.  Validation rules never modify the graph; they raise
:class:`~repro.core.oven.logical.GraphValidationError` on failure.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.oven.logical import (
    SOURCE,
    GraphValidationError,
    LogicalStage,
    StageGraph,
    StageInput,
    TransformGraph,
    TransformNode,
)
from repro.core.oven.rewrite_ops import MarginCombiner, PartialLinearScorer, link_name_for_model
from repro.core.statistics import TransformStats
from repro.operators.base import Annotation, OperatorKind, ValueKind
from repro.operators.featurizers import ConcatFeaturizer
from repro.operators.linear import LinearModel

__all__ = [
    "SchemaPropagationRule",
    "SchemaValidationRule",
    "GraphWellFormedRule",
    "PushLinearModelThroughConcatRule",
    "RemoveDuplicateBranchStagesRule",
    "InlineSingleTransformStageRule",
    "RemoveUnnecessaryStagesRule",
    "StageSchemaRule",
    "StageStatsRule",
    "VectorizableLabelingRule",
    "ExportConsistencyRule",
    "StageGraphWellFormedRule",
]


# ---------------------------------------------------------------------------
# InputGraphValidatorStep rules (transform graph level)
# ---------------------------------------------------------------------------


class SchemaPropagationRule:
    """Propagate output kinds and sizes from the source to the sink."""

    name = "SchemaPropagation"

    def apply(self, graph: TransformGraph) -> bool:
        changed = False
        for node_id in graph.topological_order():
            node = graph.nodes[node_id]
            kind = node.operator.output_kind
            size = node.operator.output_size()
            if size is None and isinstance(node.operator, ConcatFeaturizer):
                upstream_sizes = []
                for upstream in node.upstream:
                    if upstream == SOURCE:
                        upstream_sizes = []
                        break
                    upstream_sizes.append(graph.nodes[upstream].resolved_output_size)
                if upstream_sizes and all(s is not None for s in upstream_sizes):
                    size = int(sum(upstream_sizes))  # type: ignore[arg-type]
            if size is None and node.stats.max_vector_size:
                size = node.stats.max_vector_size
            if node.resolved_output_kind != kind or node.resolved_output_size != size:
                node.resolved_output_kind = kind
                node.resolved_output_size = size
                changed = True
        return changed


class SchemaValidationRule:
    """Check that every transformation's input schema matches its upstreams."""

    name = "SchemaValidation"

    def apply(self, graph: TransformGraph) -> bool:
        source_kind = graph.metadata.get("input_kind")
        for node_id in graph.topological_order():
            node = graph.nodes[node_id]
            expected = node.operator.input_kind
            for upstream in node.upstream:
                if upstream == SOURCE:
                    if source_kind is not None and expected != source_kind:
                        raise GraphValidationError(
                            f"transform {node.id} expects {expected.value} but the "
                            f"pipeline input is {source_kind.value}"
                        )
                    continue
                produced = graph.nodes[upstream].resolved_output_kind
                if produced is None:
                    raise GraphValidationError(
                        f"schema of {upstream!r} not resolved before validating {node.id!r}"
                    )
                if produced == expected:
                    continue
                if expected == ValueKind.VECTOR and produced == ValueKind.SCALAR:
                    continue  # a scalar is a valid 1-dimensional vector
                raise GraphValidationError(
                    f"transform {node.id} ({node.operator.name}) expects "
                    f"{expected.value} but upstream {upstream!r} produces {produced.value}"
                )
        return False


class GraphWellFormedRule:
    """Check the graph is well-formed and ends with a predictor."""

    name = "GraphWellFormed"

    def apply(self, graph: TransformGraph) -> bool:
        if not graph.nodes:
            raise GraphValidationError("empty transform graph")
        sink = graph.sink()
        if sink.operator.kind != OperatorKind.PREDICTOR and sink.resolved_output_kind not in (
            ValueKind.SCALAR,
            ValueKind.VECTOR,
            ValueKind.KEY,
        ):
            raise GraphValidationError(
                f"pipeline {graph.name!r} does not end with a predictor "
                f"(sink is {sink.operator.name})"
            )
        # Every node must be reachable from the source.
        reachable = {SOURCE}
        for node_id in graph.topological_order():
            node = graph.nodes[node_id]
            if all(upstream in reachable for upstream in node.upstream):
                reachable.add(node_id)
        unreachable = set(graph.nodes) - reachable
        if unreachable:
            raise GraphValidationError(f"unreachable transforms: {sorted(unreachable)}")
        return False


# ---------------------------------------------------------------------------
# StageGraphOptimizerStep rules (stage graph level)
# ---------------------------------------------------------------------------


def _producing_node(graph: StageGraph, binding: StageInput) -> Optional[TransformNode]:
    if binding.stage_id is None:
        return None
    stage = graph.stages.get(binding.stage_id)
    if stage is None:
        return None
    for node in stage.transforms:
        if node.id == binding.transform_id:
            return node
    return None


class PushLinearModelThroughConcatRule:
    """Replace ``Concat -> LinearModel`` with per-branch partial dot products.

    The linear model's weight vector is sliced according to the branch sizes;
    a new stage computes one partial margin per branch and combines them with
    the model's link function.  Both the Concat stage and the model stage are
    removed, so no concatenated feature buffer is ever materialized.
    """

    name = "PushLinearModelThroughConcat"

    def apply(self, graph: StageGraph) -> bool:
        for concat_stage in list(graph):
            if len(concat_stage.transforms) != 1:
                continue
            concat_node = concat_stage.transforms[0]
            if not isinstance(concat_node.operator, ConcatFeaturizer):
                continue
            consumers = graph.consumers_of(concat_stage.id)
            if len(consumers) != 1:
                continue
            model_stage = graph.stages[consumers[0]]
            if len(model_stage.transforms) != 1:
                continue
            model_node = model_stage.transforms[0]
            model = model_node.operator
            if not isinstance(model, LinearModel) or isinstance(model, PartialLinearScorer):
                continue
            if model.weights is None:
                continue
            branch_bindings = [
                binding
                for binding in concat_stage.input_bindings[concat_node.id]
                if isinstance(binding, StageInput)
            ]
            if len(branch_bindings) < 2:
                continue
            sizes: List[int] = []
            for binding in branch_bindings:
                producer = _producing_node(graph, binding)
                if producer is None:
                    sizes = []
                    break
                size = producer.resolved_output_size or producer.operator.output_size()
                if size is None:
                    sizes = []
                    break
                sizes.append(int(size))
            if not sizes or sum(sizes) != model.weights.shape[0]:
                continue

            parts = model.split(sizes)
            link = link_name_for_model(model)
            scoring_stage = LogicalStage()
            scorer_nodes: List[TransformNode] = []
            for index, (part, binding) in enumerate(zip(parts, branch_bindings)):
                scorer = PartialLinearScorer(part.weights, part.bias, branch_index=index)
                scorer_node = TransformNode(scorer, upstream=[binding.transform_id])
                scorer_node.resolved_output_kind = ValueKind.SCALAR
                scorer_node.resolved_output_size = 1
                scorer_node.stats = TransformStats(max_vector_size=1, avg_nnz=1, density=1.0)
                scoring_stage.add_transform(scorer_node, [binding])
                scorer_nodes.append(scorer_node)
            combiner = MarginCombiner(link=link, n_inputs=len(scorer_nodes))
            combiner_node = TransformNode(combiner, upstream=[n.id for n in scorer_nodes])
            combiner_node.resolved_output_kind = ValueKind.SCALAR
            combiner_node.resolved_output_size = 1
            combiner_node.stats = TransformStats(max_vector_size=1, avg_nnz=1, density=1.0)
            scoring_stage.add_transform(combiner_node, [node.id for node in scorer_nodes])
            graph.add_stage(scoring_stage)

            # Rewire consumers of the model stage to the new scoring stage.
            for consumer_id in graph.consumers_of(model_stage.id):
                consumer = graph.stages[consumer_id]
                for bindings in consumer.input_bindings.values():
                    for position, binding in enumerate(bindings):
                        if (
                            isinstance(binding, StageInput)
                            and binding.stage_id == model_stage.id
                        ):
                            bindings[position] = StageInput(scoring_stage.id, combiner_node.id)

            graph.remove_stage(concat_stage.id)
            graph.remove_stage(model_stage.id)
            graph.metadata.setdefault("rewrites", []).append(
                {"rule": self.name, "plan": graph.name, "branches": len(sizes)}
            )
            return True
        return False


class RemoveDuplicateBranchStagesRule:
    """Common sub-expression elimination across branches of one plan.

    Two stages with identical transformations (same operators, same trained
    parameters) consuming identical inputs compute identical values; the
    duplicate is removed and its consumers are rewired to the surviving stage.
    """

    name = "RemoveDuplicateBranchStages"

    def apply(self, graph: StageGraph) -> bool:
        stages = list(graph)
        # Once per stage per pass: the graph only changes right before the
        # pass returns.
        signatures = [stage.full_signature() for stage in stages]
        for first_index, keeper in enumerate(stages):
            for second_index in range(first_index + 1, len(stages)):
                duplicate = stages[second_index]
                if signatures[first_index] != signatures[second_index]:
                    continue
                if keeper.external_inputs() != duplicate.external_inputs():
                    continue
                id_map = {
                    dup_node.id: keep_node.id
                    for dup_node, keep_node in zip(duplicate.transforms, keeper.transforms)
                }
                for consumer_id in graph.consumers_of(duplicate.id):
                    consumer = graph.stages[consumer_id]
                    for bindings in consumer.input_bindings.values():
                        for position, binding in enumerate(bindings):
                            if (
                                isinstance(binding, StageInput)
                                and binding.stage_id == duplicate.id
                            ):
                                mapped = id_map.get(binding.transform_id, binding.transform_id)
                                bindings[position] = StageInput(keeper.id, mapped)
                                if mapped != keeper.final_transform().id:
                                    keeper.ensure_export(mapped)
                graph.remove_stage(duplicate.id)
                graph.metadata.setdefault("rewrites", []).append(
                    {"rule": self.name, "plan": graph.name}
                )
                return True
        return False


class InlineSingleTransformStageRule:
    """Inline trivially small stages into their producer.

    A stage holding a single 1-to-1 transformation whose only input is the
    *final* value of another stage (and which is that value's only consumer)
    is appended to the producing stage: the extra stage would only add
    scheduling and buffering overhead.  Transformations whose producer value
    feeds other stages are left alone so shared featurization stages keep
    their cross-pipeline identity.
    """

    name = "InlineSingleTransformStage"

    def apply(self, graph: StageGraph) -> bool:
        for stage in list(graph):
            if len(stage.transforms) != 1:
                continue
            node = stage.transforms[0]
            if node.is_breaker():
                continue
            externals = stage.external_inputs()
            if len(externals) != 1 or externals[0].is_source():
                continue
            binding = externals[0]
            producer_stage = graph.stages.get(binding.stage_id or "")
            if producer_stage is None:
                continue
            if binding.transform_id != producer_stage.final_transform().id:
                continue
            # The producer's final value must not feed anything else.
            other_consumers = [
                sid
                for sid in graph.consumers_of(producer_stage.id)
                if sid != stage.id
                and any(
                    isinstance(b, StageInput)
                    and b.stage_id == producer_stage.id
                    and b.transform_id == binding.transform_id
                    for bindings in graph.stages[sid].input_bindings.values()
                    for b in bindings
                )
            ]
            if other_consumers:
                continue
            producer_stage.add_transform(node, [binding.transform_id])
            for consumer_id in graph.consumers_of(stage.id):
                consumer = graph.stages[consumer_id]
                for bindings in consumer.input_bindings.values():
                    for position, inner in enumerate(bindings):
                        if isinstance(inner, StageInput) and inner.stage_id == stage.id:
                            bindings[position] = StageInput(producer_stage.id, inner.transform_id)
            graph.remove_stage(stage.id)
            graph.metadata.setdefault("rewrites", []).append(
                {"rule": self.name, "plan": graph.name, "transform": node.operator.name}
            )
            return True
        return False


class RemoveUnnecessaryStagesRule:
    """Drop empty stages and stages whose output nobody consumes."""

    name = "RemoveUnnecessaryStages"

    def apply(self, graph: StageGraph) -> bool:
        if len(graph) <= 1:
            return False
        try:
            sink_id = graph.sink().id
        except GraphValidationError:
            sink_id = None
        for stage in list(graph):
            if not stage.transforms:
                graph.remove_stage(stage.id)
                return True
            if sink_id is not None and stage.id != sink_id and not graph.consumers_of(stage.id):
                graph.remove_stage(stage.id)
                graph.metadata.setdefault("rewrites", []).append(
                    {"rule": self.name, "plan": graph.name, "stage": stage.id}
                )
                return True
        return False


# ---------------------------------------------------------------------------
# OutputGraphValidatorStep rules (labelling + final checks)
# ---------------------------------------------------------------------------


class StageSchemaRule:
    """Derive each stage's output schema from its final transformation."""

    name = "StageSchema"

    def apply(self, graph: StageGraph) -> bool:
        changed = False
        for stage in graph:
            final = stage.final_transform()
            kind = final.resolved_output_kind or final.operator.output_kind
            if stage.output_kind != kind:
                stage.output_kind = kind
                changed = True
        return changed


class StageStatsRule:
    """Label stages with training statistics (max vector size, sparsity)."""

    name = "StageStats"

    def apply(self, graph: StageGraph) -> bool:
        changed = False
        for stage in graph:
            max_size = 0
            for node in stage.transforms:
                candidates = [
                    node.stats.max_vector_size,
                    node.resolved_output_size or 0,
                    node.operator.output_size() or 0,
                ]
                max_size = max(max_size, *candidates)
            final = stage.final_transform()
            sparse = final.stats.is_sparse or getattr(final.operator, "produces_sparse", False)
            if stage.max_vector_size != max_size or stage.is_sparse != sparse:
                stage.max_vector_size = max_size
                stage.is_sparse = sparse
                changed = True
        return changed


class VectorizableLabelingRule:
    """Mark dense compute-bound stages as vectorizable (SIMD-friendly)."""

    name = "VectorizableLabeling"

    def apply(self, graph: StageGraph) -> bool:
        changed = False
        for stage in graph:
            vectorizable = all(
                bool(node.annotations & Annotation.VECTORIZABLE) for node in stage.transforms
            ) and not stage.is_sparse
            if stage.is_vectorizable != vectorizable:
                stage.is_vectorizable = vectorizable
                changed = True
        return changed


class ExportConsistencyRule:
    """Ensure every cross-stage reference points at an exported (visible) value."""

    name = "ExportConsistency"

    def apply(self, graph: StageGraph) -> bool:
        changed = False
        for stage in graph:
            for binding in stage.external_inputs():
                if binding.is_source():
                    continue
                producer = graph.stages.get(binding.stage_id or "")
                if producer is None or not producer.contains(binding.transform_id):
                    raise GraphValidationError(
                        f"stage {stage.id} references missing value "
                        f"{binding.stage_id}/{binding.transform_id}"
                    )
                if (
                    binding.transform_id != producer.final_transform().id
                    and binding.transform_id not in producer.exports
                ):
                    producer.ensure_export(binding.transform_id)
                    changed = True
        return changed


class StageGraphWellFormedRule:
    """Final structural check: acyclic, single sink."""

    name = "StageGraphWellFormed"

    def apply(self, graph: StageGraph) -> bool:
        graph.topological_order()
        graph.sink()
        return False
