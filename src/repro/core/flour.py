"""Flour: PRETZEL's language-integrated API for expressing pipelines.

Flour programs are DAGs of transformations chained through a fluent API
(Listing 1 of the paper) and lazily compiled: nothing executes until
``plan()`` hands the program to Oven.  A one-to-many mapping exists between
ML.Net operators and Flour transformations; :func:`flour_from_pipeline`
performs the automatic extraction of a Flour program from a trained ML.Net
pipeline that the paper's instrumented ML.Net produces.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import PretzelConfig
from repro.core.object_store import ObjectStore
from repro.core.oven.compiler import ModelPlanCompiler
from repro.core.oven.logical import SOURCE, TransformGraph, TransformNode
from repro.core.oven.optimizer import OvenOptimizer
from repro.core.oven.plan import ModelPlan
from repro.core.statistics import TransformStats
from repro.mlnet.pipeline import Pipeline
from repro.operators.base import Operator, ValueKind
from repro.operators.featurizers import ColumnSelector, ConcatFeaturizer

__all__ = ["FlourContext", "FlourTransform", "FlourProgram", "flour_from_pipeline"]


class FlourContext:
    """Entry point of every Flour program; wraps the Object Store.

    The context carries the Object Store so that planning a program interns
    its parameters, and exposes the source builders (currently CSV text).
    """

    def __init__(self, object_store: Optional[ObjectStore] = None, name: str = "flour-program"):
        self.object_store = object_store or ObjectStore()
        self.name = name

    @property
    def csv(self) -> "CsvSourceBuilder":
        return CsvSourceBuilder(self)

    def source(self, input_kind: ValueKind = ValueKind.ROW) -> "FlourTransform":
        """A generic source accepting records of ``input_kind``."""
        return FlourTransform(self, operator=None, upstream=[], input_kind=input_kind)


class CsvSourceBuilder:
    """Fluent builder for CSV text sources (``fContext.CSV.FromText(',')``)."""

    def __init__(self, context: FlourContext):
        self.context = context
        self.delimiter = ","

    def from_text(self, delimiter: str = ",") -> "CsvSourceBuilder":
        self.delimiter = delimiter
        return self

    def with_schema(self, fields: Sequence[str]) -> "FlourTransform":
        """Declare the input record schema and return the source transform."""
        source = FlourTransform(
            self.context, operator=None, upstream=[], input_kind=ValueKind.ROW
        )
        source.schema_fields = list(fields)
        source.delimiter = self.delimiter
        return source


class FlourTransform:
    """One node of a Flour program.

    Instances are immutable from the user's perspective: every fluent call
    returns a *new* transform referencing its upstreams, so programs form a
    DAG that ``plan()`` can analyze.
    """

    def __init__(
        self,
        context: FlourContext,
        operator: Optional[Operator],
        upstream: Sequence["FlourTransform"],
        input_kind: Optional[ValueKind] = None,
        stats: Optional[TransformStats] = None,
    ):
        self.context = context
        self.operator = operator
        self.upstream = list(upstream)
        self.input_kind = input_kind
        self.stats = stats
        self.schema_fields: List[str] = []
        self.delimiter = ","

    # -- generic chaining ---------------------------------------------------

    def apply(self, operator: Operator, stats: Optional[TransformStats] = None) -> "FlourTransform":
        """Chain an arbitrary trained operator."""
        return FlourTransform(self.context, operator, [self], stats=stats)

    def with_stats(self, stats: TransformStats) -> "FlourTransform":
        """Attach training statistics to this transformation."""
        self.stats = stats
        return self

    # -- named sugar mirroring Listing 1 -------------------------------------

    def select(self, *columns: str, textual: Optional[bool] = None) -> "FlourTransform":
        is_textual = textual if textual is not None else len(columns) == 1
        return self.apply(ColumnSelector(list(columns), textual=is_textual))

    def tokenize(self, operator: Operator) -> "FlourTransform":
        return self.apply(operator)

    def char_ngram(self, operator: Operator, stats: Optional[TransformStats] = None) -> "FlourTransform":
        return self.apply(operator, stats=stats)

    def word_ngram(self, operator: Operator, stats: Optional[TransformStats] = None) -> "FlourTransform":
        return self.apply(operator, stats=stats)

    def concat(self, *others: "FlourTransform") -> "FlourTransform":
        return FlourTransform(self.context, ConcatFeaturizer(), [self, *others])

    def classifier_binary_linear(self, operator: Operator) -> "FlourProgram":
        return FlourProgram(self.apply(operator))

    def regressor(self, operator: Operator) -> "FlourProgram":
        return FlourProgram(self.apply(operator))

    def predictor(self, operator: Operator) -> "FlourProgram":
        return FlourProgram(self.apply(operator))

    # -- graph building -------------------------------------------------------

    def _collect(self, nodes: List["FlourTransform"]) -> None:
        for upstream in self.upstream:
            if upstream not in nodes:
                upstream._collect(nodes)
        if self not in nodes:
            nodes.append(self)

    def __repr__(self) -> str:
        label = self.operator.name if self.operator is not None else "Source"
        return f"FlourTransform({label})"


class FlourProgram:
    """A complete Flour program ready to be planned."""

    def __init__(self, final: FlourTransform, name: Optional[str] = None):
        self.final = final
        self.context = final.context
        self.name = name or self.context.name

    def to_transform_graph(self) -> TransformGraph:
        """Materialize the transformation DAG Oven will optimize."""
        ordered: List[FlourTransform] = []
        self.final._collect(ordered)
        graph = TransformGraph(self.name)
        node_ids: Dict[int, str] = {}
        input_kind: Optional[ValueKind] = None
        for transform in ordered:
            if transform.operator is None:
                # Source placeholder: record its declared input kind only.
                input_kind = transform.input_kind or ValueKind.ROW
                continue
            upstream_ids: List[str] = []
            for upstream in transform.upstream:
                if upstream.operator is None:
                    upstream_ids.append(SOURCE)
                else:
                    upstream_ids.append(node_ids[id(upstream)])
            if not upstream_ids:
                upstream_ids = [SOURCE]
                if input_kind is None:
                    input_kind = transform.operator.input_kind
            node = TransformNode(transform.operator, upstream_ids, stats=transform.stats)
            graph.add_node(node)
            node_ids[id(transform)] = node.id
        if input_kind is None and ordered:
            first_real = next((t for t in ordered if t.operator is not None), None)
            if first_real is not None:
                input_kind = first_real.operator.input_kind
        graph.metadata["input_kind"] = input_kind or ValueKind.ROW
        return graph

    def input_schema(self) -> Optional[Tuple[str, ...]]:
        """The raw-record schema this program reads, or None when it declares none.

        The white-box premise applied to the request path: a program whose
        source names its fields (``with_schema``, or the fields
        :func:`flour_from_pipeline` extracted from the pipeline's entry
        operators) reads records with exactly those named fields; a text
        source reads one string per record, reported as the empty tuple.  The
        serving tier compiles the result into its data-plane frame codec
        (:func:`repro.net.frame_schema`) on both ends of the wire, from the
        same pipeline, so no schema is ever negotiated or sent.
        """
        transforms: List[FlourTransform] = []
        self.final._collect(transforms)
        sources = [transform for transform in transforms if transform.operator is None]
        if len(sources) != 1:
            return None
        (source,) = sources
        if source.schema_fields:
            return tuple(source.schema_fields)
        return () if source.input_kind is ValueKind.TEXT else None

    def plan(
        self,
        config: Optional[PretzelConfig] = None,
        optimizer: Optional[OvenOptimizer] = None,
        compiler: Optional[ModelPlanCompiler] = None,
    ) -> ModelPlan:
        """Optimize and compile the program into a model plan."""
        graph = self.to_transform_graph()
        oven = optimizer or OvenOptimizer()
        stage_graph = oven.optimize(graph)
        mpc = compiler or ModelPlanCompiler(object_store=self.context.object_store, config=config)
        return mpc.compile(stage_graph)


def flour_from_pipeline(
    pipeline: Pipeline,
    context: Optional[FlourContext] = None,
    stats: Optional[Dict[str, TransformStats]] = None,
) -> FlourProgram:
    """Automatically extract a Flour program from a trained ML.Net pipeline.

    ``stats`` optionally maps pipeline node names to training statistics; the
    instrumented training path of the workload generators provides these.
    """
    context = context or FlourContext(name=pipeline.name)
    context.name = pipeline.name
    transforms: Dict[str, FlourTransform] = {}
    source = context.source(_pipeline_input_kind(pipeline))
    source.schema_fields = _pipeline_schema_fields(pipeline)
    final: Optional[FlourTransform] = None
    for node_name in pipeline.topological_order():
        node = pipeline.nodes[node_name]
        upstream_transforms = [
            source if upstream == Pipeline.INPUT else transforms[upstream]
            for upstream in node.inputs
        ]
        node_stats = (stats or {}).get(node_name)
        transform = FlourTransform(
            context, node.operator, upstream_transforms, stats=node_stats
        )
        transforms[node_name] = transform
        final = transform
    if final is None:
        raise ValueError(f"pipeline {pipeline.name!r} has no operators")
    sink_name = pipeline.sink()
    return FlourProgram(transforms[sink_name], name=pipeline.name)


def _pipeline_input_kind(pipeline: Pipeline) -> ValueKind:
    """Infer the raw-record kind a pipeline expects from its entry operators."""
    for node_name in pipeline.topological_order():
        node = pipeline.nodes[node_name]
        if Pipeline.INPUT in node.inputs:
            return node.operator.input_kind
    return ValueKind.ROW


def _pipeline_schema_fields(pipeline: Pipeline) -> List[str]:
    """Named fields a pipeline's entry operators read from the raw record.

    The ordered union of the columns of the non-textual ``ColumnSelector``s
    consuming ``Pipeline.INPUT`` -- empty unless *every* entry operator is
    one, because any other reader may touch fields nobody declared.  The
    names are interned: every plan of a process then shares one ``str`` per
    column (with the canonical selector that first brought it in), however
    many unpickled copies registration went through.
    """
    fields: Dict[str, None] = {}
    for node_name in pipeline.topological_order():
        node = pipeline.nodes[node_name]
        if Pipeline.INPUT not in node.inputs:
            continue
        operator = node.operator
        if not isinstance(operator, ColumnSelector) or operator.textual:
            return []
        for column in operator.columns:
            if type(column) is not str:
                return []
            fields.setdefault(sys.intern(column))
    return list(fields)
