"""Logical representations used by Oven: transform graphs and stage graphs.

Two graph flavours appear during planning:

* a :class:`TransformGraph` -- one node per Flour transformation (i.e. per
  operator), the direct output of the Flour API; and
* a :class:`StageGraph` -- the result of Oven's stage-building and
  optimization steps, where each :class:`LogicalStage` fuses one or more
  transformations that execute in a single pass over the record.

Stages may *export* intermediate values (e.g. the token list produced inside
the Char-n-gram stage) so that other stages can consume them without
re-running the shared prefix; this is how the paper's example plan reuses the
Tokenizer between CharNgram and WordNgram.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.statistics import TransformStats
from repro.operators.base import Annotation, Operator, ValueKind

__all__ = [
    "SOURCE",
    "TransformNode",
    "TransformGraph",
    "StageInput",
    "LogicalStage",
    "StageGraph",
    "GraphValidationError",
]

#: pseudo node id denoting the raw input record
SOURCE = "$source"


class GraphValidationError(ValueError):
    """Raised by Oven's validation rules when a graph is malformed."""


class TransformNode:
    """One Flour transformation: an operator plus its upstream node ids."""

    _counter = itertools.count()

    def __init__(
        self,
        operator: Operator,
        upstream: Sequence[str],
        node_id: Optional[str] = None,
        stats: Optional[TransformStats] = None,
    ):
        self.id = node_id or f"t{next(TransformNode._counter)}"
        self.operator = operator
        self.upstream = list(upstream)
        self.stats = stats or TransformStats()
        #: filled in by schema propagation
        self.resolved_output_kind: Optional[ValueKind] = None
        self.resolved_output_size: Optional[int] = None

    @property
    def operator(self) -> Operator:
        return self._operator

    @operator.setter
    def operator(self, operator: Operator) -> None:
        # A new operator (the compiler's Object Store intern) gets its own
        # signature.  The cache holds only the string: keeping the operator
        # would pin an unpickled plan's private trained state past its intern.
        self._operator = operator
        self._signature: Optional[str] = None

    @property
    def annotations(self) -> Annotation:
        return self.operator.annotations

    def is_breaker(self) -> bool:
        return self.operator.is_pipeline_breaker()

    def signature(self) -> str:
        """Identity of the transformation: operator family, config and params.

        Computed once per operator: the optimizer's rules compare stage
        signatures many times while planning, and each computation checksums
        the operator's trained state.
        """
        if self._signature is None:
            self._signature = self._operator.signature()
        return self._signature

    def __repr__(self) -> str:
        return f"TransformNode({self.id}, {self.operator.name}, upstream={self.upstream})"


class TransformGraph:
    """DAG of transform nodes rooted at the raw-record source."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: Dict[str, TransformNode] = {}
        self._order: List[str] = []
        self.metadata: Dict[str, Any] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: TransformNode) -> TransformNode:
        if node.id in self.nodes:
            raise GraphValidationError(f"duplicate transform id {node.id!r}")
        for upstream in node.upstream:
            if upstream != SOURCE and upstream not in self.nodes:
                raise GraphValidationError(
                    f"transform {node.id!r} references unknown upstream {upstream!r}"
                )
        self.nodes[node.id] = node
        self._order.append(node.id)
        return node

    # -- queries -----------------------------------------------------------

    def topological_order(self) -> List[str]:
        return list(self._order)

    def consumers_of(self, node_id: str) -> List[str]:
        return [nid for nid in self._order if node_id in self.nodes[nid].upstream]

    def sink(self) -> TransformNode:
        consumed = {up for node in self.nodes.values() for up in node.upstream}
        sinks = [nid for nid in self._order if nid not in consumed]
        if len(sinks) != 1:
            raise GraphValidationError(
                f"transform graph {self.name!r} must have exactly one sink, found {sinks}"
            )
        return self.nodes[sinks[0]]

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"TransformGraph({self.name!r}, nodes={len(self.nodes)})"


@dataclass(frozen=True)
class StageInput:
    """A value a stage consumes: the output of ``transform_id`` in ``stage_id``.

    ``stage_id`` of ``None`` means the raw input record.
    """

    stage_id: Optional[str]
    transform_id: str

    @classmethod
    def source(cls) -> "StageInput":
        return cls(None, SOURCE)

    def is_source(self) -> bool:
        return self.stage_id is None and self.transform_id == SOURCE


class LogicalStage:
    """A fused group of transformations executed as a single unit."""

    _counter = itertools.count()

    def __init__(self, stage_id: Optional[str] = None):
        self.id = stage_id or f"s{next(LogicalStage._counter)}"
        #: transforms in execution order inside the stage
        self.transforms: List[TransformNode] = []
        #: where each transform's inputs come from: transform id -> list of
        #: either in-stage transform ids or StageInput references
        self.input_bindings: Dict[str, List[Any]] = {}
        #: transform ids whose outputs must be visible outside the stage
        self.exports: List[str] = []
        #: labels filled by the output validation step
        self.is_sparse: bool = False
        self.is_vectorizable: bool = False
        self.max_vector_size: int = 0
        self.output_kind: Optional[ValueKind] = None

    # -- content -----------------------------------------------------------

    def add_transform(self, node: TransformNode, bindings: List[Any]) -> None:
        self.transforms.append(node)
        self.input_bindings[node.id] = bindings

    def transform_ids(self) -> List[str]:
        return [t.id for t in self.transforms]

    def contains(self, transform_id: str) -> bool:
        return any(t.id == transform_id for t in self.transforms)

    def final_transform(self) -> TransformNode:
        if not self.transforms:
            raise GraphValidationError(f"stage {self.id} is empty")
        return self.transforms[-1]

    def external_inputs(self) -> List[StageInput]:
        """Stage inputs referencing values produced outside this stage."""
        externals: List[StageInput] = []
        for bindings in self.input_bindings.values():
            for binding in bindings:
                if isinstance(binding, StageInput) and binding not in externals:
                    externals.append(binding)
        return externals

    def upstream_stage_ids(self) -> List[str]:
        ids: List[str] = []
        for binding in self.external_inputs():
            if binding.stage_id is not None and binding.stage_id not in ids:
                ids.append(binding.stage_id)
        return ids

    def ensure_export(self, transform_id: str) -> None:
        if transform_id not in self.exports:
            self.exports.append(transform_id)

    # -- identity ----------------------------------------------------------

    def code_signature(self) -> str:
        """Identity of the stage's *code*: operator classes + configuration."""
        hasher = hashlib.sha256()
        for node in self.transforms:
            hasher.update(type(node.operator).__name__.encode())
            hasher.update(repr(node.operator._config()).encode())
        hasher.update(repr([repr(b) for b in self.external_inputs()]).encode())
        return hasher.hexdigest()

    def full_signature(self) -> str:
        """Identity of code *and* parameters (used for stage sharing)."""
        hasher = hashlib.sha256()
        for node in self.transforms:
            hasher.update(node.signature().encode())
        hasher.update(repr(len(self.external_inputs())).encode())
        hasher.update(repr(self.exports_positions()).encode())
        return hasher.hexdigest()

    def exports_positions(self) -> List[int]:
        """Positions (indices into transforms) of exported transforms."""
        positions = []
        ids = self.transform_ids()
        for export in self.exports:
            if export in ids:
                positions.append(ids.index(export))
        return positions

    def memory_bytes(self) -> int:
        return sum(t.operator.memory_bytes() for t in self.transforms)

    def __repr__(self) -> str:
        ops = "+".join(t.operator.name for t in self.transforms)
        return f"LogicalStage({self.id}, [{ops}])"


class StageGraph:
    """DAG of logical stages; the output of Oven's optimizer."""

    def __init__(self, name: str):
        self.name = name
        self.stages: Dict[str, LogicalStage] = {}
        self._order: List[str] = []
        self.metadata: Dict[str, Any] = {}

    def add_stage(self, stage: LogicalStage) -> LogicalStage:
        if stage.id in self.stages:
            raise GraphValidationError(f"duplicate stage id {stage.id!r}")
        self.stages[stage.id] = stage
        self._order.append(stage.id)
        return stage

    def remove_stage(self, stage_id: str) -> None:
        self.stages.pop(stage_id, None)
        if stage_id in self._order:
            self._order.remove(stage_id)

    def topological_order(self) -> List[str]:
        """Stages ordered so every stage appears after all of its upstreams."""
        remaining = set(self._order)
        resolved: List[str] = []
        while remaining:
            progressed = False
            for stage_id in self._order:
                if stage_id not in remaining:
                    continue
                upstream = set(self.stages[stage_id].upstream_stage_ids())
                if upstream & remaining:
                    continue
                resolved.append(stage_id)
                remaining.remove(stage_id)
                progressed = True
            if not progressed:
                raise GraphValidationError(
                    f"stage graph {self.name!r} contains a dependency cycle"
                )
        return resolved

    def consumers_of(self, stage_id: str) -> List[str]:
        return [
            sid
            for sid in self._order
            if stage_id in self.stages[sid].upstream_stage_ids()
        ]

    def sink(self) -> LogicalStage:
        consumed = {up for stage in self.stages.values() for up in stage.upstream_stage_ids()}
        sinks = [sid for sid in self._order if sid not in consumed]
        if len(sinks) != 1:
            raise GraphValidationError(
                f"stage graph {self.name!r} must have exactly one sink, found {sinks}"
            )
        return self.stages[sinks[0]]

    def stage_of_transform(self, transform_id: str) -> Optional[LogicalStage]:
        for stage in self.stages.values():
            if stage.contains(transform_id):
                return stage
        return None

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self) -> Iterable[LogicalStage]:
        return iter(self.stages[sid] for sid in self._order)

    def __repr__(self) -> str:
        return f"StageGraph({self.name!r}, stages={len(self.stages)})"
