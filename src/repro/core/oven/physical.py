"""Physical stages: the AOT-compiled computation units PRETZEL executes.

A physical stage is the executable counterpart of a logical stage.  It is a
parametric, lock-free unit: the *code* (a fused function chaining the stage's
operator kernels) is compiled once -- ahead of time when AOT compilation is
enabled -- and can be shared by every model plan whose logical stage has the
same trained state.  At prediction time the runtime feeds it the external
input values (the raw record and/or values exported by upstream stages) and
receives every intermediate value the stage exposes.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.oven.logical import LogicalStage, StageInput
from repro.operators.base import Operator
from repro.operators.batch import ColumnBatch, as_column_batch
from repro.operators.vectors import Vector

__all__ = ["PhysicalStage", "hash_value"]


def hash_value(value: Any) -> str:
    """Stable content hash of a stage input, used by sub-plan materialization."""
    hasher = hashlib.sha256()
    _feed_value(hasher, value)
    return hasher.hexdigest()


def _feed_value(hasher: "hashlib._Hash", value: Any) -> None:
    if isinstance(value, Vector):
        hasher.update(b"vector")
        hasher.update(value.to_numpy().tobytes())
    elif isinstance(value, dict):
        for key in sorted(value, key=repr):
            hasher.update(repr(key).encode())
            _feed_value(hasher, value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed_value(hasher, item)
    else:
        hasher.update(repr(value).encode())


def estimate_value_bytes(value: Any) -> int:
    """Rough size of a stage output, for the materialization cache budget."""
    if isinstance(value, Vector):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(estimate_value_bytes(item) for item in value) + 8 * len(value)
    if isinstance(value, str):
        return len(value)
    return 16


#: how a transform's argument is obtained: from an external input slot or
#: from the output of an earlier transform in the same stage.
_Binding = Tuple[str, Union[int, str]]


class PhysicalStage:
    """Executable, shareable implementation of one logical stage."""

    def __init__(self, logical: LogicalStage, compile_ahead_of_time: bool = True):
        self.logical_id = logical.id
        self.operators: List[Operator] = [node.operator for node in logical.transforms]
        self.transform_names: List[str] = [node.operator.name for node in logical.transforms]
        self.is_sparse = logical.is_sparse
        self.is_vectorizable = logical.is_vectorizable
        self.max_vector_size = logical.max_vector_size
        self.output_kind = logical.output_kind
        self.code_signature = logical.code_signature()
        self.full_signature = logical.full_signature()
        self.export_positions = logical.exports_positions()
        self.external_inputs: List[StageInput] = logical.external_inputs()
        self._bindings = self._resolve_bindings(logical)
        self._compiled: Optional[Callable[[List[Any]], List[Any]]] = None
        self._compile_lock = threading.Lock()
        self.executions = 0
        self.batched_executions = 0
        self.compiled_ahead_of_time = compile_ahead_of_time
        if compile_ahead_of_time:
            self.compile()

    # -- construction -------------------------------------------------------

    def _resolve_bindings(self, logical: LogicalStage) -> List[List[_Binding]]:
        """Map every transform's inputs to ('external', slot) or ('local', position)."""
        externals = self.external_inputs
        id_to_position = {node.id: position for position, node in enumerate(logical.transforms)}
        resolved: List[List[_Binding]] = []
        for node in logical.transforms:
            bindings: List[_Binding] = []
            for binding in logical.input_bindings[node.id]:
                if isinstance(binding, StageInput):
                    bindings.append(("external", externals.index(binding)))
                else:
                    if binding not in id_to_position:
                        raise ValueError(
                            f"stage {logical.id}: transform {node.id} references "
                            f"unknown in-stage value {binding!r}"
                        )
                    bindings.append(("local", id_to_position[binding]))
            resolved.append(bindings)
        return resolved

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    def compile(self) -> None:
        """Specialize the stage into a single fused function (AOT compilation).

        The generated function chains every operator call of the stage so a
        prediction executes one call per stage instead of one call per
        operator, with no branching on stage structure at runtime.
        """
        with self._compile_lock:
            if self._compiled is not None:
                return
            lines = ["def _run(_ext, _ops):"]
            for position, bindings in enumerate(self._bindings):
                arguments = [
                    f"_ext[{slot}]" if kind == "external" else f"_v{slot}"
                    for kind, slot in bindings
                ]
                argument = arguments[0] if len(arguments) == 1 else "[" + ", ".join(arguments) + "]"
                lines.append(f"    _v{position} = _ops[{position}]({argument})")
            outputs = ", ".join(f"_v{position}" for position in range(len(self._bindings)))
            lines.append(f"    return [{outputs}]")
            source = "\n".join(lines)
            namespace: Dict[str, Any] = {}
            code = compile(source, filename=f"<stage:{self.full_signature[:12]}>", mode="exec")
            exec(code, namespace)  # noqa: S102 - controlled, generated source
            fused = namespace["_run"]
            kernels = [operator.transform for operator in self.operators]
            self._compiled = lambda externals: fused(externals, kernels)

    # -- execution ----------------------------------------------------------

    def execute(self, external_values: Sequence[Any]) -> List[Any]:
        """Run the stage; returns the output value of every transform (by position).

        When AOT compilation is disabled the cold path pays the full no-AOT
        cost the Section 5.2.1 ablation measures: the first execution runs the
        reference *interpreter* (branching on stage structure per transform)
        and then specializes the stage for subsequent calls, like a JIT
        warm-up.
        """
        if len(external_values) != len(self.external_inputs):
            raise ValueError(
                f"stage expects {len(self.external_inputs)} external inputs, "
                f"got {len(external_values)}"
            )
        if self._compiled is None:
            self.executions += 1
            outputs = self.interpret(external_values)
            self.compile()
            return outputs
        self.executions += 1
        return self._compiled(list(external_values))

    @property
    def supports_batch(self) -> bool:
        """True when every bound operator has a vectorized batch kernel.

        A ``False`` stage still executes batches correctly -- the base
        :meth:`~repro.operators.base.Operator.transform_batch` is a per-record
        loop -- but that loop fallback is the explicit escape hatch the
        runtime records in its stage-batching telemetry at registration, so
        un-vectorized stages are visible instead of silent.
        """
        return all(operator.supports_batch for operator in self.operators)

    def loop_fallback_operators(self) -> List[str]:
        """Names of the bound operators still served by the per-record loop."""
        return [
            operator.name for operator in self.operators if not operator.supports_batch
        ]

    def execute_columns(self, columns: Sequence[ColumnBatch]) -> List[ColumnBatch]:
        """Run the stage once over whole columns; returns one column per transform.

        ``columns`` holds one :class:`~repro.operators.batch.ColumnBatch` per
        external input slot, all of one length.  Every transform position is
        served by a single
        :meth:`~repro.operators.base.Operator.transform_batch` call over a
        column (vectorized kernels process the whole batch in one numpy pass;
        ``supports_batch=False`` operators loop per record), and its output
        column -- dense, sparse (CSR) or scalar storage -- is what later
        positions and, through the runtime, later stages consume: no row is
        materialized between them.  A batch of one short-circuits to
        :meth:`execute` -- the compiled scalar path, bit-identical to the
        request-response engine.
        """
        expected = len(self.external_inputs)
        if len(columns) != expected:
            raise ValueError(
                f"stage expects {expected} external inputs, got {len(columns)}"
            )
        n_records = len(columns[0]) if columns else 0
        if self._compiled is None:
            # Mirror the scalar cold path: with AOT disabled the first (cold)
            # execution interprets and then specializes, so the batched engine
            # pays the same no-AOT penalty the Section 5.2.1 ablation measures.
            rows = [column.rows for column in columns]
            outputs = [
                self.interpret([values[record] for values in rows])
                for record in range(n_records)
            ]
            self.compile()
            self.executions += n_records
            self.batched_executions += 1
            return self._columns_of(outputs)
        if n_records == 1:
            self.batched_executions += 1
            return self._columns_of([self.execute([column.row(0) for column in columns])])
        per_transform: List[ColumnBatch] = []
        for position, bindings in enumerate(self._bindings):
            if len(bindings) == 1:
                kind, slot = bindings[0]
                argument = columns[slot] if kind == "external" else per_transform[slot]
            else:
                argument = ColumnBatch.multi(
                    [
                        columns[slot] if kind == "external" else per_transform[slot]
                        for kind, slot in bindings
                    ]
                )
            outputs = as_column_batch(self.operators[position].transform_batch(argument))
            if len(outputs) != n_records:
                raise ValueError(
                    f"{self.operators[position].name}.transform_batch returned "
                    f"{len(outputs)} outputs for {n_records} records"
                )
            per_transform.append(outputs)
        self.executions += n_records
        self.batched_executions += 1
        return per_transform

    def _columns_of(self, outputs: List[List[Any]]) -> List[ColumnBatch]:
        """Per-record transform outputs regrouped as one column per transform."""
        return [
            ColumnBatch.from_rows([values[position] for values in outputs])
            for position in range(len(self._bindings))
        ]

    def execute_batch(self, batch: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """Run the stage once for many records; returns per-record outputs.

        The per-record view of :meth:`execute_columns` for callers that hold
        one external-input list per record (the scheduler's coalesced
        ``submit`` batches): each external slot is gathered into a column,
        the stage runs columnar, and each record gets the output value of
        every transform (the same shape :meth:`execute` returns).
        """
        if not batch:
            return []
        expected = len(self.external_inputs)
        for external_values in batch:
            if len(external_values) != expected:
                raise ValueError(
                    f"stage expects {expected} external inputs, "
                    f"got {len(external_values)}"
                )
        columns = [
            ColumnBatch.from_rows([external_values[slot] for external_values in batch])
            for slot in range(expected)
        ]
        outputs = [column.rows for column in self.execute_columns(columns)]
        return [[rows[record] for rows in outputs] for record in range(len(batch))]

    def interpret(self, external_values: Sequence[Any]) -> List[Any]:
        """Reference interpreter used for testing the compiled path."""
        values: List[Any] = []
        for position, bindings in enumerate(self._bindings):
            arguments = [
                external_values[slot] if kind == "external" else values[slot]
                for kind, slot in bindings
            ]
            argument = arguments[0] if len(arguments) == 1 else arguments
            values.append(self.operators[position].transform(argument))
        return values

    def final_position(self) -> int:
        return len(self.operators) - 1

    # -- accounting -----------------------------------------------------------

    def memory_bytes(self) -> int:
        """Parameter footprint of the operators bound to this stage."""
        return sum(operator.memory_bytes() for operator in self.operators)

    def describe(self) -> Dict[str, Any]:
        return {
            "logical_id": self.logical_id,
            "operators": self.transform_names,
            "external_inputs": len(self.external_inputs),
            "exports": self.export_positions,
            "sparse": self.is_sparse,
            "vectorizable": self.is_vectorizable,
            "max_vector_size": self.max_vector_size,
            "compiled": self.is_compiled,
        }

    def __repr__(self) -> str:
        ops = "+".join(self.transform_names)
        return f"PhysicalStage([{ops}], sig={self.full_signature[:8]})"
