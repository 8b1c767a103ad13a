"""General-purpose featurizers: selection, concatenation, scaling, encoding.

``ConcatFeaturizer`` is the operator PRETZEL's optimizer most wants to remove:
it is an n-to-1 *pipeline breaker* that forces the full feature vector to be
materialized before the model can run (Section 2, "Operator-at-a-time Model").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.operators.base import Annotation, Operator, OperatorKind, Parameter, ValueKind
from repro.operators.batch import (
    ColumnBatch,
    as_column_batch,
    batch_matrix,
    concat_csr,
    stack_columns,
)
from repro.operators.vectors import DenseVector, Vector, as_vector, concat_vectors

__all__ = [
    "ColumnSelector",
    "ConcatFeaturizer",
    "MinMaxNormalizer",
    "MissingValueImputer",
]


class ColumnSelector(Operator):
    """Select named fields from a structured record and emit a dense vector.

    When a single textual column is selected the raw string is passed through
    unchanged (``output_kind`` = TEXT), matching Flour's ``Select("Text")``.
    """

    name = "ColumnSelector"
    kind = OperatorKind.FEATURIZER
    input_kind = ValueKind.ROW
    annotations = Annotation.ONE_TO_ONE | Annotation.MEMORY_BOUND

    def __init__(self, columns: Sequence[str], textual: bool = False):
        if not columns:
            raise ValueError("ColumnSelector needs at least one column")
        if textual and len(columns) != 1:
            raise ValueError("textual selection works on exactly one column")
        self.columns = list(columns)
        self.textual = textual
        self.output_kind = ValueKind.TEXT if textual else ValueKind.VECTOR

    supports_batch = True

    def transform(self, value: Any) -> Any:
        if not isinstance(value, dict):
            raise TypeError(f"ColumnSelector expects a dict record, got {type(value)!r}")
        if self.textual:
            return value.get(self.columns[0], "")
        row = np.array(
            [float(value.get(col, 0.0) if value.get(col) is not None else 0.0) for col in self.columns],
            dtype=np.float64,
        )
        return DenseVector(row)

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Gather the selected fields of every record into one columnar matrix.

        Field extraction from dict records is inherently per-record, but the
        batch leaves here as a single ``(n, columns)`` matrix, so every
        numeric kernel downstream runs columnar.
        """
        batch = as_column_batch(values)
        rows = batch.rows
        if self.textual:
            column = self.columns[0]
            texts = []
            for value in rows:
                if not isinstance(value, dict):
                    raise TypeError(
                        f"ColumnSelector expects a dict record, got {type(value)!r}"
                    )
                texts.append(value.get(column, ""))
            return ColumnBatch.from_rows(texts)
        # Per-record Python lists, then one array: a NumPy element assignment
        # per field costs twice as much as building the list.
        columns = self.columns
        gathered = []
        for value in rows:
            if not isinstance(value, dict):
                raise TypeError(f"ColumnSelector expects a dict record, got {type(value)!r}")
            get = value.get
            gathered.append(
                [0.0 if (field := get(column, 0.0)) is None else float(field) for column in columns]
            )
        matrix = np.array(gathered, dtype=np.float64).reshape(len(rows), len(columns))
        return ColumnBatch.from_matrix(matrix)

    def parameters(self) -> List[Parameter]:
        return [Parameter("selector.columns", {"columns": self.columns, "textual": self.textual})]

    def output_size(self) -> Optional[int]:
        return None if self.textual else len(self.columns)

    def _config(self) -> Dict[str, Any]:
        return {"columns": self.columns, "textual": self.textual}


class ConcatFeaturizer(Operator):
    """Concatenate the vectors produced by multiple upstream branches.

    This is an n-to-1 operator: it can only run once *all* of its inputs are
    available, so it breaks stage pipelining.  Following ML.Net's semantics
    (and the cost profile of Figure 5, where Concat is as expensive as the
    n-gram featurizers), the default behaviour materializes the full-width
    combined feature buffer; ``dense_output=False`` keeps the output sparse.
    Oven's ``PushLinearModelThroughConcat`` rule removes the operator -- and
    the buffer -- whenever the downstream model is a linear predictor.
    """

    name = "Concat"
    kind = OperatorKind.FEATURIZER
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.VECTOR
    annotations = Annotation.N_TO_ONE | Annotation.MEMORY_BOUND

    def __init__(self, input_sizes: Optional[Sequence[int]] = None, dense_output: bool = True):
        self.input_sizes = list(input_sizes) if input_sizes is not None else None
        self.dense_output = dense_output

    supports_batch = True

    def transform(self, value: Any) -> Vector:
        if not isinstance(value, (list, tuple)):
            raise TypeError("Concat expects a list of vectors (one per upstream branch)")
        combined = concat_vectors([as_vector(v) for v in value])
        if self.dense_output:
            return combined.to_dense()
        return combined

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Concatenate whole branch columns without building per-record vectors.

        The engine hands n-ary operators a *multi* column (one
        :class:`ColumnBatch` per upstream branch).  A sparse output over
        all-sparse branches is one CSR merge (indices shifted by the widths
        before them, ``indptr`` summed), keeping the sparsity exactly as the
        scalar path does.  Every other combination is dense in the scalar
        path too, and becomes one ``(n, total width)`` matrix: dense branches
        are copied in and sparse ones scattered straight from their CSR
        storage.  Only inputs that are not vector columns loop per record.
        """
        batch = as_column_batch(values)
        parts = batch.parts
        if parts and batch:
            if not self.dense_output:
                sparse = [part.sparse_csr() for part in parts]
                if all(csr is not None for csr in sparse):
                    return ColumnBatch.from_csr(*concat_csr(sparse))
            matrix = stack_columns(parts)
            if matrix is not None:
                return ColumnBatch.from_matrix(matrix)
        return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])

    def parameters(self) -> List[Parameter]:
        return [Parameter("concat.config", {"input_sizes": self.input_sizes})]

    def output_size(self) -> Optional[int]:
        if self.input_sizes is None:
            return None
        return int(sum(self.input_sizes))

    def _config(self) -> Dict[str, Any]:
        return {"input_sizes": self.input_sizes}


class MissingValueImputer(Operator):
    """Replace NaNs with per-feature means learned at training time."""

    name = "MissingValueImputer"
    kind = OperatorKind.FEATURIZER
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.VECTOR
    annotations = Annotation.ONE_TO_ONE | Annotation.MEMORY_BOUND

    def __init__(self, fill_values: Optional[np.ndarray] = None):
        self.fill_values = None if fill_values is None else np.asarray(fill_values, dtype=np.float64)

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        matrix = np.vstack([as_vector(r).to_numpy() for r in records])
        means = np.nanmean(matrix, axis=0)
        self.fill_values = np.where(np.isnan(means), 0.0, means)
        return self

    supports_batch = True

    def transform(self, value: Any) -> DenseVector:
        if self.fill_values is None:
            raise RuntimeError("MissingValueImputer used before fit()")
        arr = as_vector(value).to_numpy().copy()
        if arr.shape[0] != self.fill_values.shape[0]:
            raise ValueError(
                f"expected {self.fill_values.shape[0]} features, got {arr.shape[0]}"
            )
        mask = np.isnan(arr)
        if mask.any():
            arr[mask] = self.fill_values[mask]
        return DenseVector(arr)

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Impute the whole batch with one ``where`` over the stacked matrix."""
        if self.fill_values is None:
            raise RuntimeError("MissingValueImputer used before fit()")
        batch = as_column_batch(values)
        if not batch:
            return ColumnBatch.from_rows([])
        matrix = batch_matrix(batch)
        if matrix is None:
            return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])
        if matrix.shape[1] != self.fill_values.shape[0]:
            raise ValueError(
                f"expected {self.fill_values.shape[0]} features, got {matrix.shape[1]}"
            )
        return ColumnBatch.from_matrix(
            np.where(np.isnan(matrix), self.fill_values, matrix)
        )

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        if self.fill_values is not None:
            params.append(Parameter("imputer.fill_values", self.fill_values, owner=self))
        return params

    def output_size(self) -> Optional[int]:
        return None if self.fill_values is None else int(self.fill_values.shape[0])


class MinMaxNormalizer(Operator):
    """Scale each feature into [0, 1] using training minima/maxima."""

    name = "MinMaxNormalizer"
    kind = OperatorKind.FEATURIZER
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.VECTOR
    annotations = Annotation.ONE_TO_ONE | Annotation.MEMORY_BOUND | Annotation.VECTORIZABLE

    def __init__(self, minima: Optional[np.ndarray] = None, maxima: Optional[np.ndarray] = None):
        self.minima = None if minima is None else np.asarray(minima, dtype=np.float64)
        self.maxima = None if maxima is None else np.asarray(maxima, dtype=np.float64)

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        matrix = np.vstack([as_vector(r).to_numpy() for r in records])
        self.minima = np.nanmin(matrix, axis=0)
        self.maxima = np.nanmax(matrix, axis=0)
        return self

    def transform(self, value: Any) -> DenseVector:
        if self.minima is None or self.maxima is None:
            raise RuntimeError("MinMaxNormalizer used before fit()")
        arr = as_vector(value).to_numpy()
        span = self.maxima - self.minima
        safe_span = np.where(span == 0.0, 1.0, span)
        return DenseVector(np.clip((arr - self.minima) / safe_span, 0.0, 1.0))

    supports_batch = True

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Vectorized scaling: one clip over the stacked batch matrix."""
        if self.minima is None or self.maxima is None:
            raise RuntimeError("MinMaxNormalizer used before fit()")
        batch = as_column_batch(values)
        if not batch:
            return ColumnBatch.from_rows([])
        matrix = batch_matrix(batch)
        if matrix is None:
            return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])
        span = self.maxima - self.minima
        safe_span = np.where(span == 0.0, 1.0, span)
        scaled = np.clip((matrix - self.minima) / safe_span, 0.0, 1.0)
        return ColumnBatch.from_matrix(scaled)

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        if self.minima is not None:
            params.append(Parameter("minmax.minima", self.minima, owner=self))
        if self.maxima is not None:
            params.append(Parameter("minmax.maxima", self.maxima, owner=self))
        return params

    def output_size(self) -> Optional[int]:
        return None if self.minima is None else int(self.minima.shape[0])
