"""Principal Components Analysis, the dimensionality-reduction step of AC pipelines."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.operators.base import Annotation, Operator, OperatorKind, Parameter, ValueKind
from repro.operators.batch import ColumnBatch, as_column_batch, batch_matrix
from repro.operators.vectors import DenseVector, as_vector

__all__ = ["PCA"]


class PCA(Operator):
    """Project dense vectors onto the top-``n_components`` principal axes."""

    name = "PCA"
    kind = OperatorKind.FEATURIZER
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.VECTOR
    annotations = Annotation.ONE_TO_ONE | Annotation.COMPUTE_BOUND | Annotation.VECTORIZABLE

    def __init__(
        self,
        n_components: int = 8,
        mean: Optional[np.ndarray] = None,
        components: Optional[np.ndarray] = None,
    ):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = int(n_components)
        self.mean = None if mean is None else np.asarray(mean, dtype=np.float64)
        self.components = None if components is None else np.asarray(components, dtype=np.float64)
        self.explained_variance: Optional[np.ndarray] = None

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        X = np.vstack([as_vector(r).to_numpy() for r in records])
        if X.shape[1] < self.n_components:
            raise ValueError(
                f"cannot extract {self.n_components} components from {X.shape[1]} features"
            )
        self.mean = X.mean(axis=0)
        centered = X - self.mean
        _u, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        self.components = vt[: self.n_components]
        denom = max(X.shape[0] - 1, 1)
        self.explained_variance = (singular_values[: self.n_components] ** 2) / denom
        return self

    supports_batch = True

    def transform(self, value: Any) -> DenseVector:
        if self.mean is None or self.components is None:
            raise RuntimeError("PCA used before fit()")
        features = as_vector(value).to_numpy()
        projected = self.components @ (features - self.mean)
        return DenseVector(projected)

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Project the whole batch with one centered matrix product."""
        if self.mean is None or self.components is None:
            raise RuntimeError("PCA used before fit()")
        batch = as_column_batch(values)
        if not batch:
            return ColumnBatch.from_rows([])
        matrix = batch_matrix(batch)
        if matrix is None:
            return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])
        projected = (matrix - self.mean) @ self.components.T
        return ColumnBatch.from_matrix(projected)

    def parameters(self) -> List[Parameter]:
        params = [Parameter("pca.config", {"n_components": self.n_components})]
        if self.mean is not None:
            params.append(Parameter("pca.mean", self.mean, owner=self))
        if self.components is not None:
            params.append(Parameter("pca.components", self.components, owner=self))
        return params

    def output_size(self) -> Optional[int]:
        return self.n_components

    def _config(self) -> Dict[str, Any]:
        return {"n_components": self.n_components}
