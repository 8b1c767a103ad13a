"""KMeans clustering, used as a featurization step by the AC pipelines."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.operators.base import Annotation, Operator, OperatorKind, Parameter, ValueKind
from repro.operators.batch import ColumnBatch, as_column_batch, batch_matrix
from repro.operators.vectors import DenseVector, as_vector

__all__ = ["KMeans"]


class KMeans(Operator):
    """Lloyd's algorithm KMeans; at inference time emits cluster distances.

    The output is the vector of (negated, shifted) distances to each centroid
    rather than just the arg-min cluster id, so downstream models receive a
    smooth feature -- this matches how ML.Net's KMeans featurization is used
    inside ensembles.
    """

    name = "KMeans"
    kind = OperatorKind.FEATURIZER
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.VECTOR
    annotations = Annotation.ONE_TO_ONE | Annotation.COMPUTE_BOUND | Annotation.VECTORIZABLE

    def __init__(
        self,
        n_clusters: int = 4,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
        seed: int = 0,
        centroids: Optional[np.ndarray] = None,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = int(n_clusters)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.seed = int(seed)
        self.centroids = None if centroids is None else np.asarray(centroids, dtype=np.float64)

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        X = np.vstack([as_vector(r).to_numpy() for r in records])
        n_samples = X.shape[0]
        if n_samples < self.n_clusters:
            raise ValueError(
                f"need at least {self.n_clusters} samples to fit {self.n_clusters} clusters"
            )
        rng = np.random.default_rng(self.seed)
        # k-means++ style seeding: first centroid uniform, the rest weighted
        # by squared distance to the closest centroid chosen so far.
        centroids = [X[rng.integers(0, n_samples)]]
        for _ in range(1, self.n_clusters):
            distances = np.min(
                np.stack([np.sum((X - c) ** 2, axis=1) for c in centroids]), axis=0
            )
            total = float(distances.sum())
            if total <= 0.0:
                centroids.append(X[rng.integers(0, n_samples)])
                continue
            probabilities = distances / total
            centroids.append(X[rng.choice(n_samples, p=probabilities)])
        centers = np.vstack(centroids)
        for _ in range(self.max_iterations):
            distances = np.linalg.norm(X[:, None, :] - centers[None, :, :], axis=2)
            assignment = np.argmin(distances, axis=1)
            new_centers = centers.copy()
            for cluster in range(self.n_clusters):
                members = X[assignment == cluster]
                if members.shape[0]:
                    new_centers[cluster] = members.mean(axis=0)
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if shift < self.tolerance:
                break
        self.centroids = centers
        return self

    supports_batch = True

    def transform(self, value: Any) -> DenseVector:
        if self.centroids is None:
            raise RuntimeError("KMeans used before fit()")
        features = as_vector(value).to_numpy()
        distances = np.linalg.norm(self.centroids - features[None, :], axis=1)
        return DenseVector(distances)

    def transform_batch(self, values: Any) -> ColumnBatch:
        """All records' centroid distances from one broadcast norm."""
        if self.centroids is None:
            raise RuntimeError("KMeans used before fit()")
        batch = as_column_batch(values)
        if not batch:
            return ColumnBatch.from_rows([])
        matrix = batch_matrix(batch)
        if matrix is None:
            return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])
        distances = np.linalg.norm(
            self.centroids[None, :, :] - matrix[:, None, :], axis=2
        )
        return ColumnBatch.from_matrix(distances)

    def predict_cluster(self, value: Any) -> int:
        return int(np.argmin(self.transform(value).values))

    def parameters(self) -> List[Parameter]:
        params = [
            Parameter("kmeans.config", {"n_clusters": self.n_clusters, "seed": self.seed})
        ]
        if self.centroids is not None:
            params.append(Parameter("kmeans.centroids", self.centroids, owner=self))
        return params

    def output_size(self) -> Optional[int]:
        return self.n_clusters

    def _config(self) -> Dict[str, Any]:
        return {"n_clusters": self.n_clusters, "seed": self.seed}
