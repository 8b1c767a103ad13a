"""The ``gemm`` backend: single-matmul linear margins and KMeans distances.

* The linear families (:class:`PartialLinearScorer`, and the unsplit
  :class:`LinearModel` families) run the shared
  :func:`~repro.operators.linear.batch_margins` kernel: one GEMV for dense
  batches and, over a sparse column's CSR storage, one gather
  ``weights[indices] * data`` plus one segmented ``np.add.reduceat``.  That
  kernel is now also every linear family's reference kernel, so these
  entries add nothing of their own; they stay registered until the
  selection machinery is retired.
* :class:`KMeans`' reference kernel broadcasts a ``(n, k, d)`` difference
  tensor to take norms.  The gemm kernel uses the classic expansion
  ``|x - c|^2 = |x|^2 - 2 x.c + |c|^2``, replacing the 3-D broadcast with one
  ``(n, d) @ (d, k)`` GEMM.

Both kernels reorder floating-point reductions (BLAS accumulation order vs
per-record loops), so they register with ``exact=False`` -- the same
relative-tolerance carve-out the reference kernels of these families already
need against the scalar oracle.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.operators.backends import register_backend, register_kernel
from repro.operators.batch import ColumnBatch, as_column_batch, batch_matrix
from repro.operators.linear import batch_margins

register_backend(
    "gemm",
    description="single-matmul margins for (sparse) linear stages and KMeans distances",
)


def _margins(values: Any, weights: np.ndarray, bias: float) -> np.ndarray:
    batch = as_column_batch(values)
    if not batch:
        return np.empty(0, dtype=np.float64)
    return batch_margins(batch, weights, bias)


@register_kernel("PartialLinear", "gemm", exact=False)
def partial_linear_gemm(operator: Any, values: Any) -> ColumnBatch:
    """Every branch margin of the batch from one GEMV or one segmented reduce."""
    return ColumnBatch.from_scalars(_margins(values, operator.weights, operator.bias))


def _linear_model_gemm(operator: Any, values: Any) -> ColumnBatch:
    if operator.weights is None:
        raise RuntimeError(f"{operator.name} used before fit()")
    return ColumnBatch.from_scalars(
        operator._link(_margins(values, operator.weights, operator.bias))
    )


@register_kernel("LinearRegression", "gemm", exact=False)
def linear_regression_gemm(operator: Any, values: Any) -> ColumnBatch:
    """Unsplit linear scoring: shared margins kernel + one link pass."""
    return _linear_model_gemm(operator, values)


@register_kernel("LogisticRegression", "gemm", exact=False)
def logistic_regression_gemm(operator: Any, values: Any) -> ColumnBatch:
    """Same margins kernel; the sigmoid link is applied once per batch."""
    return _linear_model_gemm(operator, values)


@register_kernel("PoissonRegression", "gemm", exact=False)
def poisson_regression_gemm(operator: Any, values: Any) -> ColumnBatch:
    """Same margins kernel; the exp link is applied once per batch."""
    return _linear_model_gemm(operator, values)


@register_kernel("KMeans", "gemm", exact=False)
def kmeans_gemm(operator: Any, values: Any) -> ColumnBatch:
    """Centroid distances via ``|x|^2 - 2 x.c + |c|^2`` -- one GEMM, no 3-D tensor."""
    if operator.centroids is None:
        raise RuntimeError("KMeans used before fit()")
    batch = as_column_batch(values)
    if not batch:
        return ColumnBatch.from_rows([])
    matrix = batch_matrix(batch)
    centroids = operator.centroids
    if matrix is None or matrix.shape[1] != centroids.shape[1]:
        return operator.transform_batch(batch)
    squared = (
        np.sum(matrix * matrix, axis=1)[:, None]
        - 2.0 * (matrix @ centroids.T)
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    # The expansion can go a hair negative where a record sits on a centroid.
    np.maximum(squared, 0.0, out=squared)
    return ColumnBatch.from_matrix(np.sqrt(squared))
