"""Linear predictors: linear, logistic and Poisson regression.

Linear models are the predictors at the end of the Sentiment Analysis
pipelines.  They matter to PRETZEL for two reasons:

* their weights are per-pipeline (unlike the shared n-gram dictionaries), so
  they are the part of each model plan that cannot be deduplicated; and
* the dot product is commutative/associative over concatenated inputs, which
  lets Oven *push the model through Concat*: the model is split into one
  partial dot product per upstream branch and the Concat buffer disappears.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.operators.base import Annotation, Operator, OperatorKind, Parameter, ValueKind
from repro.operators.batch import ColumnBatch, as_column_batch
from repro.operators.vectors import Vector, as_vector

__all__ = [
    "LinearModel",
    "LinearRegressor",
    "LogisticRegressionClassifier",
    "PoissonRegressor",
    "batch_margins",
]


def _design_matrix(records: Sequence[Any]) -> np.ndarray:
    return np.vstack([as_vector(record).to_numpy() for record in records])


def batch_margins(batch: ColumnBatch, weights: np.ndarray, bias: float) -> np.ndarray:
    """Raw margins ``w . x + b`` for one non-empty column of feature vectors.

    The shared linear batch kernel (used by :class:`LinearModel` and the
    optimizer's split ``PartialLinearScorer``): one matrix product for dense
    batches.  Sparse batches are never densified (a dictionary-wide matrix
    costs more than it saves): one gather ``weights[indices] * data`` over
    the CSR storage and one segmented ``np.add.reduceat`` over the non-empty
    records give every margin -- the per-record dot products summed in a
    different order, hence the oracle's reduction tolerance.
    """
    matrix = batch.dense_matrix()
    if matrix is not None:
        if matrix.shape[1] != weights.shape[0]:
            raise ValueError(
                f"weight length {weights.shape[0]} != vector size {matrix.shape[1]}"
            )
        return matrix @ weights + bias
    csr = batch.sparse_csr()
    if csr is not None:
        indptr, indices, data, width = csr
        if width != weights.shape[0]:
            raise ValueError(f"weight length {weights.shape[0]} != vector size {width}")
        margins = np.zeros(indptr.size - 1, dtype=np.float64)
        starts = indptr[:-1]
        nonempty = starts < indptr[1:]
        if indices.size:
            # Consecutive non-empty starts delimit exactly one record's
            # products; empty records keep their zero.
            margins[nonempty] = np.add.reduceat(weights[indices] * data, starts[nonempty])
        return margins + bias
    vectors = [
        value if isinstance(value, Vector) else as_vector(value) for value in batch.rows
    ]
    return np.array([vector.dot(weights) + bias for vector in vectors])


class LinearModel(Operator):
    """Shared machinery for models of the form ``link(w . x + b)``."""

    kind = OperatorKind.PREDICTOR
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.SCALAR
    annotations = (
        Annotation.ONE_TO_ONE
        | Annotation.COMPUTE_BOUND
        | Annotation.COMMUTATIVE
        | Annotation.ASSOCIATIVE
        | Annotation.VECTORIZABLE
    )

    def __init__(
        self,
        weights: Optional[np.ndarray] = None,
        bias: float = 0.0,
        l2: float = 1e-4,
        learning_rate: float = 0.1,
        epochs: int = 20,
        seed: int = 0,
    ):
        self.weights = None if weights is None else np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.l2 = float(l2)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.seed = int(seed)

    # -- link / loss ------------------------------------------------------

    def _link(self, margin: np.ndarray) -> np.ndarray:
        """Map raw margins to predictions."""
        return margin

    def _gradient_scale(self, margin: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """d loss / d margin for the model's canonical loss."""
        return self._link(margin) - labels

    # -- training ---------------------------------------------------------

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        if labels is None:
            raise ValueError(f"{self.name} requires labels to fit")
        X = _design_matrix(records)
        y = np.asarray(labels, dtype=np.float64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("number of records and labels differ")
        rng = np.random.default_rng(self.seed)
        n_samples, n_features = X.shape
        weights = np.zeros(n_features, dtype=np.float64)
        bias = 0.0
        indices = np.arange(n_samples)
        for epoch in range(self.epochs):
            rng.shuffle(indices)
            lr = self.learning_rate / (1.0 + 0.1 * epoch)
            for start in range(0, n_samples, 64):
                batch = indices[start : start + 64]
                margin = X[batch] @ weights + bias
                grad_scale = self._gradient_scale(margin, y[batch])
                grad_w = X[batch].T @ grad_scale / batch.size + self.l2 * weights
                grad_b = float(np.mean(grad_scale))
                weights -= lr * grad_w
                bias -= lr * grad_b
        self.weights = weights
        self.bias = float(bias)
        return self

    # -- inference --------------------------------------------------------

    def decision_value(self, value: Any) -> float:
        """Raw margin ``w . x + b`` for a single record."""
        if self.weights is None:
            raise RuntimeError(f"{self.name} used before fit()")
        vec = value if isinstance(value, Vector) else as_vector(value)
        return vec.dot(self.weights) + self.bias

    def transform(self, value: Any) -> float:
        margin = self.decision_value(value)
        return float(self._link(np.asarray(margin)))

    supports_batch = True

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Vectorized batch scoring: shared margins kernel + one link pass."""
        if self.weights is None:
            raise RuntimeError(f"{self.name} used before fit()")
        batch = as_column_batch(values)
        if not batch:
            return ColumnBatch.from_scalars(np.empty(0, dtype=np.float64))
        return ColumnBatch.from_scalars(
            self._link(batch_margins(batch, self.weights, self.bias))
        )

    # -- model splitting (push-through-Concat) ----------------------------

    def split(self, sizes: Sequence[int]) -> List["LinearModel"]:
        """Split the weight vector into per-branch partial models.

        ``sizes`` are the output sizes of the upstream branches feeding the
        Concat this model consumed.  The first partial model keeps the bias;
        summing the partial margins reproduces the original margin exactly.
        """
        if self.weights is None:
            raise RuntimeError("cannot split an unfitted model")
        if sum(sizes) != self.weights.shape[0]:
            raise ValueError(
                f"branch sizes {list(sizes)} do not sum to weight length {self.weights.shape[0]}"
            )
        parts: List[LinearModel] = []
        offset = 0
        for position, size in enumerate(sizes):
            segment = self.weights[offset : offset + size]
            part = type(self)(weights=segment.copy(), bias=self.bias if position == 0 else 0.0)
            parts.append(part)
            offset += size
        return parts

    # -- bookkeeping ------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        if self.weights is not None:
            params.append(Parameter(f"{self.name.lower()}.weights", self.weights, owner=self))
            params.append(Parameter(f"{self.name.lower()}.bias", self.bias))
        return params

    def output_size(self) -> Optional[int]:
        return 1

    def _config(self) -> Dict[str, Any]:
        return {"l2": self.l2, "epochs": self.epochs}


class LinearRegressor(LinearModel):
    """Ordinary least-squares style linear regression (identity link)."""

    name = "LinearRegression"

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        if labels is None:
            raise ValueError("LinearRegression requires labels to fit")
        X = _design_matrix(records)
        y = np.asarray(labels, dtype=np.float64)
        n_features = X.shape[1]
        # Closed-form ridge regression: stable and fast for our feature counts.
        augmented = np.hstack([X, np.ones((X.shape[0], 1))])
        gram = augmented.T @ augmented + self.l2 * np.eye(n_features + 1)
        solution = np.linalg.solve(gram, augmented.T @ y)
        self.weights = solution[:-1]
        self.bias = float(solution[-1])
        return self


class LogisticRegressionClassifier(LinearModel):
    """Binary logistic regression returning the positive-class probability."""

    name = "LogisticRegression"

    def _link(self, margin: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(margin, -30.0, 30.0)))

    def predict_label(self, value: Any, threshold: float = 0.5) -> int:
        return int(self.transform(value) >= threshold)


class PoissonRegressor(LinearModel):
    """Poisson regression with a log link, used by count-style AC pipelines."""

    name = "PoissonRegression"

    def _link(self, margin: np.ndarray) -> np.ndarray:
        return np.exp(np.clip(margin, -30.0, 30.0))

    def _gradient_scale(self, margin: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return np.exp(np.clip(margin, -30.0, 30.0)) - labels
