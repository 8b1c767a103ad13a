"""Operators introduced by Oven's rewriting rules.

These never appear in user-authored pipelines; they are synthesized when the
optimizer pushes a linear model through a ``Concat``: the model is split into
one :class:`PartialLinearScorer` per upstream branch (each computing a partial
dot product directly on its branch's feature vector) plus a single
:class:`MarginCombiner` that sums the partial margins and applies the model's
link function.  The ``Concat`` operator -- and the combined feature buffer it
would have materialized -- disappears from the plan.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.operators.base import Annotation, Operator, OperatorKind, Parameter, ValueKind
from repro.operators.batch import ColumnBatch, as_column_batch
from repro.operators.linear import (
    LinearModel,
    LinearRegressor,
    LogisticRegressionClassifier,
    PoissonRegressor,
    batch_margins,
)
from repro.operators.vectors import Vector, as_vector

__all__ = ["PartialLinearScorer", "MarginCombiner", "link_name_for_model", "LINK_FUNCTIONS"]


def _identity(margin: float) -> float:
    return margin


# The scalar links clamp with builtins: ``np.clip`` on one Python float costs
# several times the ``np.exp`` it guards, and clamps to the same value.
def _sigmoid(margin: float) -> float:
    return float(1.0 / (1.0 + np.exp(-min(max(margin, -30.0), 30.0))))


def _exp(margin: float) -> float:
    return float(np.exp(min(max(margin, -30.0), 30.0)))


LINK_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "identity": _identity,
    "sigmoid": _sigmoid,
    "exp": _exp,
}

#: vectorized counterparts evaluating the exact same expressions over a
#: whole margin array (the batch kernels' half of the contract)
ARRAY_LINK_FUNCTIONS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda margins: margins,
    "sigmoid": lambda margins: 1.0 / (1.0 + np.exp(-np.clip(margins, -30.0, 30.0))),
    "exp": lambda margins: np.exp(np.clip(margins, -30.0, 30.0)),
}


def link_name_for_model(model: LinearModel) -> str:
    """Which link function the combiner must apply for a given model class."""
    if isinstance(model, LogisticRegressionClassifier):
        return "sigmoid"
    if isinstance(model, PoissonRegressor):
        return "exp"
    if isinstance(model, (LinearRegressor, LinearModel)):
        return "identity"
    raise TypeError(f"unsupported linear model type {type(model).__name__}")


class PartialLinearScorer(Operator):
    """Partial dot product of one branch's feature vector against a weight slice."""

    name = "PartialLinear"
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

    def __init__(self, weights: np.ndarray, bias: float = 0.0, branch_index: int = 0):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.branch_index = int(branch_index)

    supports_batch = True

    def transform(self, value: Any) -> float:
        vec = value if isinstance(value, Vector) else as_vector(value)
        return vec.dot(self.weights) + self.bias

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Partial margins for the whole batch via the shared linear kernel
        (:func:`~repro.operators.linear.batch_margins`); the link is applied
        once downstream by the :class:`MarginCombiner`."""
        batch = as_column_batch(values)
        if not batch:
            return ColumnBatch.from_scalars(np.empty(0, dtype=np.float64))
        return ColumnBatch.from_scalars(batch_margins(batch, self.weights, self.bias))

    def parameters(self) -> List[Parameter]:
        return [
            Parameter(f"partiallinear.{self.branch_index}.weights", self.weights, owner=self),
            Parameter(f"partiallinear.{self.branch_index}.bias", self.bias),
        ]

    def output_size(self) -> Optional[int]:
        return 1

    def _config(self) -> Dict[str, Any]:
        return {"branch_index": self.branch_index}


class MarginCombiner(Operator):
    """Sum partial margins from several branches and apply the link function."""

    name = "MarginCombiner"
    kind = OperatorKind.PREDICTOR
    input_kind = ValueKind.SCALAR
    output_kind = ValueKind.SCALAR
    annotations = Annotation.N_TO_ONE | Annotation.COMPUTE_BOUND | Annotation.COMMUTATIVE

    def __init__(self, link: str = "identity", n_inputs: int = 2):
        if link not in LINK_FUNCTIONS:
            raise ValueError(f"unknown link function {link!r}")
        self.link = link
        self.n_inputs = int(n_inputs)
        self._link_fn = LINK_FUNCTIONS[link]

    supports_batch = True

    def transform(self, value: Any) -> float:
        if isinstance(value, (list, tuple)):
            margin = float(sum(float(v) for v in value))
        else:
            margin = float(value)
        return self._link_fn(margin)

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Sum the branch margin columns and apply the link once per batch."""
        batch = as_column_batch(values)
        if not batch:
            return ColumnBatch.from_scalars(np.empty(0, dtype=np.float64))
        parts = batch.parts
        if parts is not None:
            arrays = [part.scalar_array() for part in parts]
        else:
            arrays = [batch.scalar_array()]
        if any(array is None for array in arrays):
            return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])
        margins = arrays[0]
        # Left-to-right pairwise adds, matching the scalar sum() order.
        for array in arrays[1:]:
            margins = margins + array
        return ColumnBatch.from_scalars(ARRAY_LINK_FUNCTIONS[self.link](margins))

    def parameters(self) -> List[Parameter]:
        return [Parameter("margincombiner.config", {"link": self.link, "n_inputs": self.n_inputs})]

    def output_size(self) -> Optional[int]:
        return 1

    def _config(self) -> Dict[str, Any]:
        return {"link": self.link, "n_inputs": self.n_inputs}
