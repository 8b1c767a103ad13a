"""Dense and sparse feature vectors.

ML.Net operators exchange immutable data vectors.  This module provides the two
concrete vector representations used throughout the repository together with
the small set of kernels (dot products, concatenation, scaling) the operators
need.  Vectors know their own memory footprint so the telemetry layer can
account for buffers precisely.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Union

import numpy as np

__all__ = [
    "Vector",
    "DenseVector",
    "SparseVector",
    "concat_vectors",
    "as_vector",
    "vector_from_json",
]

#: the key that marks a vector's JSON form (:meth:`Vector.to_json`)
JSON_TAG = "__vector__"


class Vector:
    """Abstract feature vector.

    Concrete subclasses are :class:`DenseVector` and :class:`SparseVector`.
    Vectors are logically immutable: operators produce new vectors rather than
    mutating their inputs, mirroring ML.Net's immutable ``VBuffer`` semantics.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        """Logical dimensionality of the vector."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the backing buffers in bytes."""
        raise NotImplementedError

    def to_dense(self) -> "DenseVector":
        raise NotImplementedError

    def to_numpy(self) -> np.ndarray:
        raise NotImplementedError

    def dot(self, weights: np.ndarray) -> float:
        """Dot product against a dense weight array of length ``size``."""
        raise NotImplementedError

    def norm2(self) -> float:
        """Euclidean norm."""
        raise NotImplementedError

    def scale(self, factor: float) -> "Vector":
        """Return a new vector scaled by ``factor``."""
        raise NotImplementedError

    def nnz(self) -> int:
        """Number of explicitly stored (possibly non-zero) entries."""
        raise NotImplementedError

    def to_json(self) -> Dict[str, Any]:
        """A JSON object :func:`vector_from_json` turns back into an equal vector.

        Values travel as Python floats, which JSON round-trips exactly.
        """
        raise NotImplementedError


class DenseVector(Vector):
    """A dense vector backed by a 1-D ``float64`` numpy array."""

    __slots__ = ("values",)

    def __init__(self, values: Union[np.ndarray, Sequence[float]]):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"DenseVector requires a 1-D array, got shape {arr.shape}")
        self.values = arr

    @property
    def size(self) -> int:
        return int(self.values.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes)

    def to_dense(self) -> "DenseVector":
        return self

    def to_numpy(self) -> np.ndarray:
        return self.values

    def dot(self, weights: np.ndarray) -> float:
        if weights.shape[0] != self.size:
            raise ValueError(
                f"weight length {weights.shape[0]} != vector size {self.size}"
            )
        return float(np.dot(self.values, weights))

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))

    def scale(self, factor: float) -> "DenseVector":
        return DenseVector(self.values * factor)

    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def to_json(self) -> Dict[str, Any]:
        return {JSON_TAG: "dense", "values": self.values.tolist()}

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"DenseVector(size={self.size})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseVector)
            and self.size == other.size
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self) -> int:  # pragma: no cover - vectors are rarely hashed
        return hash(self.values.tobytes())


class SparseVector(Vector):
    """A sparse vector stored as parallel ``(indices, values)`` arrays.

    Indices are sorted and unique; this invariant is established at
    construction time so downstream kernels can rely on it.
    """

    __slots__ = ("indices", "values", "_size")

    def __init__(
        self,
        indices: Union[np.ndarray, Sequence[int]],
        values: Union[np.ndarray, Sequence[float]],
        size: int,
    ):
        idx = np.asarray(indices, dtype=np.int64)
        val = np.asarray(values, dtype=np.float64)
        if idx.shape != val.shape:
            raise ValueError(
                f"indices shape {idx.shape} and values shape {val.shape} differ"
            )
        if idx.ndim != 1:
            raise ValueError("SparseVector requires 1-D index/value arrays")
        if size < 0:
            raise ValueError("size must be non-negative")
        if idx.size:
            if int(idx.min()) < 0 or int(idx.max()) >= size:
                raise ValueError("indices out of bounds for declared size")
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
            val = val[order]
            # Merge duplicate indices by summing their values.
            if idx.size > 1 and np.any(np.diff(idx) == 0):
                unique, inverse = np.unique(idx, return_inverse=True)
                summed = np.zeros(unique.shape[0], dtype=np.float64)
                np.add.at(summed, inverse, val)
                idx, val = unique, summed
        self.indices = idx
        self.values = val
        self._size = int(size)

    @classmethod
    def from_sorted(cls, indices: np.ndarray, values: np.ndarray, size: int) -> "SparseVector":
        """Wrap arrays that already hold the invariant, without re-establishing it.

        For kernels whose indices are strictly increasing and in bounds *by
        construction* (int64 indices, float64 values, equal 1-D shapes): the
        validating constructor's min/max/argsort/diff passes cost more than
        such a kernel's own work on a single record.
        """
        vector = cls.__new__(cls)
        vector.indices = indices
        vector.values = values
        vector._size = int(size)
        return vector

    @property
    def size(self) -> int:
        return self._size

    @property
    def nbytes(self) -> int:
        return int(self.indices.nbytes + self.values.nbytes)

    def to_dense(self) -> DenseVector:
        dense = np.zeros(self._size, dtype=np.float64)
        dense[self.indices] = self.values
        return DenseVector(dense)

    def to_numpy(self) -> np.ndarray:
        return self.to_dense().values

    def dot(self, weights: np.ndarray) -> float:
        if weights.shape[0] != self._size:
            raise ValueError(
                f"weight length {weights.shape[0]} != vector size {self._size}"
            )
        if not self.indices.size:
            return 0.0
        return float(np.dot(weights[self.indices], self.values))

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))

    def scale(self, factor: float) -> "SparseVector":
        return SparseVector(self.indices.copy(), self.values * factor, self._size)

    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def to_json(self) -> Dict[str, Any]:
        return {
            JSON_TAG: "sparse",
            "size": self._size,
            "indices": self.indices.tolist(),
            "values": self.values.tolist(),
        }

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"SparseVector(size={self._size}, nnz={self.nnz()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseVector)
            and self._size == other._size
            and bool(np.array_equal(self.indices, other.indices))
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self) -> int:  # pragma: no cover
        return hash((self._size, self.indices.tobytes(), self.values.tobytes()))


def vector_from_json(form: Dict[str, Any]) -> Vector:
    """The vector whose :meth:`Vector.to_json` is ``form`` (validated)."""
    kind = form[JSON_TAG]
    if kind == "dense":
        return DenseVector(form["values"])
    if kind == "sparse":
        return SparseVector(form["indices"], form["values"], int(form["size"]))
    raise ValueError(f"unknown vector form {kind!r}")


def as_vector(value: Union[Vector, np.ndarray, Sequence[float]]) -> Vector:
    """Coerce numpy arrays / sequences into a :class:`DenseVector`."""
    if isinstance(value, Vector):
        return value
    return DenseVector(np.asarray(value, dtype=np.float64))


def concat_vectors(vectors: Iterable[Vector]) -> Vector:
    """Concatenate vectors, preserving sparsity when every input is sparse.

    This is the kernel behind the ``Concat`` featurizer.  PRETZEL's optimizer
    tries hard to *remove* this operation (by pushing linear models through
    it); the black-box baselines always execute it and pay for the combined
    buffer.
    """
    vecs: List[Vector] = list(vectors)
    if not vecs:
        raise ValueError("cannot concatenate zero vectors")
    if len(vecs) == 1:
        return vecs[0]
    total = sum(v.size for v in vecs)
    if all(isinstance(v, SparseVector) for v in vecs):
        indices: List[np.ndarray] = []
        values: List[np.ndarray] = []
        offset = 0
        for vec in vecs:
            assert isinstance(vec, SparseVector)
            indices.append(vec.indices + offset)
            values.append(vec.values)
            offset += vec.size
        # Each input is sorted and in bounds and its band starts where the
        # previous one ends, so the concatenation holds the invariant too.
        return SparseVector.from_sorted(np.concatenate(indices), np.concatenate(values), total)
    dense_parts = [v.to_numpy() for v in vecs]
    return DenseVector(np.concatenate(dense_parts))
