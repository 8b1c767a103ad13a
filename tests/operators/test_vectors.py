"""Unit and property-based tests for dense/sparse vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.vectors import DenseVector, SparseVector, as_vector, concat_vectors


class TestDenseVector:
    def test_basic_properties(self):
        vec = DenseVector([1.0, 2.0, 3.0])
        assert vec.size == 3
        assert vec.nbytes == 3 * 8
        assert vec.nnz() == 3
        assert vec.norm2() == pytest.approx(np.sqrt(14.0))

    def test_dot(self):
        vec = DenseVector([1.0, 2.0, 3.0])
        assert vec.dot(np.array([1.0, 1.0, 1.0])) == pytest.approx(6.0)

    def test_dot_size_mismatch(self):
        with pytest.raises(ValueError):
            DenseVector([1.0, 2.0]).dot(np.array([1.0]))

    def test_scale_returns_new_vector(self):
        vec = DenseVector([1.0, -2.0])
        scaled = vec.scale(2.0)
        assert scaled.values.tolist() == [2.0, -4.0]
        assert vec.values.tolist() == [1.0, -2.0]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            DenseVector(np.zeros((2, 2)))

    def test_equality(self):
        assert DenseVector([1.0, 2.0]) == DenseVector([1.0, 2.0])
        assert DenseVector([1.0, 2.0]) != DenseVector([1.0, 3.0])


class TestSparseVector:
    def test_basic_properties(self):
        vec = SparseVector([1, 4], [2.0, 3.0], size=6)
        assert vec.size == 6
        assert vec.nnz() == 2
        assert vec.to_dense().values.tolist() == [0.0, 2.0, 0.0, 0.0, 3.0, 0.0]

    def test_indices_sorted_on_construction(self):
        vec = SparseVector([4, 1], [3.0, 2.0], size=6)
        assert vec.indices.tolist() == [1, 4]
        assert vec.values.tolist() == [2.0, 3.0]

    def test_duplicate_indices_merged(self):
        vec = SparseVector([2, 2, 5], [1.0, 3.0, 1.0], size=6)
        assert vec.indices.tolist() == [2, 5]
        assert vec.values.tolist() == [4.0, 1.0]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([7], [1.0], size=6)
        with pytest.raises(ValueError):
            SparseVector([-1], [1.0], size=6)

    def test_dot_matches_dense(self):
        weights = np.arange(6, dtype=np.float64)
        vec = SparseVector([0, 3, 5], [1.0, 2.0, 3.0], size=6)
        assert vec.dot(weights) == pytest.approx(vec.to_dense().dot(weights))

    def test_empty_sparse_dot(self):
        vec = SparseVector([], [], size=4)
        assert vec.dot(np.ones(4)) == 0.0
        assert vec.nnz() == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([1, 2], [1.0], size=5)


class TestConcat:
    def test_concat_dense(self):
        result = concat_vectors([DenseVector([1.0]), DenseVector([2.0, 3.0])])
        assert isinstance(result, DenseVector)
        assert result.values.tolist() == [1.0, 2.0, 3.0]

    def test_concat_sparse_stays_sparse(self):
        a = SparseVector([0], [1.0], size=3)
        b = SparseVector([1], [2.0], size=4)
        result = concat_vectors([a, b])
        assert isinstance(result, SparseVector)
        assert result.size == 7
        assert result.to_dense().values.tolist() == [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0]

    def test_concat_sparse_equals_the_validating_constructor(self):
        parts = [
            SparseVector([0, 2], [1.0, -2.0], size=3),
            SparseVector([], [], size=5),
            SparseVector([0, 3], [0.5, 4.0], size=4),
            SparseVector([1], [7.0], size=2),
        ]
        result = concat_vectors(parts)
        expected = SparseVector([0, 2, 8, 11, 13], [1.0, -2.0, 0.5, 4.0, 7.0], size=14)
        assert result.size == expected.size
        assert result.indices.dtype == np.int64 and result.values.dtype == np.float64
        assert result.indices.tobytes() == expected.indices.tobytes()
        assert result.values.tobytes() == expected.values.tobytes()

    def test_concat_mixed_densifies(self):
        result = concat_vectors([SparseVector([0], [1.0], size=2), DenseVector([5.0])])
        assert isinstance(result, DenseVector)
        assert result.size == 3

    def test_concat_single_vector_passthrough(self):
        vec = DenseVector([1.0])
        assert concat_vectors([vec]) is vec

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat_vectors([])

    def test_as_vector(self):
        assert isinstance(as_vector([1.0, 2.0]), DenseVector)
        vec = SparseVector([0], [1.0], size=2)
        assert as_vector(vec) is vec


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
)
def test_dense_roundtrip_property(values):
    """Dense vectors round-trip through numpy without loss."""
    vec = DenseVector(values)
    assert vec.to_numpy().tolist() == pytest.approx(values)
    assert vec.size == len(values)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), size=st.integers(1, 60))
def test_sparse_dense_dot_equivalence_property(data, size):
    """Sparse dot products always equal the dense equivalent."""
    n_entries = data.draw(st.integers(0, size))
    indices = data.draw(
        st.lists(st.integers(0, size - 1), min_size=n_entries, max_size=n_entries)
    )
    values = data.draw(
        st.lists(st.floats(-100, 100), min_size=n_entries, max_size=n_entries)
    )
    weights = np.asarray(
        data.draw(st.lists(st.floats(-10, 10), min_size=size, max_size=size))
    )
    sparse = SparseVector(indices, values, size=size)
    assert sparse.dot(weights) == pytest.approx(sparse.to_dense().dot(weights), rel=1e-9, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 10), min_size=1, max_size=5),
    seed=st.integers(0, 1000),
)
def test_concat_preserves_total_size_and_values_property(sizes, seed):
    """Concatenation preserves total dimensionality and per-branch content."""
    rng = np.random.default_rng(seed)
    vectors = [DenseVector(rng.normal(size=size)) for size in sizes]
    combined = concat_vectors(vectors)
    assert combined.size == sum(sizes)
    expected = np.concatenate([v.to_numpy() for v in vectors])
    assert np.allclose(combined.to_numpy(), expected)
