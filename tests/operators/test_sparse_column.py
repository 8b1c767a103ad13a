"""Sparse batches as CSR columns: the ``sparse`` ColumnBatch kind.

A CSR column must be indistinguishable from the row list of sparse vectors
it stands for (same rows, same CSR arrays, same densified matrix), and every
kernel that emits or consumes it must agree with the scalar ``transform``:
bit-equal for the featurizers and ``Concat``, within the reduction
tolerance (``rtol=1e-9, atol=1e-12``) for linear margins.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oven.rewrite_ops import PartialLinearScorer
from repro.operators import (
    CharNgramFeaturizer,
    ConcatFeaturizer,
    DenseVector,
    LogisticRegressionClassifier,
    SparseVector,
    Tokenizer,
    TreeFeaturizer,
    WordNgramFeaturizer,
)
from repro.operators.batch import ColumnBatch, batch_matrix
from repro.workloads.text_data import generate_reviews

SIZES = (1, 15, 16, 17, 100, 256)


def _random_rows(n, width, density, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        mask = rng.random(width) < density
        indices = np.flatnonzero(mask)
        rows.append(SparseVector(indices, rng.normal(size=indices.size), width))
    return rows


def _csr_of(rows, width):
    indptr = np.concatenate(([0], np.cumsum([row.indices.size for row in rows])))
    indices = np.concatenate([row.indices for row in rows] + [np.empty(0, np.int64)])
    data = np.concatenate([row.values for row in rows] + [np.empty(0)])
    return indptr, indices, data, width


def _assert_same_csr(left, right):
    assert left[3] == right[3]
    for a, b in zip(left[:3], right[:3]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 17, 256]),
    width=st.integers(min_value=0, max_value=40),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_csr_column_round_trips_to_and_from_rows(n, width, density, seed):
    """Empty records, all-empty batches (density 0) and width-0 batches included."""
    rows = _random_rows(n, width, density, seed)
    column = ColumnBatch.from_csr(*_csr_of(rows, width))
    listed = ColumnBatch.from_rows(rows)
    assert column.kind == "sparse" and len(column) == n and column.width == width
    # CSR -> rows: the lazy views equal the validated vectors
    assert column.rows == rows
    assert all(type(row) is SparseVector for row in column.rows)
    # rows -> CSR, both from the original vectors and from the views
    _assert_same_csr(listed.sparse_csr(), column.sparse_csr())
    _assert_same_csr(ColumnBatch.from_rows(column.rows).sparse_csr(), column.sparse_csr())
    # the dense views agree: no zero-copy matrix, the same densified one
    assert column.dense_matrix() is None and listed.dense_matrix() is None
    expected = np.zeros((n, width))
    for index, row in enumerate(rows):
        expected[index] = row.to_numpy()
    assert batch_matrix(column).tobytes() == expected.tobytes()
    assert batch_matrix(listed).tobytes() == expected.tobytes()
    # a prefix keeps the storage kind and the rows
    prefix = column.head(n // 2)
    assert prefix.kind == "sparse" and prefix.rows == rows[: n // 2]


def test_from_csr_rejects_mismatched_arrays():
    with pytest.raises(ValueError):
        ColumnBatch.from_csr(np.array([0, 2]), np.array([0, 1]), np.array([1.0]), 4)


def test_mixed_or_ragged_rows_have_no_csr_form():
    sparse = SparseVector([1], [2.0], 4)
    assert ColumnBatch.from_rows([sparse, DenseVector([1.0, 2.0, 3.0, 4.0])]).sparse_csr() is None
    assert ColumnBatch.from_rows([sparse, SparseVector([0], [1.0], 5)]).sparse_csr() is None
    assert ColumnBatch.from_rows([]).sparse_csr() is None


# -- batch-vs-scalar at the engine's batch sizes -----------------------------


@pytest.fixture(scope="module")
def tokens():
    corpus = generate_reviews(n_reviews=256, vocabulary_size=300, mean_length=16, seed=17)
    tokenizer = Tokenizer()
    token_lists = [tokenizer.transform(text) for text in corpus.texts]
    token_lists[3] = []  # an empty record in every batch of four or more
    return token_lists


@pytest.fixture(scope="module")
def dense_rows():
    rng = np.random.default_rng(29)
    return [DenseVector(row) for row in rng.normal(size=(256, 8))]


@pytest.fixture(scope="module")
def featurizers(tokens, dense_rows):
    labels = np.random.default_rng(31).normal(size=len(dense_rows))
    built = {
        "CharNgram": CharNgramFeaturizer(ngram_range=(2, 3), max_features=250).fit(tokens),
        "TreeFeaturizer": TreeFeaturizer(n_trees=5, max_depth=4, seed=3).fit(
            dense_rows, labels
        ),
    }
    for weighting in ("count", "binary", "tf"):
        built[f"WordNgram[{weighting}]"] = WordNgramFeaturizer(
            ngram_range=(1, 2), max_features=150, weighting=weighting
        ).fit(tokens)
    return built


def _inputs(name, tokens, dense_rows):
    return dense_rows if name == "TreeFeaturizer" else tokens


def _bit_equal(batch_row, scalar_row):
    if isinstance(scalar_row, SparseVector):
        return (
            type(batch_row) is SparseVector
            and batch_row.size == scalar_row.size
            and batch_row.indices.dtype == scalar_row.indices.dtype
            and np.array_equal(batch_row.indices, scalar_row.indices)
            and batch_row.values.tobytes() == scalar_row.values.tobytes()
        )
    return (
        type(batch_row) is type(scalar_row)
        and batch_row.to_numpy().tobytes() == scalar_row.to_numpy().tobytes()
    )


def _close(actual, expected):
    return np.allclose(
        np.asarray(actual, dtype=np.float64),
        np.asarray(expected, dtype=np.float64),
        rtol=1e-9,
        atol=1e-12,
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "name",
    ["CharNgram", "WordNgram[count]", "WordNgram[binary]", "WordNgram[tf]", "TreeFeaturizer"],
)
def test_sparse_featurizers_emit_csr_bit_equal_to_transform(
    featurizers, tokens, dense_rows, name, n
):
    operator = featurizers[name]
    records = _inputs(name, tokens, dense_rows)[:n]
    batch = operator.transform_batch(records)
    assert batch.kind == "sparse" and len(batch) == n
    assert batch.width == operator.output_size()
    for index, record in enumerate(records):
        assert _bit_equal(batch.rows[index], operator.transform(record)), (name, index)


def _branch(featurizers, tokens, dense_rows, name, n):
    return featurizers[name].transform_batch(_inputs(name, tokens, dense_rows)[:n])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dense_output", [True, False])
@pytest.mark.parametrize(
    "branches", [("dense", "TreeFeaturizer"), ("CharNgram", "WordNgram[tf]")]
)
def test_concat_of_csr_branches_is_bit_equal_to_transform(
    featurizers, tokens, dense_rows, branches, dense_output, n
):
    parts = [
        ColumnBatch.from_rows(dense_rows[:n])
        if name == "dense"
        else _branch(featurizers, tokens, dense_rows, name, n)
        for name in branches
    ]
    concat = ConcatFeaturizer(dense_output=dense_output)
    batch = concat.transform_batch(ColumnBatch.multi(parts))
    all_sparse = all(part.kind == "sparse" for part in parts)
    assert batch.kind == ("sparse" if all_sparse and not dense_output else "dense")
    per_record = ColumnBatch.multi(parts).rows
    for index, value in enumerate(per_record):
        assert _bit_equal(batch.rows[index], concat.transform(value)), index


@pytest.mark.parametrize("n", SIZES)
def test_linear_margins_over_csr_match_per_record_dots(featurizers, tokens, dense_rows, n):
    char = _branch(featurizers, tokens, dense_rows, "CharNgram", n)
    word = _branch(featurizers, tokens, dense_rows, "WordNgram[count]", n)
    combined = ConcatFeaturizer(dense_output=False).transform_batch(ColumnBatch.multi([char, word]))
    rng = np.random.default_rng(43)
    scorer = PartialLinearScorer(rng.normal(size=char.width), bias=0.25)
    model = LogisticRegressionClassifier(weights=rng.normal(size=combined.width), bias=-0.5)
    for operator, column in ((scorer, char), (model, combined)):
        batched = operator.transform_batch(column)
        assert batched.kind == "scalar"
        assert _close(batched.rows, [operator.transform(row) for row in column.rows])
        # a row list of the same vectors reduces to the very same bits
        again = operator.transform_batch(ColumnBatch.from_rows(column.rows))
        assert again.scalar_array().tobytes() == batched.scalar_array().tobytes()
