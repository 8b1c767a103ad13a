"""Batch-vs-scalar oracle: every operator family's ``transform_batch`` must
produce element-wise the same outputs as per-record ``transform``.

The test enumerates the *registry* of concrete :class:`Operator` subclasses,
so an operator family added without a case here fails loudly -- no future
operator can land batch-less (or batch-wrong) unnoticed.  Comparisons are
bit-exact except for the families whose vectorization reorders floating-point
reductions (matrix products, norms), which are compared within a tight
relative tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.oven.rewrite_ops as rewrite_ops
from repro.core.oven.rewrite_ops import MarginCombiner, PartialLinearScorer
from repro.operators import (
    PCA,
    CharNgramFeaturizer,
    ColumnSelector,
    ConcatFeaturizer,
    DecisionTree,
    DenseVector,
    HashingFeaturizer,
    KMeans,
    L2Normalizer,
    LinearRegressor,
    LogisticRegressionClassifier,
    MinMaxNormalizer,
    MissingValueImputer,
    OneHotEncoder,
    Operator,
    PoissonRegressor,
    RandomForest,
    SparseVector,
    Tokenizer,
    TreeEnsembleClassifier,
    TreeFeaturizer,
    Vector,
    WordNgramFeaturizer,
)
from repro.operators.batch import ColumnBatch
from repro.operators.linear import LinearModel
from repro.operators.text import _NgramFeaturizerBase

SEED = 20260730
N_RECORDS = 48
N_FEATURES = 12

#: operator families whose scalar path must stay bit-equal to the batch path
#: (their kernels only gather, compare and copy -- no reduction reordering)
EXACT = "exact"
#: families whose vectorization legitimately reorders float reductions
#: (matrix products, norms, vectorized links)
CLOSE = "close"

#: the core numeric families that must never fall back to the per-record loop
#: (``stats()["stage_batching"]["loop_fallback_stages"]`` stays empty for any
#: plan built from them)
CORE_VECTORIZED = {
    "LinearRegression",
    "LogisticRegression",
    "PoissonRegression",
    "DecisionTree",
    "RandomForest",
    "TreeEnsembleClassifier",
    "TreeFeaturizer",
    "KMeans",
    "PCA",
    "MinMaxNormalizer",
    "L2Normalizer",
    "MissingValueImputer",
    "Concat",
    "ColumnSelector",
    "PartialLinear",
    "MarginCombiner",
    "CharNgram",
    "WordNgram",
    "Tokenizer",
}

#: abstract/base classes the registry scan must not demand a case for
_BASES = {Operator, LinearModel, _NgramFeaturizerBase}


def _rng():
    return np.random.default_rng(SEED)


def _dense_records(rng, n=N_RECORDS, width=N_FEATURES, nan_fraction=0.0):
    matrix = rng.normal(size=(n, width)) * 3.0
    if nan_fraction:
        mask = rng.random(size=matrix.shape) < nan_fraction
        matrix[mask] = np.nan
    return [DenseVector(row.copy()) for row in matrix]


def _sparse_records(rng, n=N_RECORDS, size=64):
    records = []
    for _ in range(n):
        nnz = int(rng.integers(0, 6))
        indices = rng.choice(size, size=nnz, replace=False)
        records.append(SparseVector(indices, rng.normal(size=nnz), size))
    return records


def _token_lists(rng, n=N_RECORDS):
    vocabulary = [f"tok{i}" for i in range(30)]
    return [
        [vocabulary[int(rng.integers(0, len(vocabulary)))] for _ in range(int(rng.integers(0, 12)))]
        for _ in range(n)
    ]


def _fitted_cases():
    """One (family name, fitted operator, input batch, tolerance) per family."""
    rng = _rng()
    dense = _dense_records(rng)
    with_nans = _dense_records(rng, nan_fraction=0.1)
    labels = rng.normal(size=N_RECORDS) + 5.0
    class_labels = rng.integers(0, 3, size=N_RECORDS).astype(float)
    tokens = _token_lists(rng)
    dict_records = [
        {f"f{i}": float(value) for i, value in enumerate(row.values)} for row in with_nans
    ]
    texts = [" ".join(toks) for toks in tokens]
    sparse = _sparse_records(rng)
    imputer = MissingValueImputer().fit(with_nans)
    imputed = [imputer.transform(row) for row in with_nans]
    minmax = MinMaxNormalizer().fit(imputed)

    cases = [
        ("Tokenizer", Tokenizer(), texts, EXACT),
        (
            "CharNgram",
            CharNgramFeaturizer(ngram_range=(2, 3), max_features=80).fit(tokens),
            tokens,
            EXACT,
        ),
        (
            "WordNgram",
            WordNgramFeaturizer(ngram_range=(1, 2), max_features=60, weighting="tf").fit(tokens),
            tokens,
            EXACT,
        ),
        ("Hashing", HashingFeaturizer(num_bits=6), tokens, EXACT),
        ("ColumnSelector", ColumnSelector(sorted(dict_records[0])), dict_records, EXACT),
        (
            "Concat",
            ConcatFeaturizer([N_FEATURES, N_FEATURES]),
            ColumnBatch.multi(
                [ColumnBatch.from_rows(dense), ColumnBatch.from_rows(imputed)]
            ),
            EXACT,
        ),
        (
            "Concat[sparse]",
            ConcatFeaturizer(dense_output=False),
            ColumnBatch.multi(
                [ColumnBatch.from_rows(sparse), ColumnBatch.from_rows(sparse)]
            ),
            EXACT,
        ),
        ("MissingValueImputer", imputer, with_nans, EXACT),
        ("MinMaxNormalizer", minmax, imputed, EXACT),
        ("L2Normalizer", L2Normalizer(), dense, CLOSE),
        ("L2Normalizer[sparse]", L2Normalizer(), sparse, EXACT),
        ("OneHotEncoder", OneHotEncoder(cardinality=9), [int(v) for v in class_labels], EXACT),
        ("LinearRegression", LinearRegressor().fit(dense, labels), dense, CLOSE),
        (
            "LogisticRegression",
            LogisticRegressionClassifier(epochs=3).fit(dense, class_labels > 1),
            dense,
            CLOSE,
        ),
        (
            "LogisticRegression[sparse]",
            LogisticRegressionClassifier(weights=rng.normal(size=64), bias=0.1),
            sparse,
            CLOSE,
        ),
        ("PoissonRegression", PoissonRegressor(epochs=3).fit(dense, labels), dense, CLOSE),
        (
            "DecisionTree",
            DecisionTree(max_depth=5, min_leaf=2, seed=3).fit(dense, labels),
            dense,
            EXACT,
        ),
        (
            "RandomForest",
            RandomForest(n_trees=5, max_depth=4, seed=4).fit(dense, labels),
            dense,
            CLOSE,
        ),
        (
            "TreeEnsembleClassifier",
            TreeEnsembleClassifier(n_classes=3, max_depth=4, seed=5).fit(dense, class_labels),
            dense,
            EXACT,
        ),
        (
            "TreeFeaturizer",
            TreeFeaturizer(n_trees=4, max_depth=3, seed=6).fit(dense, labels),
            dense,
            EXACT,
        ),
        ("KMeans", KMeans(n_clusters=4, seed=7, max_iterations=10).fit(dense), dense, CLOSE),
        ("PCA", PCA(n_components=5).fit(dense), dense, CLOSE),
        (
            "PartialLinear",
            PartialLinearScorer(rng.normal(size=N_FEATURES), bias=0.25, branch_index=0),
            dense,
            CLOSE,
        ),
        (
            "MarginCombiner",
            MarginCombiner(link="sigmoid", n_inputs=2),
            ColumnBatch.multi(
                [
                    ColumnBatch.from_scalars(rng.normal(size=N_RECORDS)),
                    ColumnBatch.from_scalars(rng.normal(size=N_RECORDS)),
                ]
            ),
            CLOSE,
        ),
    ]
    return cases


_CASES = _fitted_cases()


def _as_array(value):
    if isinstance(value, Vector):
        return value.to_numpy()
    if isinstance(value, (list, tuple)):
        return np.asarray([_as_array(item) for item in value], dtype=object)
    return np.atleast_1d(np.asarray(value, dtype=object if isinstance(value, str) else None))


def _rows_equal(batch_row, scalar_row, tolerance):
    if isinstance(scalar_row, (str, list)) and not isinstance(scalar_row, Vector):
        return batch_row == scalar_row
    if isinstance(scalar_row, SparseVector):
        # Sparse outputs must keep their representation, not just their values.
        return (
            isinstance(batch_row, SparseVector)
            and batch_row.size == scalar_row.size
            and np.array_equal(batch_row.indices, scalar_row.indices)
            and np.array_equal(batch_row.values, scalar_row.values, equal_nan=True)
        )
    left = _as_array(batch_row)
    right = _as_array(scalar_row)
    if left.dtype == object or right.dtype == object:
        return bool(np.array_equal(left, right))
    if left.shape != right.shape:
        return False
    if tolerance == EXACT:
        return bool(np.array_equal(left, right, equal_nan=True))
    return bool(np.allclose(left, right, rtol=1e-9, atol=1e-12, equal_nan=True))


@pytest.mark.parametrize(
    "name,operator,batch,tolerance", _CASES, ids=[case[0] for case in _CASES]
)
def test_transform_batch_matches_per_record_transform(name, operator, batch, tolerance):
    rows = batch.rows if isinstance(batch, ColumnBatch) else list(batch)
    batched = operator.transform_batch(batch)
    assert isinstance(batched, ColumnBatch), f"{name} must return a ColumnBatch"
    assert len(batched) == len(rows)
    scalar = [operator.transform(value) for value in rows]
    for index, (batch_row, scalar_row) in enumerate(zip(batched.rows, scalar)):
        assert _rows_equal(batch_row, scalar_row, tolerance), (
            f"{name}: batch row {index} diverges from the scalar oracle: "
            f"{batch_row!r} != {scalar_row!r}"
        )


@pytest.mark.parametrize(
    "name,operator,batch,tolerance", _CASES, ids=[case[0] for case in _CASES]
)
def test_empty_batches_are_legal(name, operator, batch, tolerance):
    if isinstance(batch, ColumnBatch) and batch.parts is not None:
        empty = ColumnBatch.multi(
            [ColumnBatch.from_rows([]) for _ in batch.parts]
        )
    else:
        empty = ColumnBatch.from_rows([])
    assert len(operator.transform_batch(empty)) == 0


def test_column_selector_batch_matrix_is_byte_identical_to_per_field_assignment():
    """The one-array gather keeps every byte of the per-field fill it
    replaced: ``float(...)`` of present values (ints, strings, NaN, -0.0),
    ``None`` and missing fields read ``0.0``, float64 in C order."""
    columns = ["a", "b", "c", "d"]
    records = [
        {"a": 1.5, "b": -0.0, "c": float("nan"), "d": float("inf")},
        {"a": 3, "b": None, "d": "2.25"},
        {},
        {"a": np.float32(0.1), "b": True, "c": 5e-324, "d": -1e308, "extra": 7.0},
    ]
    expected = np.empty((len(records), len(columns)), dtype=np.float64)
    for index, record in enumerate(records):
        for position, column in enumerate(columns):
            field = record.get(column, 0.0)
            expected[index, position] = float(field) if field is not None else 0.0
    matrix = ColumnSelector(columns).transform_batch(records).dense_matrix()
    assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
    assert matrix.tobytes() == expected.tobytes()
    scalar = np.stack([ColumnSelector(columns).transform(r).values for r in records])
    assert matrix.tobytes() == scalar.tobytes()
    empty = ColumnSelector(columns).transform_batch([]).dense_matrix()
    assert empty.shape == (0, len(columns))


def test_core_numeric_families_declare_vectorized_kernels():
    """The acceptance gate: none of the core families may loop per record."""
    by_family = {}
    for name, operator, _batch, _tolerance in _CASES:
        by_family.setdefault(operator.name, operator)
    for family in sorted(CORE_VECTORIZED):
        operator = by_family.get(family)
        assert operator is not None, f"no equivalence case covers family {family!r}"
        assert operator.supports_batch, f"{family} fell back to the per-record loop"
        assert type(operator).transform_batch is not Operator.transform_batch


def _concrete_operator_classes():
    """Every concrete Operator subclass importable from the repository."""
    seen = set()
    stack = [Operator]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    return {cls for cls in seen if cls not in _BASES and not cls.__name__.startswith("_")}


def test_every_registered_operator_family_has_an_equivalence_case():
    """A new operator family cannot land without joining this oracle."""
    assert rewrite_ops is not None  # ensure the rewrite operators are imported
    covered = {type(operator) for _name, operator, _batch, _tolerance in _CASES}
    covered.update(type(operator).__mro__[1] for _n, operator, _b, _t in _CASES)
    missing = {
        cls.__name__
        for cls in _concrete_operator_classes()
        if cls not in covered
    }
    assert not missing, (
        f"operator families without a batch-equivalence case: {sorted(missing)}; "
        "add a fitted case to _fitted_cases() so the batch oracle covers them"
    )
