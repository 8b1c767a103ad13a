"""Tests for the general-purpose featurizers."""

import numpy as np
import pytest

from repro.operators.featurizers import (
    ColumnSelector,
    ConcatFeaturizer,
    MinMaxNormalizer,
    MissingValueImputer,
)
from repro.operators.vectors import DenseVector, SparseVector


class TestColumnSelector:
    def test_numeric_selection(self):
        selector = ColumnSelector(["a", "b"])
        vec = selector.transform({"a": 1.0, "b": 2.0, "c": 9.0})
        assert vec.values.tolist() == [1.0, 2.0]

    def test_missing_fields_default_to_zero(self):
        selector = ColumnSelector(["a", "b"])
        assert selector.transform({"a": 1.0}).values.tolist() == [1.0, 0.0]

    def test_textual_selection(self):
        selector = ColumnSelector(["text"], textual=True)
        assert selector.transform({"text": "hello"}) == "hello"

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            ColumnSelector([])

    def test_textual_requires_single_column(self):
        with pytest.raises(ValueError):
            ColumnSelector(["a", "b"], textual=True)

    def test_rejects_non_dict(self):
        with pytest.raises(TypeError):
            ColumnSelector(["a"]).transform([1.0])


class TestConcat:
    def test_dense_materialization_default(self):
        concat = ConcatFeaturizer()
        result = concat.transform([SparseVector([0], [1.0], 3), SparseVector([1], [2.0], 2)])
        assert isinstance(result, DenseVector)
        assert result.values.tolist() == [1.0, 0.0, 0.0, 0.0, 2.0]

    def test_sparse_mode(self):
        concat = ConcatFeaturizer(dense_output=False)
        result = concat.transform([SparseVector([0], [1.0], 3), SparseVector([1], [2.0], 2)])
        assert isinstance(result, SparseVector)

    def test_output_size_from_config(self):
        assert ConcatFeaturizer([3, 2]).output_size() == 5
        assert ConcatFeaturizer().output_size() is None

    def test_requires_list_input(self):
        with pytest.raises(TypeError):
            ConcatFeaturizer().transform(DenseVector([1.0]))

    def test_is_pipeline_breaker(self):
        assert ConcatFeaturizer().is_pipeline_breaker()


class TestImputer:
    def test_fills_nans_with_means(self):
        imputer = MissingValueImputer().fit(
            [DenseVector([1.0, 10.0]), DenseVector([3.0, 30.0])]
        )
        filled = imputer.transform(DenseVector([np.nan, 50.0]))
        assert filled.values.tolist() == [2.0, 50.0]

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            MissingValueImputer().transform(DenseVector([1.0]))

    def test_dimension_mismatch(self):
        imputer = MissingValueImputer().fit([DenseVector([1.0, 2.0])])
        with pytest.raises(ValueError):
            imputer.transform(DenseVector([1.0]))

    def test_nan_training_columns_fall_back_to_zero(self):
        imputer = MissingValueImputer().fit([DenseVector([np.nan]), DenseVector([np.nan])])
        assert imputer.transform(DenseVector([np.nan])).values.tolist() == [0.0]


class TestMinMax:
    def test_scales_into_unit_interval(self):
        normalizer = MinMaxNormalizer().fit([DenseVector([0.0, 10.0]), DenseVector([10.0, 20.0])])
        scaled = normalizer.transform(DenseVector([5.0, 15.0]))
        assert scaled.values.tolist() == [0.5, 0.5]

    def test_clips_out_of_range(self):
        normalizer = MinMaxNormalizer().fit([DenseVector([0.0]), DenseVector([1.0])])
        assert normalizer.transform(DenseVector([5.0])).values.tolist() == [1.0]
        assert normalizer.transform(DenseVector([-5.0])).values.tolist() == [0.0]

    def test_constant_feature_is_safe(self):
        normalizer = MinMaxNormalizer().fit([DenseVector([3.0]), DenseVector([3.0])])
        assert np.isfinite(normalizer.transform(DenseVector([3.0])).values).all()

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            MinMaxNormalizer().transform(DenseVector([1.0]))
