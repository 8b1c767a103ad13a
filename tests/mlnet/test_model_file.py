"""Tests for the stored form of operators (state round trips)."""

import numpy as np
import pytest

from repro.mlnet.model_file import operator_from_state, operator_state
from repro.mlnet.pipeline import Pipeline
from repro.operators import (
    PCA,
    KMeans,
    LogisticRegressionClassifier,
    Tokenizer,
    TreeFeaturizer,
    WordNgramFeaturizer,
)
from repro.operators.trees import DecisionTree
from repro.operators.vectors import DenseVector


class TestOperatorStateRoundTrip:
    def test_tokenizer(self):
        original = Tokenizer(lowercase=False)
        restored = operator_from_state(operator_state(original))
        assert restored.lowercase is False
        assert restored.transform("ABC def") == original.transform("ABC def")

    def test_word_ngram_keeps_dictionary(self):
        original = WordNgramFeaturizer(ngram_range=(1, 1), max_features=10).fit([["a", "b", "a"]])
        restored = operator_from_state(operator_state(original))
        assert restored.dictionary is not original.dictionary
        assert restored.dictionary.ngram_to_index == original.dictionary.ngram_to_index
        assert restored.transform(["a"]) == original.transform(["a"])

    def test_linear_model_weights(self):
        original = LogisticRegressionClassifier(weights=np.array([0.5, -0.5]), bias=0.1)
        restored = operator_from_state(operator_state(original))
        value = DenseVector([1.0, 2.0])
        assert restored.transform(value) == pytest.approx(original.transform(value))

    def test_decision_tree_structure(self):
        rng = np.random.default_rng(0)
        records = [DenseVector(row) for row in rng.normal(size=(60, 3))]
        labels = rng.normal(size=60)
        original = DecisionTree(max_depth=3).fit(records, labels)
        restored = operator_from_state(operator_state(original))
        for record in records[:10]:
            assert restored.transform(record) == pytest.approx(original.transform(record))

    def test_tree_featurizer_round_trip(self):
        rng = np.random.default_rng(1)
        records = [DenseVector(row) for row in rng.normal(size=(50, 3))]
        labels = rng.normal(size=50)
        original = TreeFeaturizer(n_trees=2, max_depth=2).fit(records, labels)
        restored = operator_from_state(operator_state(original))
        assert restored.transform(records[0]) == original.transform(records[0])

    def test_kmeans_and_pca(self):
        rng = np.random.default_rng(2)
        records = [DenseVector(row) for row in rng.normal(size=(30, 4))]
        for original in (KMeans(n_clusters=2, seed=0).fit(records), PCA(n_components=2).fit(records)):
            restored = operator_from_state(operator_state(original))
            assert np.allclose(
                restored.transform(records[0]).to_numpy(), original.transform(records[0]).to_numpy()
            )

    def test_ac_pipeline_round_trip(self, ac_pipeline, ac_inputs):
        restored = Pipeline(ac_pipeline.name)
        for name in ac_pipeline.topological_order():
            node = ac_pipeline.nodes[name]
            restored.add(name, operator_from_state(operator_state(node.operator)), node.inputs)
        for record in ac_inputs[:3]:
            assert restored.predict(record) == pytest.approx(ac_pipeline.predict(record))

    def test_unknown_class_rejected(self):
        with pytest.raises(KeyError):
            operator_from_state({"class": "NotAnOperator"})
