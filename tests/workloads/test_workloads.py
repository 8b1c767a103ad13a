"""Tests for the synthetic datasets and the SA / AC pipeline families."""

import numpy as np
import pytest

from repro.workloads.attendee import build_attendee_family
from repro.workloads.events_data import FEATURE_NAMES, generate_events
from repro.workloads.sentiment import build_sentiment_family
from repro.workloads.text_data import generate_reviews
from repro.workloads.zipf import zipf_request_sequence, zipf_weights


@pytest.fixture(scope="module")
def tiny_sa_family(small_corpus):
    return build_sentiment_family(
        n_pipelines=6, corpus=small_corpus, n_char_versions=2, n_word_versions=3, seed=13
    )


@pytest.fixture(scope="module")
def tiny_ac_family(small_events):
    return build_attendee_family(
        n_pipelines=6,
        dataset=small_events,
        n_pca_versions=2,
        n_kmeans_versions=2,
        n_tree_featurizer_versions=2,
        n_configurations=3,
        tree_featurizer_trees=3,
        tree_featurizer_depth=3,
        seed=17,
    )


class TestTextData:
    def test_deterministic(self):
        a = generate_reviews(n_reviews=20, seed=1)
        b = generate_reviews(n_reviews=20, seed=1)
        assert a.texts == b.texts and a.labels == b.labels

    def test_labels_binary_and_balancedish(self):
        corpus = generate_reviews(n_reviews=200, seed=2)
        assert set(corpus.labels) <= {0, 1}
        assert 0.3 < np.mean(corpus.labels) < 0.7

    def test_split(self):
        corpus = generate_reviews(n_reviews=50, seed=3)
        train, test = corpus.split(0.8)
        assert len(train) == 40 and len(test) == 10

    def test_sentiment_signal_present(self):
        corpus = generate_reviews(n_reviews=100, seed=4)
        positive_hits = sum("great" in t or "love" in t for t, l in zip(corpus.texts, corpus.labels) if l == 1)
        assert positive_hits > 0


class TestEventsData:
    def test_deterministic(self):
        a = generate_events(n_events=30, seed=1)
        b = generate_events(n_events=30, seed=1)
        assert a.labels == b.labels
        for record_a, record_b in zip(a.records, b.records):
            np.testing.assert_array_equal(
                np.array([record_a[name] for name in FEATURE_NAMES]),
                np.array([record_b[name] for name in FEATURE_NAMES]),
            )

    def test_schema(self):
        dataset = generate_events(n_events=10, seed=2)
        assert set(dataset.records[0]) == set(FEATURE_NAMES)

    def test_missing_values_present(self):
        dataset = generate_events(n_events=200, missing_fraction=0.05, seed=3)
        nan_count = sum(
            1 for record in dataset.records for value in record.values() if np.isnan(value)
        )
        assert nan_count > 0

    def test_labels_positive(self):
        dataset = generate_events(n_events=50, seed=4)
        assert all(label >= 1.0 for label in dataset.labels)

    def test_class_labels_buckets(self):
        dataset = generate_events(n_events=90, seed=5)
        classes = dataset.class_labels(n_classes=3)
        assert set(classes) <= {0, 1, 2}


class TestZipf:
    def test_weights_normalized_and_decreasing(self):
        weights = zipf_weights(10, alpha=2.0)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(9))

    def test_sequence_is_skewed(self):
        items = [f"m{i}" for i in range(50)]
        sequence = zipf_request_sequence(items, 2000, alpha=2.0, seed=1)
        counts = {item: sequence.count(item) for item in set(sequence)}
        top = max(counts.values())
        assert top > 2000 * 0.2  # the most popular model dominates

    def test_deterministic(self):
        items = ["a", "b", "c"]
        assert zipf_request_sequence(items, 50, seed=7) == zipf_request_sequence(items, 50, seed=7)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            zipf_weights(0)


class TestSentimentFamily:
    def test_family_size_and_category(self, tiny_sa_family):
        assert len(tiny_sa_family) == 6
        assert all(g.category == "SA" for g in tiny_sa_family.pipelines)

    def test_pipelines_share_dictionaries(self, tiny_sa_family):
        versions = {}
        for generated in tiny_sa_family.pipelines:
            key = generated.components["wordngram"]
            op = generated.pipeline.nodes["word_ngram"].operator
            versions.setdefault(key, op.dictionary)
            assert op.dictionary is versions[key]

    def test_every_pipeline_has_unique_weights(self, tiny_sa_family):
        checksums = set()
        for generated in tiny_sa_family.pipelines:
            classifier = generated.pipeline.nodes["classifier"].operator
            checksums.add(classifier.parameters()[0].checksum)
        assert len(checksums) == len(tiny_sa_family)

    def test_predictions_are_probabilities(self, tiny_sa_family):
        text = tiny_sa_family.sample_inputs(1)[0]
        for generated in tiny_sa_family.pipelines[:3]:
            assert 0.0 <= generated.pipeline.predict(text) <= 1.0

    def test_sentiment_informed_weights_discriminate(self, tiny_sa_family):
        pipeline = tiny_sa_family.pipelines[0].pipeline
        positive = pipeline.predict("great excellent love this perfect product")
        negative = pipeline.predict("terrible awful broken waste refund")
        assert positive > negative

    def test_sharing_report_matches_figure3_structure(self, tiny_sa_family):
        rows = tiny_sa_family.operator_sharing_report()
        operators = {row["operator"] for row in rows}
        assert {"Tokenize", "Concat", "CharNgram", "WordNgram"} <= operators
        tokenize_row = next(row for row in rows if row["operator"] == "Tokenize")
        assert tokenize_row["pipelines"] == len(tiny_sa_family)

    def test_member_memory_is_its_pipelines(self, tiny_sa_family):
        for generated in tiny_sa_family.pipelines:
            assert generated.memory_bytes() == generated.pipeline.memory_bytes() > 0

    def test_stats_attached(self, tiny_sa_family):
        stats = tiny_sa_family.pipelines[0].stats
        assert stats["char_ngram"].is_sparse
        assert stats["concat"].max_vector_size > 0


class TestAttendeeFamily:
    def test_family_size_and_category(self, tiny_ac_family):
        assert len(tiny_ac_family) == 6
        assert all(g.category == "AC" for g in tiny_ac_family.pipelines)

    def test_predictions_are_counts(self, tiny_ac_family):
        record = tiny_ac_family.sample_inputs(1)[0]
        for generated in tiny_ac_family.pipelines[:3]:
            prediction = generated.pipeline.predict(record)
            assert np.isfinite(prediction)

    def test_configuration_components_shared(self, tiny_ac_family):
        by_config = {}
        for generated in tiny_ac_family.pipelines:
            config = generated.components["configuration"]
            pca = generated.pipeline.nodes["pca"].operator
            by_config.setdefault(config, pca)
            assert generated.pipeline.nodes["pca"].operator is by_config[config]

    def test_per_pipeline_normalizers_differ(self, tiny_ac_family):
        checksums = {
            g.pipeline.nodes["normalizer"].operator.signature() for g in tiny_ac_family.pipelines
        }
        assert len(checksums) > 1

    def test_pipeline_structure(self, tiny_ac_family):
        pipeline = tiny_ac_family.pipelines[0].pipeline
        assert set(pipeline.topological_order()) == {
            "selector", "imputer", "normalizer", "pca", "kmeans",
            "tree_featurizer", "concat", "classifier", "final",
        }
