"""Shared fixtures: small trained pipelines and datasets used across tests."""

from __future__ import annotations

import os

# One BLAS thread, before NumPy loads: a full run loads this conftest before
# benchmarks/conftest.py, so the pin has to happen here to cover the figure
# benchmarks too (a multi-threaded OpenBLAS stalls their wide dense dots).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
del _variable

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.mlnet.pipeline import Pipeline  # noqa: E402
from repro.operators import (  # noqa: E402
    PCA,
    CharNgramFeaturizer,
    ColumnSelector,
    ConcatFeaturizer,
    KMeans,
    LogisticRegressionClassifier,
    MinMaxNormalizer,
    MissingValueImputer,
    Tokenizer,
    WordNgramFeaturizer,
)
from repro.workloads.events_data import FEATURE_NAMES, generate_events  # noqa: E402
from repro.workloads.text_data import generate_reviews  # noqa: E402


@pytest.fixture(scope="session")
def small_corpus():
    """A small labelled review corpus shared by text-related tests."""
    return generate_reviews(n_reviews=120, vocabulary_size=400, mean_length=18, seed=5)


@pytest.fixture(scope="session")
def small_events():
    """A small event dataset shared by AC-related tests."""
    return generate_events(n_events=120, seed=9)


def _build_sa_pipeline(corpus, name="sa-small", char_features=300, word_features=200):
    tokenizer = Tokenizer()
    token_lists = [tokenizer.transform(text) for text in corpus.texts]
    char = CharNgramFeaturizer(ngram_range=(2, 3), max_features=char_features).fit(token_lists)
    word = WordNgramFeaturizer(ngram_range=(1, 2), max_features=word_features).fit(token_lists)
    pipeline = Pipeline(name)
    pipeline.add("tokenizer", Tokenizer(), ["input"])
    pipeline.add("char_ngram", char, ["tokenizer"])
    pipeline.add("word_ngram", word, ["tokenizer"])
    pipeline.add(
        "concat",
        ConcatFeaturizer([char.output_size() or 0, word.output_size() or 0]),
        ["char_ngram", "word_ngram"],
    )
    pipeline.add("classifier", LogisticRegressionClassifier(epochs=4), ["concat"])
    pipeline.fit(corpus.texts, corpus.labels)
    return pipeline


@pytest.fixture(scope="session")
def sa_pipeline(small_corpus):
    """A trained Sentiment Analysis pipeline (Figure 1 structure)."""
    return _build_sa_pipeline(small_corpus)


@pytest.fixture(scope="session")
def sa_pipeline_variant(small_corpus):
    """A second SA pipeline sharing featurizers but with different weights."""
    pipeline = _build_sa_pipeline(small_corpus, name="sa-small-variant")
    classifier = pipeline.nodes["classifier"].operator
    rng = np.random.default_rng(77)
    classifier.weights = classifier.weights + rng.normal(scale=0.01, size=classifier.weights.shape)
    return pipeline


@pytest.fixture(scope="session")
def ac_pipeline(small_events):
    """A small Attendee Count style ensemble pipeline."""
    dataset = small_events
    selector = ColumnSelector(FEATURE_NAMES)
    rows = [selector.transform(record) for record in dataset.records]
    imputer = MissingValueImputer().fit(rows)
    imputed = [imputer.transform(row) for row in rows]
    normalizer = MinMaxNormalizer().fit(imputed)
    normalized = [normalizer.transform(row) for row in imputed]
    pca = PCA(n_components=4).fit(normalized)
    kmeans = KMeans(n_clusters=3, seed=3, max_iterations=15).fit(normalized)
    # A tree as the final predictor, as in the paper's AC ensembles (and so
    # that Concat cannot be optimized away by the linear push-through rule).
    from repro.operators.trees import DecisionTree

    final = DecisionTree(max_depth=3, min_leaf=6, seed=1)

    pipeline = Pipeline("ac-small")
    pipeline.add("selector", ColumnSelector(FEATURE_NAMES), ["input"])
    pipeline.add("imputer", imputer, ["selector"])
    pipeline.add("normalizer", normalizer, ["imputer"])
    pipeline.add("pca", pca, ["normalizer"])
    pipeline.add("kmeans", kmeans, ["normalizer"])
    pipeline.add("concat", ConcatFeaturizer([4, 3]), ["pca", "kmeans"])
    pipeline.add("final", final, ["concat"])
    # Fit only the final predictor (upstream operators are already trained).
    concat_features = [
        ConcatFeaturizer([4, 3]).transform([pca.transform(v), kmeans.transform(v)])
        for v in normalized
    ]
    final.fit(concat_features, dataset.labels)
    return pipeline


@pytest.fixture(scope="session")
def sa_inputs(small_corpus):
    """A few held-out review texts for scoring."""
    fresh = generate_reviews(n_reviews=8, vocabulary_size=400, mean_length=18, seed=55)
    return fresh.texts


@pytest.fixture(scope="session")
def ac_inputs():
    """A few held-out event records for scoring."""
    return generate_events(n_events=8, seed=77).records
