"""The stored form of a trained pipeline's operators.

The paper describes ML.Net models as compressed files holding one directory
per pipeline operator, with hyper-parameters in plain-text files and
parameters in binary ones.  This module keeps that per-operator split in
memory: :func:`operator_state` turns an operator into a state blob
(``config``, numpy ``arrays``, dictionary-sized ``vocab``) and
:func:`operator_from_state` rebuilds a brand-new operator from one.  The
black-box runtime stores each loaded model as these blobs, so two pipelines
loaded from identical state hold *duplicate* parameter copies -- exactly the
memory behaviour PRETZEL's Object Store avoids.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple, Type

import numpy as np

from repro.operators.base import Operator
from repro.operators.clustering import KMeans
from repro.operators.decomposition import PCA
from repro.operators.featurizers import (
    ColumnSelector,
    ConcatFeaturizer,
    MinMaxNormalizer,
    MissingValueImputer,
)
from repro.operators.linear import LinearRegressor, LogisticRegressionClassifier, PoissonRegressor
from repro.operators.text import (
    CharNgramFeaturizer,
    NgramDictionary,
    Tokenizer,
    WordNgramFeaturizer,
)
from repro.operators.trees import DecisionTree, RandomForest, TreeEnsembleClassifier, TreeFeaturizer

__all__ = ["operator_state", "operator_from_state"]

# Each serializer maps an operator to (config, arrays, vocab) and back.
_DumpResult = Tuple[Dict[str, Any], Dict[str, np.ndarray], Dict[str, Any]]
_Dumper = Callable[[Operator], _DumpResult]
_Loader = Callable[[Dict[str, Any], Dict[str, np.ndarray], Dict[str, Any]], Operator]


def _dump_tree_arrays(prefix: str, tree: DecisionTree, arrays: Dict[str, np.ndarray]) -> None:
    nodes = tree._nodes or {}
    for key, arr in nodes.items():
        arrays[f"{prefix}.{key}"] = arr


def _load_tree_arrays(prefix: str, arrays: Dict[str, np.ndarray], config: Dict[str, Any]) -> DecisionTree:
    tree = DecisionTree(
        max_depth=config.get("max_depth", 6),
        min_leaf=config.get("min_leaf", 4),
        seed=config.get("seed", 0),
    )
    keys = ["feature", "threshold", "left", "right", "value"]
    if all(f"{prefix}.{key}" in arrays for key in keys):
        tree._nodes = {key: arrays[f"{prefix}.{key}"] for key in keys}
    return tree


def _dump_tokenizer(op: Tokenizer) -> _DumpResult:
    return {"lowercase": op.lowercase, "pattern": op.pattern}, {}, {}


def _load_tokenizer(config, arrays, vocab) -> Tokenizer:
    return Tokenizer(lowercase=config["lowercase"], pattern=config["pattern"])


def _dump_ngram(op) -> _DumpResult:
    config = {
        "ngram_range": list(op.ngram_range),
        "max_features": op.max_features,
        "weighting": op.weighting,
    }
    vocab = {} if op.dictionary is None else {"ngram_to_index": op.dictionary.ngram_to_index}
    return config, {}, vocab


def _make_ngram_loader(cls) -> _Loader:
    def load(config, arrays, vocab):
        op = cls(
            ngram_range=tuple(config["ngram_range"]),
            max_features=config["max_features"],
            weighting=config["weighting"],
        )
        if "ngram_to_index" in vocab:
            op.dictionary = NgramDictionary(
                dict(vocab["ngram_to_index"]), tuple(config["ngram_range"])
            )
        return op

    return load


def _dump_selector(op: ColumnSelector) -> _DumpResult:
    return {"columns": op.columns, "textual": op.textual}, {}, {}


def _dump_concat(op: ConcatFeaturizer) -> _DumpResult:
    return {"input_sizes": op.input_sizes}, {}, {}


def _dump_imputer(op: MissingValueImputer) -> _DumpResult:
    arrays = {} if op.fill_values is None else {"fill_values": op.fill_values}
    return {}, arrays, {}


def _dump_minmax(op: MinMaxNormalizer) -> _DumpResult:
    arrays: Dict[str, np.ndarray] = {}
    if op.minima is not None:
        arrays["minima"] = op.minima
    if op.maxima is not None:
        arrays["maxima"] = op.maxima
    return {}, arrays, {}


def _dump_linear(op) -> _DumpResult:
    config = {"bias": op.bias, "l2": op.l2, "learning_rate": op.learning_rate, "epochs": op.epochs, "seed": op.seed}
    arrays = {} if op.weights is None else {"weights": op.weights}
    return config, arrays, {}


def _make_linear_loader(cls) -> _Loader:
    def load(config, arrays, vocab):
        return cls(
            weights=arrays.get("weights"),
            bias=config.get("bias", 0.0),
            l2=config.get("l2", 1e-4),
            learning_rate=config.get("learning_rate", 0.1),
            epochs=config.get("epochs", 20),
            seed=config.get("seed", 0),
        )

    return load


def _dump_decision_tree(op: DecisionTree) -> _DumpResult:
    config = {"max_depth": op.max_depth, "min_leaf": op.min_leaf, "seed": op.seed}
    arrays: Dict[str, np.ndarray] = {}
    _dump_tree_arrays("tree", op, arrays)
    return config, arrays, {}


def _load_decision_tree(config, arrays, vocab) -> DecisionTree:
    return _load_tree_arrays("tree", arrays, config)


def _dump_tree_collection(op, kind: str) -> _DumpResult:
    config: Dict[str, Any] = {
        "n_trees": getattr(op, "n_trees", len(op.trees)),
        "max_depth": op.max_depth,
        "min_leaf": op.min_leaf,
        "seed": op.seed,
        "n_fitted": len(op.trees),
    }
    if kind == "forest":
        config["feature_fraction"] = op.feature_fraction
    if kind == "classifier":
        config["n_classes"] = op.n_classes
    arrays: Dict[str, np.ndarray] = {}
    for index, tree in enumerate(op.trees):
        _dump_tree_arrays(f"tree{index}", tree, arrays)
    return config, arrays, {}


def _load_tree_collection(cls, kind: str) -> _Loader:
    def load(config, arrays, vocab):
        kwargs: Dict[str, Any] = {
            "max_depth": config.get("max_depth", 6),
            "min_leaf": config.get("min_leaf", 4),
            "seed": config.get("seed", 0),
        }
        if kind == "classifier":
            kwargs["n_classes"] = config.get("n_classes", 3)
        else:
            kwargs["n_trees"] = config.get("n_trees", 4)
        if kind == "forest":
            kwargs["feature_fraction"] = config.get("feature_fraction", 0.7)
        op = cls(**kwargs)
        trees = []
        for index in range(config.get("n_fitted", 0)):
            trees.append(_load_tree_arrays(f"tree{index}", arrays, config))
        op.trees = trees
        return op

    return load


def _dump_kmeans(op: KMeans) -> _DumpResult:
    config = {"n_clusters": op.n_clusters, "max_iterations": op.max_iterations, "seed": op.seed}
    arrays = {} if op.centroids is None else {"centroids": op.centroids}
    return config, arrays, {}


def _dump_pca(op: PCA) -> _DumpResult:
    config = {"n_components": op.n_components}
    arrays: Dict[str, np.ndarray] = {}
    if op.mean is not None:
        arrays["mean"] = op.mean
    if op.components is not None:
        arrays["components"] = op.components
    return config, arrays, {}


_SERIALIZERS: Dict[str, Tuple[Type[Operator], _Dumper, _Loader]] = {
    "Tokenizer": (Tokenizer, _dump_tokenizer, _load_tokenizer),
    "CharNgramFeaturizer": (CharNgramFeaturizer, _dump_ngram, _make_ngram_loader(CharNgramFeaturizer)),
    "WordNgramFeaturizer": (WordNgramFeaturizer, _dump_ngram, _make_ngram_loader(WordNgramFeaturizer)),
    "ColumnSelector": (
        ColumnSelector,
        _dump_selector,
        lambda config, arrays, vocab: ColumnSelector(config["columns"], textual=config["textual"]),
    ),
    "ConcatFeaturizer": (
        ConcatFeaturizer,
        _dump_concat,
        lambda config, arrays, vocab: ConcatFeaturizer(config.get("input_sizes")),
    ),
    "MissingValueImputer": (
        MissingValueImputer,
        _dump_imputer,
        lambda config, arrays, vocab: MissingValueImputer(arrays.get("fill_values")),
    ),
    "MinMaxNormalizer": (
        MinMaxNormalizer,
        _dump_minmax,
        lambda config, arrays, vocab: MinMaxNormalizer(arrays.get("minima"), arrays.get("maxima")),
    ),
    "LinearRegressor": (LinearRegressor, _dump_linear, _make_linear_loader(LinearRegressor)),
    "LogisticRegressionClassifier": (
        LogisticRegressionClassifier,
        _dump_linear,
        _make_linear_loader(LogisticRegressionClassifier),
    ),
    "PoissonRegressor": (PoissonRegressor, _dump_linear, _make_linear_loader(PoissonRegressor)),
    "DecisionTree": (DecisionTree, _dump_decision_tree, _load_decision_tree),
    "RandomForest": (
        RandomForest,
        lambda op: _dump_tree_collection(op, "forest"),
        _load_tree_collection(RandomForest, "forest"),
    ),
    "TreeEnsembleClassifier": (
        TreeEnsembleClassifier,
        lambda op: _dump_tree_collection(op, "classifier"),
        _load_tree_collection(TreeEnsembleClassifier, "classifier"),
    ),
    "TreeFeaturizer": (
        TreeFeaturizer,
        lambda op: _dump_tree_collection(op, "featurizer"),
        _load_tree_collection(TreeFeaturizer, "featurizer"),
    ),
    "KMeans": (
        KMeans,
        _dump_kmeans,
        lambda config, arrays, vocab: KMeans(
            n_clusters=config["n_clusters"],
            max_iterations=config.get("max_iterations", 50),
            seed=config.get("seed", 0),
            centroids=arrays.get("centroids"),
        ),
    ),
    "PCA": (
        PCA,
        _dump_pca,
        lambda config, arrays, vocab: PCA(
            n_components=config["n_components"],
            mean=arrays.get("mean"),
            components=arrays.get("components"),
        ),
    ),
}


def operator_state(operator: Operator) -> Dict[str, Any]:
    """Serialize an operator to a JSON/array state blob (in memory)."""
    class_name = type(operator).__name__
    if class_name not in _SERIALIZERS:
        raise KeyError(f"no serializer registered for operator class {class_name}")
    _cls, dumper, _loader = _SERIALIZERS[class_name]
    config, arrays, vocab = dumper(operator)
    return {
        "class": class_name,
        "config": config,
        "arrays": {key: np.asarray(value) for key, value in arrays.items()},
        "vocab": vocab,
    }


def operator_from_state(state: Dict[str, Any]) -> Operator:
    """Rebuild an operator from the blob produced by :func:`operator_state`."""
    class_name = state["class"]
    if class_name not in _SERIALIZERS:
        raise KeyError(f"no serializer registered for operator class {class_name}")
    _cls, _dumper, loader = _SERIALIZERS[class_name]
    return loader(state.get("config", {}), state.get("arrays", {}), state.get("vocab", {}))
