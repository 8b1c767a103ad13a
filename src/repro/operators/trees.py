"""Tree-based operators: CART trees, forests, tree featurization.

The Attendee Count (AC) pipelines in the paper are ensembles: a
dimensionality-reduction step runs next to a KMeans clustering and a
TreeFeaturizer, and their outputs feed a multi-class tree classifier followed
by a final tree (or forest) that renders the prediction.  These operators
implement that substrate with a plain CART learner.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.operators.base import Annotation, Operator, OperatorKind, Parameter, ValueKind
from repro.operators.batch import ColumnBatch, as_column_batch, batch_matrix
from repro.operators.vectors import DenseVector, SparseVector, as_vector

__all__ = ["DecisionTree", "RandomForest", "TreeEnsembleClassifier", "TreeFeaturizer"]


class _TreeNodes:
    """Flat array representation of a binary decision tree.

    Children indices of ``-1`` mark leaves.  The flat layout keeps the trained
    state in a handful of numpy arrays so parameter checksumming, sharing and
    byte accounting stay simple.
    """

    def __init__(self) -> None:
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[float] = []

    def add_node(self, feature: int, threshold: float, value: float) -> int:
        index = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return index

    def as_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "feature": np.asarray(self.feature, dtype=np.int64),
            "threshold": np.asarray(self.threshold, dtype=np.float64),
            "left": np.asarray(self.left, dtype=np.int64),
            "right": np.asarray(self.right, dtype=np.int64),
            "value": np.asarray(self.value, dtype=np.float64),
        }


def _best_split(
    X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> Optional[Tuple[int, float, np.ndarray]]:
    """Find the variance-minimizing split among candidate features.

    The threshold search is vectorized per feature: all candidate thresholds
    are evaluated with one boolean matrix and two matrix-vector products, so
    fitting the tree ensembles of the AC workload stays fast in pure numpy.
    """
    best_feature = -1
    best_threshold = 0.0
    best_score = np.inf
    n_samples = X.shape[0]
    parent_score = float(np.var(y)) * n_samples
    y_squared = y * y
    for feature in feature_indices:
        column = X[:, feature]
        candidates = np.unique(column)
        if candidates.shape[0] < 2:
            continue
        midpoints = (candidates[:-1] + candidates[1:]) / 2.0
        if midpoints.shape[0] > 16:
            midpoints = np.unique(np.quantile(column, np.linspace(0.05, 0.95, 16)))
        left_mask = column[None, :] <= midpoints[:, None]
        n_left = left_mask.sum(axis=1).astype(np.float64)
        n_right = n_samples - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        sum_left = left_mask @ y
        sumsq_left = left_mask @ y_squared
        sum_right = y.sum() - sum_left
        sumsq_right = y_squared.sum() - sumsq_left
        with np.errstate(divide="ignore", invalid="ignore"):
            var_left = sumsq_left - sum_left * sum_left / np.maximum(n_left, 1.0)
            var_right = sumsq_right - sum_right * sum_right / np.maximum(n_right, 1.0)
        scores = np.where(valid, var_left + var_right, np.inf)
        index = int(np.argmin(scores))
        if scores[index] < best_score - 1e-12:
            best_score = float(scores[index])
            best_feature = int(feature)
            best_threshold = float(midpoints[index])
    if best_feature < 0 or best_score >= parent_score:
        return None
    return best_feature, best_threshold, X[:, best_feature] <= best_threshold


#: the per-tree node arrays, in the order an ensemble's arena copies them
_NODE_KEYS = ("feature", "threshold", "left", "right", "value")

#: the only root of a lone tree's own node arrays
_ROOT = np.zeros(1, dtype=np.int64)


def _descend(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    roots: np.ndarray,
    matrix: np.ndarray,
) -> np.ndarray:
    """Level-order descent of every record from every root: the batch tree walk.

    One lane per ``(record, root)`` pair.  Every pass gathers the lanes still
    at internal nodes, runs their split comparisons as one numpy expression
    and steps them to their left/right child together, so a tree level costs
    one gather, one compare and one select however many trees share the node
    arrays.  The per-lane comparisons are exactly the scalar
    :meth:`DecisionTree._leaf_of` ones, so the leaves (and every output
    derived from them) are bit-equal.  Returns the ``(n_records, n_roots)``
    leaf node indices.
    """
    n_records = matrix.shape[0]
    n_roots = roots.shape[0]
    state = np.tile(roots, n_records)
    lane_rows = np.repeat(np.arange(n_records), n_roots)
    active = np.flatnonzero(left[state] != -1)
    while active.size:
        current = state[active]
        go_left = matrix[lane_rows[active], feature[current]] <= threshold[current]
        state[active] = np.where(go_left, left[current], right[current])
        active = active[left[state[active]] != -1]
    return state.reshape(n_records, n_roots)


class _FlatEnsemble:
    """All member trees' node arrays concatenated into one arena.

    Child indices are rebased so each tree addresses its own slice, and each
    tree's root sits at its cumulative node offset, so a lane's final arena
    index is exactly ``offset + local leaf index`` -- the
    :class:`TreeFeaturizer` feature index.  ``sources`` holds the node arrays
    the arena was copied from: the arena is current only while every tree
    still holds those very objects.
    """

    __slots__ = ("sources", "feature", "threshold", "left", "right", "value", "roots")

    def __init__(self, trees: Sequence[DecisionTree]) -> None:
        self.sources = _node_arrays(trees)
        sizes = [tree.n_nodes for tree in trees]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        self.feature = np.concatenate([tree._nodes["feature"] for tree in trees])
        self.threshold = np.concatenate([tree._nodes["threshold"] for tree in trees])
        self.left = self._rebased(trees, "left")
        self.right = self._rebased(trees, "right")
        self.value = np.concatenate([tree._nodes["value"] for tree in trees])

    def _rebased(self, trees: Sequence[DecisionTree], key: str) -> np.ndarray:
        """Child indices shifted into the arena; ``-1`` leaf markers stay ``-1``."""
        return np.concatenate(
            [
                np.where(tree._nodes[key] >= 0, tree._nodes[key] + base, -1)
                for base, tree in zip(self.roots, trees)
            ]
        )

    def built_from(self, trees: Sequence[DecisionTree]) -> bool:
        current = _node_arrays(trees)
        return len(current) == len(self.sources) and all(
            array is source for array, source in zip(current, self.sources)
        )

    def leaves(self, matrix: np.ndarray) -> np.ndarray:
        """Arena leaf indices, shape ``(n_records, n_trees)``."""
        return _descend(self.feature, self.threshold, self.left, self.right, self.roots, matrix)


def _node_arrays(trees: Sequence[DecisionTree]) -> List[np.ndarray]:
    return [tree._nodes[key] for tree in trees for key in _NODE_KEYS]


def _record_view(value: Any) -> memoryview:
    """One record's features as a ``memoryview``: plain ``float`` per index."""
    return memoryview(as_vector(value).to_numpy())


class DecisionTree(Operator):
    """CART regression tree (also used as a building block for classifiers)."""

    name = "DecisionTree"
    kind = OperatorKind.PREDICTOR
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.SCALAR
    annotations = Annotation.ONE_TO_ONE | Annotation.COMPUTE_BOUND
    derived_attributes = Operator.derived_attributes + ("_node_view_cache",)

    def __init__(
        self,
        max_depth: int = 6,
        min_leaf: int = 4,
        max_features: Optional[int] = None,
        seed: int = 0,
    ):
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.seed = int(seed)
        self._nodes: Optional[Dict[str, np.ndarray]] = None
        self._n_leaves = 0

    # -- training ---------------------------------------------------------

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        if labels is None:
            raise ValueError("DecisionTree requires labels to fit")
        X = np.vstack([as_vector(r).to_numpy() for r in records])
        y = np.asarray(labels, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        nodes = _TreeNodes()
        self._n_leaves = 0

        def build(sample_idx: np.ndarray, depth: int) -> int:
            node_value = float(np.mean(y[sample_idx]))
            node_id = nodes.add_node(-1, 0.0, node_value)
            if depth >= self.max_depth or sample_idx.shape[0] < 2 * self.min_leaf:
                self._n_leaves += 1
                return node_id
            n_features = X.shape[1]
            if self.max_features is not None and self.max_features < n_features:
                candidates = rng.choice(n_features, size=self.max_features, replace=False)
            else:
                candidates = np.arange(n_features)
            split = _best_split(X[sample_idx], y[sample_idx], candidates, self.min_leaf)
            if split is None:
                self._n_leaves += 1
                return node_id
            feature, threshold, mask = split
            nodes.feature[node_id] = feature
            nodes.threshold[node_id] = threshold
            left_id = build(sample_idx[mask], depth + 1)
            right_id = build(sample_idx[~mask], depth + 1)
            nodes.left[node_id] = left_id
            nodes.right[node_id] = right_id
            return node_id

        build(np.arange(X.shape[0]), 0)
        self._nodes = nodes.as_arrays()
        return self

    # -- inference --------------------------------------------------------

    def _node_views(self) -> Tuple[memoryview, memoryview, memoryview, memoryview]:
        """Zero-copy ``memoryview``s of the four traversal arrays.

        Indexing a memoryview yields plain ``int``/``float`` where indexing
        the array boxes a NumPy scalar -- four times per visited node in
        :meth:`_leaf_of`.  The views are derived state: kept off the pickle
        (:attr:`derived_attributes`), never a :class:`Parameter`, valid over
        read-only arena views, and rebuilt whenever a ``_nodes`` array has
        been replaced (arena rebind, model-file load) -- checked
        by identity, like the parameter memo.
        """
        nodes = self._nodes
        cached = self.__dict__.get("_node_view_cache")
        if cached is not None:
            arrays, views = cached
            if (
                nodes["feature"] is arrays[0]
                and nodes["threshold"] is arrays[1]
                and nodes["left"] is arrays[2]
                and nodes["right"] is arrays[3]
            ):
                return views
        arrays = (nodes["feature"], nodes["threshold"], nodes["left"], nodes["right"])
        views = tuple(memoryview(array) for array in arrays)
        self._node_view_cache = (arrays, views)
        return views

    def _leaf_of(self, features: Any) -> int:
        """Scalar walk; ``features`` is any float-indexable (an array's memoryview)."""
        feature, threshold, left, right = self._node_views()
        node = 0
        child = left[0]
        while child != -1:
            if features[feature[node]] <= threshold[node]:
                node = child
            else:
                node = right[node]
            child = left[node]
        return node

    def _value_of(self, features: Any) -> float:
        """The leaf value the record lands on (the ensembles' per-tree score)."""
        return float(self._nodes["value"][self._leaf_of(features)])

    supports_batch = True

    def transform(self, value: Any) -> float:
        if self._nodes is None:
            raise RuntimeError("DecisionTree used before fit()")
        return self._value_of(_record_view(value))

    def transform_batch(self, values: Any) -> ColumnBatch:
        """Score a whole batch with one level-order descent of the node arrays."""
        if self._nodes is None:
            raise RuntimeError("DecisionTree used before fit()")
        batch = as_column_batch(values)
        if not batch:
            return ColumnBatch.from_scalars(np.empty(0, dtype=np.float64))
        matrix = batch_matrix(batch)
        if matrix is None:
            return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])
        nodes = self._nodes
        leaves = _descend(
            nodes["feature"], nodes["threshold"], nodes["left"], nodes["right"], _ROOT, matrix
        )
        return ColumnBatch.from_scalars(nodes["value"][leaves[:, 0]])

    def leaf_index(self, value: Any) -> int:
        """Index of the leaf the record falls into (used by TreeFeaturizer)."""
        if self._nodes is None:
            raise RuntimeError("DecisionTree used before fit()")
        return self._leaf_of(_record_view(value))

    # -- bookkeeping ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return 0 if self._nodes is None else int(self._nodes["feature"].shape[0])

    def parameters(self) -> List[Parameter]:
        params = [
            Parameter(
                "tree.config",
                {"max_depth": self.max_depth, "min_leaf": self.min_leaf, "seed": self.seed},
            )
        ]
        if self._nodes is not None:
            params.append(Parameter("tree.nodes", self._nodes, owner=self))
        return params

    def output_size(self) -> Optional[int]:
        return 1

    def _config(self) -> Dict[str, Any]:
        return {"max_depth": self.max_depth, "min_leaf": self.min_leaf, "seed": self.seed}


class _TreeEnsemble(Operator):
    """An operator over member decision trees, batched as one node arena.

    Its batch kernel descends every member tree at once over a
    :class:`_FlatEnsemble`.  The arena is derived state, like the trees'
    memoryviews: kept off the pickle (:attr:`derived_attributes`), never a
    :class:`Parameter` (so :meth:`memory_bytes` does not count it), built by
    :meth:`prepare` under AOT, and rebuilt whenever a member's node array is
    no longer the object it was copied from (refit, arena rebind,
    model-file load).
    """

    derived_attributes = Operator.derived_attributes + ("_arena",)
    supports_batch = True
    trees: List[DecisionTree]

    def prepare(self) -> None:
        if self.trees:
            self._node_arena()

    def _node_arena(self) -> _FlatEnsemble:
        arena = self.__dict__.get("_arena")
        if arena is None or not arena.built_from(self.trees):
            arena = self._arena = _FlatEnsemble(self.trees)
        return arena

    def transform_batch(self, values: Any) -> ColumnBatch:
        """One arena descent for the whole batch; the scalar loop for non-vectors."""
        if not self.trees:
            raise RuntimeError(f"{self.name} used before fit()")
        batch = as_column_batch(values)
        if not batch:
            return self._empty_batch()
        matrix = batch_matrix(batch)
        if matrix is None:
            return ColumnBatch.from_rows([self.transform(value) for value in batch.rows])
        arena = self._node_arena()
        return self._from_leaves(arena, arena.leaves(matrix))

    def _empty_batch(self) -> ColumnBatch:
        return ColumnBatch.from_rows([])

    def _from_leaves(self, arena: _FlatEnsemble, leaves: np.ndarray) -> ColumnBatch:
        """The batch output from the ``(n_records, n_trees)`` arena leaf indices."""
        raise NotImplementedError

    def _member_parameters(self, prefix: str) -> List[Parameter]:
        """Each fitted member's node arrays as ``{prefix}.tree{i}.nodes`` (memo on the member)."""
        return [
            Parameter(f"{prefix}.tree{index}.nodes", tree._nodes, owner=tree)
            for index, tree in enumerate(self.trees)
            if tree._nodes is not None
        ]


class RandomForest(_TreeEnsemble):
    """Bagged ensemble of regression trees (mean aggregation)."""

    name = "RandomForest"
    kind = OperatorKind.PREDICTOR
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.SCALAR
    annotations = Annotation.ONE_TO_ONE | Annotation.COMPUTE_BOUND

    def __init__(
        self,
        n_trees: int = 8,
        max_depth: int = 6,
        min_leaf: int = 4,
        feature_fraction: float = 0.7,
        seed: int = 0,
    ):
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.feature_fraction = float(feature_fraction)
        self.seed = int(seed)
        self.trees: List[DecisionTree] = []

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        if labels is None:
            raise ValueError("RandomForest requires labels to fit")
        X = [as_vector(r) for r in records]
        y = np.asarray(labels, dtype=np.float64)
        n_samples = len(X)
        n_features = X[0].size if X else 0
        max_features = max(1, int(round(self.feature_fraction * n_features)))
        rng = np.random.default_rng(self.seed)
        self.trees = []
        for tree_index in range(self.n_trees):
            sample = rng.integers(0, n_samples, size=n_samples)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                max_features=max_features,
                seed=self.seed + tree_index,
            )
            tree.fit([X[i] for i in sample], y[sample])
            self.trees.append(tree)
        return self

    def transform(self, value: Any) -> float:
        if not self.trees:
            raise RuntimeError("RandomForest used before fit()")
        record = _record_view(value)
        return float(np.mean([tree._value_of(record) for tree in self.trees]))

    def _empty_batch(self) -> ColumnBatch:
        return ColumnBatch.from_scalars(np.empty(0, dtype=np.float64))

    def _from_leaves(self, arena: _FlatEnsemble, leaves: np.ndarray) -> ColumnBatch:
        # The one float reduction of the tree families: the mean may differ
        # from the scalar one in the last ulp (the oracle's rtol carve-out).
        return ColumnBatch.from_scalars(np.mean(arena.value[leaves], axis=1))

    def parameters(self) -> List[Parameter]:
        return [
            Parameter(
                "forest.config",
                {
                    "n_trees": self.n_trees,
                    "max_depth": self.max_depth,
                    "feature_fraction": self.feature_fraction,
                    "seed": self.seed,
                },
            ),
            *self._member_parameters("forest"),
        ]

    def output_size(self) -> Optional[int]:
        return 1

    def _config(self) -> Dict[str, Any]:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "feature_fraction": self.feature_fraction,
        }


class TreeEnsembleClassifier(_TreeEnsemble):
    """Multi-class classifier built from one regression tree per class.

    Outputs the vector of per-class scores (one-vs-rest), matching the
    "multi-class tree-based classifier" stage of the AC pipelines.
    """

    name = "TreeEnsembleClassifier"
    kind = OperatorKind.PREDICTOR
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.VECTOR
    annotations = Annotation.ONE_TO_ONE | Annotation.COMPUTE_BOUND

    def __init__(
        self,
        n_classes: int = 3,
        max_depth: int = 5,
        min_leaf: int = 4,
        max_features: Optional[int] = None,
        seed: int = 0,
    ):
        self.n_classes = int(n_classes)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.seed = int(seed)
        self.trees: List[DecisionTree] = []

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        if labels is None:
            raise ValueError("TreeEnsembleClassifier requires labels to fit")
        y = np.asarray(labels)
        self.trees = []
        for cls in range(self.n_classes):
            indicator = (y == cls).astype(np.float64)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                max_features=self.max_features,
                seed=self.seed + cls,
            )
            tree.fit(records, indicator)
            self.trees.append(tree)
        return self

    def transform(self, value: Any) -> DenseVector:
        if not self.trees:
            raise RuntimeError("TreeEnsembleClassifier used before fit()")
        record = _record_view(value)
        return DenseVector(np.array([tree._value_of(record) for tree in self.trees]))

    def _from_leaves(self, arena: _FlatEnsemble, leaves: np.ndarray) -> ColumnBatch:
        """Per-class score columns: each tree's leaf value, one column per tree."""
        return ColumnBatch.from_matrix(arena.value[leaves])

    def predict_class(self, value: Any) -> int:
        return int(np.argmax(self.transform(value).values))

    def parameters(self) -> List[Parameter]:
        return [
            Parameter(
                "treeclassifier.config",
                {"n_classes": self.n_classes, "max_depth": self.max_depth, "seed": self.seed},
            ),
            *self._member_parameters("treeclassifier"),
        ]

    def output_size(self) -> Optional[int]:
        return self.n_classes

    def _config(self) -> Dict[str, Any]:
        return {"n_classes": self.n_classes, "max_depth": self.max_depth}


class TreeFeaturizer(_TreeEnsemble):
    """Encode a record as the one-hot concatenation of per-tree leaf indices.

    This is the classic "gradient-boosted trees as featurizer" trick: the
    position of a record in each tree of a small forest becomes a sparse
    categorical feature for a downstream model.
    """

    name = "TreeFeaturizer"
    kind = OperatorKind.FEATURIZER
    input_kind = ValueKind.VECTOR
    output_kind = ValueKind.VECTOR
    annotations = Annotation.ONE_TO_ONE | Annotation.COMPUTE_BOUND
    produces_sparse = True

    def __init__(
        self,
        n_trees: int = 4,
        max_depth: int = 4,
        min_leaf: int = 4,
        max_features: Optional[int] = None,
        seed: int = 0,
    ):
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.max_features = max_features
        self.seed = int(seed)
        self.trees: List[DecisionTree] = []

    def fit(self, records: Sequence[Any], labels: Optional[Sequence[float]] = None) -> "Operator":
        if labels is None:
            raise ValueError("TreeFeaturizer requires labels to fit")
        X = [as_vector(r) for r in records]
        y = np.asarray(labels, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        n_samples = len(X)
        self.trees = []
        for tree_index in range(self.n_trees):
            sample = rng.integers(0, n_samples, size=n_samples)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                max_features=self.max_features,
                seed=self.seed + tree_index,
            )
            tree.fit([X[i] for i in sample], y[sample])
            self.trees.append(tree)
        return self

    def transform(self, value: Any) -> SparseVector:
        if not self.trees:
            raise RuntimeError("TreeFeaturizer used before fit()")
        record = _record_view(value)
        indices: List[int] = []
        offset = 0
        for tree in self.trees:
            indices.append(offset + tree._leaf_of(record))
            offset += tree.n_nodes
        # One leaf per tree, each past the previous tree's node range: the
        # indices are strictly increasing and below ``offset`` by construction.
        return SparseVector.from_sorted(
            np.array(indices, dtype=np.int64), np.ones(len(indices), dtype=np.float64), offset
        )

    def _from_leaves(self, arena: _FlatEnsemble, leaves: np.ndarray) -> ColumnBatch:
        """The batch as one sparse column, straight from the arena leaf indices.

        An arena index *is* the feature index (cumulative node offset plus
        local leaf index), so the ``(n, n_trees)`` leaf matrix is the CSR
        storage as is: one increasing index per tree per record, ``indptr`` a
        stride-``n_trees`` range and the data ones.
        """
        n_records, n_trees = leaves.shape
        return ColumnBatch.from_csr(
            np.arange(0, n_records * n_trees + 1, n_trees),
            leaves.reshape(-1),
            np.ones(leaves.size, dtype=np.float64),
            arena.feature.shape[0],
        )

    def parameters(self) -> List[Parameter]:
        return [
            Parameter(
                "treefeaturizer.config",
                {"n_trees": self.n_trees, "max_depth": self.max_depth, "seed": self.seed},
            ),
            *self._member_parameters("treefeaturizer"),
        ]

    def output_size(self) -> Optional[int]:
        return sum(tree.n_nodes for tree in self.trees) if self.trees else None

    def _config(self) -> Dict[str, Any]:
        return {"n_trees": self.n_trees, "max_depth": self.max_depth}
