"""Tests for tree-based operators, KMeans and PCA."""

import pickle

import numpy as np
import pytest

from repro.operators.clustering import KMeans
from repro.operators.decomposition import PCA
from repro.operators.trees import DecisionTree, RandomForest, TreeEnsembleClassifier, TreeFeaturizer
from repro.operators.vectors import DenseVector, SparseVector


def _step_data(n=120, seed=2):
    """Labels depend on a threshold over one feature (a tree-friendly target)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    y = np.where(X[:, 1] > 0.2, 10.0, -5.0) + rng.normal(scale=0.1, size=n)
    return [DenseVector(row) for row in X], y


class TestDecisionTree:
    def test_learns_threshold(self):
        records, labels = _step_data()
        tree = DecisionTree(max_depth=3, min_leaf=4).fit(records, labels)
        high = tree.transform(DenseVector([0.0, 0.9, 0.0, 0.0]))
        low = tree.transform(DenseVector([0.0, -0.9, 0.0, 0.0]))
        assert high > 5.0
        assert low < 0.0

    def test_leaf_index_within_bounds(self):
        records, labels = _step_data()
        tree = DecisionTree(max_depth=3).fit(records, labels)
        for record in records[:20]:
            assert 0 <= tree.leaf_index(record) < tree.n_nodes

    def test_max_depth_limits_nodes(self):
        records, labels = _step_data()
        shallow = DecisionTree(max_depth=1).fit(records, labels)
        deep = DecisionTree(max_depth=5).fit(records, labels)
        assert shallow.n_nodes <= 3
        assert deep.n_nodes >= shallow.n_nodes

    def test_constant_labels_single_leaf(self):
        records, _ = _step_data(n=30)
        tree = DecisionTree(max_depth=4).fit(records, np.ones(30))
        assert tree.n_nodes == 1
        assert tree.transform(records[0]) == pytest.approx(1.0)

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            DecisionTree().fit([DenseVector([1.0])])

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTree().transform(DenseVector([1.0]))


class TestRandomForest:
    def test_regression_quality(self):
        records, labels = _step_data()
        forest = RandomForest(n_trees=5, max_depth=3, seed=1).fit(records, labels)
        predictions = np.array([forest.transform(r) for r in records])
        # The forest should at least separate the two regimes.
        high = predictions[np.asarray(labels) > 0].mean()
        low = predictions[np.asarray(labels) < 0].mean()
        assert high > low + 5.0

    def test_parameters_contain_all_trees(self):
        records, labels = _step_data(n=60)
        forest = RandomForest(n_trees=3, max_depth=2).fit(records, labels)
        tree_params = [p for p in forest.parameters() if "nodes" in p.name]
        assert len(tree_params) == 3


class TestTreeEnsembleClassifier:
    def test_predicts_reasonable_classes(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 3))
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5).astype(int)  # classes 0..2
        records = [DenseVector(row) for row in X]
        clf = TreeEnsembleClassifier(n_classes=3, max_depth=4).fit(records, y)
        predictions = [clf.predict_class(r) for r in records]
        accuracy = np.mean(np.asarray(predictions) == y)
        assert accuracy > 0.6

    def test_output_vector_length(self):
        records, labels = _step_data(n=60)
        classes = (np.asarray(labels) > 0).astype(int)
        clf = TreeEnsembleClassifier(n_classes=2, max_depth=2).fit(records, classes)
        assert clf.transform(records[0]).size == 2
        assert clf.output_size() == 2


class TestTreeFeaturizer:
    def test_one_hot_leaf_encoding(self):
        records, labels = _step_data()
        featurizer = TreeFeaturizer(n_trees=3, max_depth=3).fit(records, labels)
        vec = featurizer.transform(records[0])
        assert isinstance(vec, SparseVector)
        assert vec.nnz() == 3  # one active leaf per tree
        assert vec.size == featurizer.output_size()

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            TreeFeaturizer().transform(DenseVector([1.0]))


class TestKMeans:
    def test_clusters_separated_blobs(self):
        rng = np.random.default_rng(6)
        blob_a = rng.normal(loc=0.0, scale=0.2, size=(40, 2))
        blob_b = rng.normal(loc=5.0, scale=0.2, size=(40, 2))
        records = [DenseVector(row) for row in np.vstack([blob_a, blob_b])]
        model = KMeans(n_clusters=2, seed=0).fit(records)
        cluster_a = model.predict_cluster(DenseVector([0.0, 0.0]))
        cluster_b = model.predict_cluster(DenseVector([5.0, 5.0]))
        assert cluster_a != cluster_b

    def test_output_is_distance_vector(self):
        records = [DenseVector([float(i), 0.0]) for i in range(10)]
        model = KMeans(n_clusters=3, seed=1).fit(records)
        distances = model.transform(DenseVector([0.0, 0.0]))
        assert distances.size == 3
        assert (distances.values >= 0).all()

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=5).fit([DenseVector([0.0])])

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            KMeans().transform(DenseVector([0.0]))


class TestPCA:
    def test_projects_to_requested_dimension(self):
        rng = np.random.default_rng(8)
        records = [DenseVector(row) for row in rng.normal(size=(50, 6))]
        pca = PCA(n_components=2).fit(records)
        assert pca.transform(records[0]).size == 2

    def test_captures_dominant_direction(self):
        rng = np.random.default_rng(9)
        latent = rng.normal(size=100)
        X = np.outer(latent, np.array([1.0, 1.0, 0.0])) + rng.normal(scale=0.01, size=(100, 3))
        pca = PCA(n_components=1).fit([DenseVector(row) for row in X])
        # The first component must align with (1, 1, 0) / sqrt(2).
        component = np.abs(pca.components[0])
        assert component[0] == pytest.approx(component[1], abs=0.05)
        assert component[2] < 0.1

    def test_too_many_components_rejected(self):
        records = [DenseVector([1.0, 2.0]), DenseVector([2.0, 1.0])]
        with pytest.raises(ValueError):
            PCA(n_components=5).fit(records)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            PCA(n_components=1).transform(DenseVector([1.0, 2.0]))


def _numpy_walk(tree, features):
    """The pre-memoryview scalar walk, kept as the oracle: NumPy scalar
    indexing and comparisons on the node arrays themselves."""
    nodes = tree._nodes
    node = 0
    while nodes["left"][node] != -1:
        if features[nodes["feature"][node]] <= nodes["threshold"][node]:
            node = int(nodes["left"][node])
        else:
            node = int(nodes["right"][node])
    return node


class TestScalarWalkViews:
    """The scalar tree walk indexes memoryviews of the node arrays (derived state)."""

    def _tree(self):
        records, labels = _step_data(n=200, seed=4)
        return DecisionTree(max_depth=5, min_leaf=2).fit(records, labels), records

    def test_leaves_match_the_numpy_walk_including_nan_and_inf(self):
        tree, records = self._tree()
        rng = np.random.default_rng(9)
        probes = [record.to_numpy() for record in records[:40]]
        for _ in range(40):
            row = rng.uniform(-1, 1, size=4)
            row[rng.integers(0, 4)] = rng.choice([np.nan, np.inf, -np.inf, -0.0])
            probes.append(row)
        for row in probes:
            leaf = tree.leaf_index(DenseVector(row))
            assert type(leaf) is int
            assert leaf == _numpy_walk(tree, row)
            assert tree.transform(DenseVector(row)) == float(tree._nodes["value"][leaf])
        matrix = np.vstack(probes)
        assert tree._leaves_of(matrix).tolist() == [_numpy_walk(tree, row) for row in probes]

    def test_views_are_zero_copy_derived_state_kept_off_the_pickle(self):
        tree, records = self._tree()
        before = pickle.dumps(tree)
        tree.transform(records[0])
        arrays, views = tree.__dict__["_node_view_cache"]
        assert all(view.obj is array for view, array in zip(views, arrays))
        assert [array is tree._nodes[key] for array, key in zip(arrays, ("feature", "threshold", "left", "right"))] == [True] * 4
        assert pickle.dumps(tree) == before
        clone = pickle.loads(pickle.dumps(tree))
        assert "_node_view_cache" not in clone.__dict__
        assert clone.transform(records[1]) == tree.transform(records[1])
        assert [parameter.name for parameter in tree.parameters()] == ["tree.config", "tree.nodes"]

    def test_views_follow_a_replaced_node_array(self):
        """Arena rebind / privatize swap arrays under a live tree: the views
        are identity-checked and must never walk the array that was replaced."""
        tree, records = self._tree()
        probe = records[3]
        leaf = tree.leaf_index(probe)
        stale_views = tree.__dict__["_node_view_cache"][1]
        # a read-only copy, as an arena view is
        for key in ("feature", "threshold", "left", "right"):
            replacement = tree._nodes[key].copy()
            replacement.setflags(write=False)
            tree._nodes[key] = replacement
        assert tree.leaf_index(probe) == leaf
        fresh_views = tree.__dict__["_node_view_cache"][1]
        assert all(fresh.obj is not stale.obj for fresh, stale in zip(fresh_views, stale_views))
        # a genuinely different tree under the same object: a stump
        tree._nodes = {
            "feature": np.array([-1], dtype=np.int64),
            "threshold": np.array([0.0]),
            "left": np.array([-1], dtype=np.int64),
            "right": np.array([-1], dtype=np.int64),
            "value": np.array([42.0]),
        }
        assert tree.leaf_index(probe) == 0 and tree.transform(probe) == 42.0

    def test_ensembles_share_the_walk_and_match_their_batch_kernels(self):
        records, labels = _step_data(n=160, seed=6)
        classes = (np.asarray(labels) > 0).astype(int)
        for ensemble, targets in (
            (RandomForest(n_trees=4, max_depth=4, seed=1), labels),
            (TreeEnsembleClassifier(n_classes=2, max_depth=3), classes),
            (TreeFeaturizer(n_trees=5, max_depth=3, seed=2), labels),
        ):
            ensemble.fit(records, targets)
            batch = ensemble.transform_batch(records[:25]).rows
            for record, expected in zip(records[:25], batch):
                got = ensemble.transform(record)
                if isinstance(got, SparseVector):
                    assert got.indices.dtype == expected.indices.dtype == np.int64
                    assert got.indices.tolist() == expected.indices.tolist()
                    assert got.values.tolist() == expected.values.tolist()
                    assert got.size == expected.size
                elif isinstance(got, DenseVector):
                    assert got.values.tolist() == expected.values.tolist()
                else:
                    assert got == expected
            assert all("_node_view_cache" in tree.__dict__ for tree in ensemble.trees)


def test_sparse_vector_from_sorted_wraps_without_copying():
    indices = np.array([1, 4, 9], dtype=np.int64)
    values = np.ones(3)
    trusted = SparseVector.from_sorted(indices, values, 12)
    assert trusted.indices is indices and trusted.values is values and trusted.size == 12
    assert trusted == SparseVector([1, 4, 9], [1.0, 1.0, 1.0], 12)
