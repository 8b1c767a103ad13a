"""Tests for tree-based operators, KMeans and PCA."""

import pickle

import numpy as np
import pytest

from repro.operators.clustering import KMeans
from repro.operators.decomposition import PCA
from repro.operators.trees import (
    _ROOT,
    DecisionTree,
    RandomForest,
    TreeEnsembleClassifier,
    TreeFeaturizer,
    _descend,
)
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
        nodes = tree._nodes
        leaves = _descend(
            nodes["feature"], nodes["threshold"], nodes["left"], nodes["right"], _ROOT, matrix
        )
        assert leaves[:, 0].tolist() == [_numpy_walk(tree, row) for row in probes]
        assert tree.transform_batch([DenseVector(row) for row in probes]).rows == [
            float(nodes["value"][_numpy_walk(tree, row)]) for row in probes
        ]

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
        """An arena rebind swaps arrays under a live tree: the views
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


#: batch sizes around the old 16-record slice, plus one and two large calls
BATCH_SIZES = [1, 15, 16, 17, 100, 256]

#: (family, factory, training target, bit-equal to the scalar oracle); the
#: forest's mean is the one float reduction and gets the rtol carve-out
TREE_FAMILIES = [
    ("DecisionTree", lambda: DecisionTree(max_depth=5, min_leaf=2, seed=1), "labels", True),
    ("RandomForest", lambda: RandomForest(n_trees=6, max_depth=4, seed=2), "labels", False),
    (
        "TreeEnsembleClassifier",
        lambda: TreeEnsembleClassifier(n_classes=3, max_depth=4, seed=3),
        "classes",
        True,
    ),
    ("TreeFeaturizer", lambda: TreeFeaturizer(n_trees=5, max_depth=4, seed=4), "labels", True),
]


def _fit(factory, target, seed=8):
    records, labels = _step_data(n=200, seed=seed)
    first = np.array([record.values[0] > 0.3 for record in records], dtype=int)
    targets = {"labels": labels, "classes": (np.asarray(labels) > 0).astype(int) + first}
    return factory().fit(records, targets[target])


def _probe_rows(n, seed=11):
    """Uniform rows with NaN, +-inf and -0.0 entries mixed in."""
    rng = np.random.default_rng(seed + n)
    matrix = rng.uniform(-1, 1, size=(n, 4))
    mask = rng.random(size=matrix.shape) < 0.05
    matrix[mask] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=int(mask.sum()))
    return [DenseVector(row) for row in matrix]


def _assert_batch_matches_scalar(operator, rows, exact):
    batched = operator.transform_batch(rows)
    assert len(batched) == len(rows)
    for got, record in zip(batched.rows, rows):
        expected = operator.transform(record)
        if isinstance(expected, SparseVector):
            assert isinstance(got, SparseVector) and got.size == expected.size
            assert got.indices.tolist() == expected.indices.tolist()
            assert got.values.tolist() == expected.values.tolist()
        elif isinstance(expected, DenseVector):
            assert got.values.tolist() == expected.values.tolist()
        elif exact:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def _trees_of(operator):
    return operator.trees if hasattr(operator, "trees") else [operator]


@pytest.fixture(scope="module")
def fitted_trees():
    return {name: (_fit(factory, target), exact) for name, factory, target, exact in TREE_FAMILIES}


_FAMILY_IDS = [family[0] for family in TREE_FAMILIES]


class TestBatchKernels:
    """``transform_batch`` is one level-order descent (an arena for ensembles)."""

    @pytest.mark.parametrize("n", BATCH_SIZES)
    @pytest.mark.parametrize("name", _FAMILY_IDS)
    def test_transform_batch_matches_the_scalar_loop(self, fitted_trees, name, n):
        operator, exact = fitted_trees[name]
        _assert_batch_matches_scalar(operator, _probe_rows(n), exact)

    @pytest.mark.parametrize("name", _FAMILY_IDS)
    def test_sparse_rows_match_the_scalar_loop(self, fitted_trees, name):
        """Sparse records reach the descent through the batch's CSR scatter."""
        operator, exact = fitted_trees[name]
        rows = []
        for row in _probe_rows(40):
            dense = row.to_numpy()
            dense[::2] = 0.0
            nonzero = np.flatnonzero(dense)
            rows.append(SparseVector(nonzero, dense[nonzero], dense.shape[0]))
        _assert_batch_matches_scalar(operator, rows, exact)

    @pytest.mark.parametrize("name,factory,target,exact", TREE_FAMILIES, ids=_FAMILY_IDS)
    def test_ragged_rows_fall_back_to_the_scalar_loop(self, name, factory, target, exact):
        """Rows of different widths form no matrix: every record takes the
        scalar ``transform``, and no arena is built for them."""
        operator = _fit(factory, target)
        rows = [
            DenseVector(np.append(row.to_numpy(), [0.5, -0.5])) if index % 3 == 0 else row
            for index, row in enumerate(_probe_rows(20))
        ]
        _assert_batch_matches_scalar(operator, rows, exact)
        assert "_arena" not in operator.__dict__

    @pytest.mark.parametrize("name", _FAMILY_IDS)
    def test_empty_batch_is_an_empty_column(self, fitted_trees, name):
        operator, _ = fitted_trees[name]
        assert len(operator.transform_batch([])) == 0

    @pytest.mark.parametrize("name,factory,target,exact", TREE_FAMILIES, ids=_FAMILY_IDS)
    def test_batch_before_fit_raises(self, name, factory, target, exact):
        with pytest.raises(RuntimeError, match="before fit"):
            factory().transform_batch(_probe_rows(3))

    @pytest.mark.parametrize("name,factory,target,exact", TREE_FAMILIES, ids=_FAMILY_IDS)
    def test_refit_after_a_batch_call_serves_the_new_trees(self, name, factory, target, exact):
        operator = _fit(factory, target)
        rows = _probe_rows(40)
        operator.transform_batch(rows)
        stale = operator.__dict__.get("_arena")
        records, labels = _step_data(n=150, seed=21)
        operator.fit(records, labels if target == "labels" else np.arange(150) % 3)
        _assert_batch_matches_scalar(operator, rows, exact)
        if stale is not None:
            assert operator.__dict__["_arena"] is not stale
            assert not stale.built_from(operator.trees)

    @pytest.mark.parametrize("name,factory,target,exact", TREE_FAMILIES, ids=_FAMILY_IDS)
    def test_swapped_node_arrays_rebuild_the_arena(self, name, factory, target, exact):
        """An arena rebind replaces node arrays with equal copies
        under a live operator; a refit replaces them with different ones."""
        operator = _fit(factory, target)
        rows = _probe_rows(60)
        operator.transform_batch(rows)
        stale = operator.__dict__.get("_arena")
        for tree in _trees_of(operator):
            for key in list(tree._nodes):
                replacement = tree._nodes[key].copy()
                replacement.setflags(write=False)  # read-only, as an arena view is
                tree._nodes[key] = replacement
        _assert_batch_matches_scalar(operator, rows, exact)
        if stale is not None:
            fresh = operator.__dict__["_arena"]
            assert fresh is not stale and fresh.built_from(operator.trees)
            assert not stale.built_from(operator.trees)
        # one array of one tree, with different content: identity, not content
        last = _trees_of(operator)[-1]
        last._nodes["threshold"] = last._nodes["threshold"] + 0.25
        _assert_batch_matches_scalar(operator, rows, exact)

    @pytest.mark.parametrize("name,factory,target,exact", TREE_FAMILIES, ids=_FAMILY_IDS)
    def test_arena_is_derived_state(self, name, factory, target, exact):
        operator = _fit(factory, target)
        pickled = pickle.dumps(operator)
        parameters = [(p.name, p.checksum, p.nbytes) for p in operator.parameters()]
        accounted = operator.memory_bytes()
        operator.prepare()
        arena = operator.__dict__.get("_arena")
        assert (arena is not None) == hasattr(operator, "trees")
        operator.transform_batch(_probe_rows(17))
        operator.prepare()
        assert operator.__dict__.get("_arena") is arena  # idempotent, not rebuilt
        assert "_arena" not in operator.__getstate__()
        assert pickle.dumps(operator) == pickled
        assert [(p.name, p.checksum, p.nbytes) for p in operator.parameters()] == parameters
        assert operator.memory_bytes() == accounted


def test_batch_calls_leave_an_ac_plans_bytes_and_accounting_unchanged():
    """The arenas a batch call builds never reach what identifies or sizes a model."""
    from repro.core import PretzelConfig, PretzelRuntime
    from repro.serving import encode_model
    from repro.workloads import build_attendee_family

    family = build_attendee_family(
        n_pipelines=3,
        n_pca_versions=1,
        n_kmeans_versions=1,
        n_tree_featurizer_versions=1,
        n_configurations=1,
        tree_featurizer_trees=4,
        seed=5,
    )
    generated = family.pipelines[2]  # the DecisionTree-final variant
    pipeline = generated.pipeline

    def snapshot():
        return (
            encode_model(pipeline, generated.stats),
            [operator.signature() for operator in pipeline.operators()],
            [operator.memory_bytes() for operator in pipeline.operators()],
        )

    before = snapshot()
    ensembles = [
        operator
        for operator in pipeline.operators()
        if isinstance(operator, (TreeFeaturizer, TreeEnsembleClassifier))
    ]
    assert len(ensembles) == 2
    with PretzelRuntime(PretzelConfig(enable_stage_batching=True)) as runtime:
        plan_id = runtime.register(pipeline, stats=generated.stats)
        assert all("_arena" in op.__dict__ for op in ensembles)  # built by AOT prepare()
        accounted = runtime.memory_bytes()
        assert len(runtime.predict_batch(plan_id, family.sample_inputs(100))) == 100
        assert runtime.memory_bytes() == accounted
    assert snapshot() == before


def test_sparse_vector_from_sorted_wraps_without_copying():
    indices = np.array([1, 4, 9], dtype=np.int64)
    values = np.ones(3)
    trusted = SparseVector.from_sorted(indices, values, 12)
    assert trusted.indices is indices and trusted.values is values and trusted.size == 12
    assert trusted == SparseVector([1, 4, 9], [1.0, 1.0, 1.0], 12)
