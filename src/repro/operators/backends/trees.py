"""The ``fused`` backend: whole-ensemble tree traversal over flattened arrays.

The reference kernels of the ensemble families (:class:`RandomForest`,
:class:`TreeEnsembleClassifier`, :class:`TreeFeaturizer`) loop over their
member trees in Python, paying one full level-order traversal -- and its
handful of small numpy dispatches per level -- per tree.  The fused kernels
flatten every member tree's node arrays into one concatenated arena (child
indices rebased so each tree's subtree addresses its own slice) and run a
*single* level-order traversal over ``n_records x n_trees`` lanes: per tree
level, one gather + one compare + one select over the whole ensemble instead
of per tree.  The comparisons are exactly the scalar ``_leaf_of`` ones
evaluated in a different grouping, so the leaves -- and every output derived
from them -- are bit-equal; only :class:`RandomForest`'s final mean is a
float reduction (already under the oracle's relative-tolerance carve-out).

The flattened arena is cached per operator (invalidated when the operator is
refit, detected by the identity of its trees' node arrays), so steady-state
dispatch costs one dict probe.
"""

from __future__ import annotations

import weakref
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.operators.backends import register_backend, register_kernel
from repro.operators.batch import ColumnBatch, as_column_batch, batch_matrix
from repro.operators.trees import DecisionTree, leaf_csr

register_backend(
    "fused",
    description="whole-ensemble level-order traversal over flattened node arrays",
)


class _FlatEnsemble:
    """All member trees' node arrays concatenated into one arena."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "roots", "token")

    def __init__(self, trees: List[DecisionTree], token: Tuple[int, ...]) -> None:
        offsets = []
        offset = 0
        for tree in trees:
            offsets.append(offset)
            offset += tree.n_nodes
        self.feature = np.concatenate([tree._nodes["feature"] for tree in trees])
        self.threshold = np.concatenate([tree._nodes["threshold"] for tree in trees])
        # Rebase child indices into the arena; -1 leaf markers stay -1.
        self.left = np.concatenate(
            [
                np.where(tree._nodes["left"] >= 0, tree._nodes["left"] + base, -1)
                for base, tree in zip(offsets, trees)
            ]
        )
        self.right = np.concatenate(
            [
                np.where(tree._nodes["right"] >= 0, tree._nodes["right"] + base, -1)
                for base, tree in zip(offsets, trees)
            ]
        )
        self.value = np.concatenate([tree._nodes["value"] for tree in trees])
        #: arena index of each tree's root == its cumulative node offset, so a
        #: lane's final arena index is exactly ``offset + local leaf index``.
        self.roots = np.asarray(offsets, dtype=np.int64)
        self.token = token

    def leaves(self, matrix: np.ndarray) -> np.ndarray:
        """Arena leaf indices, shape ``(n_records, n_trees)``.

        One lane per (record, tree) pair; every pass descends all still-active
        lanes one tree level with a single gather/compare/select, mirroring
        :meth:`DecisionTree._leaves_of` across the whole ensemble at once.
        """
        n_records = matrix.shape[0]
        n_trees = self.roots.shape[0]
        state = np.tile(self.roots, n_records)
        lane_rows = np.repeat(np.arange(n_records), n_trees)
        active = np.flatnonzero(self.left[state] != -1)
        while active.size:
            current = state[active]
            go_left = (
                matrix[lane_rows[active], self.feature[current]]
                <= self.threshold[current]
            )
            state[active] = np.where(go_left, self.left[current], self.right[current])
            active = active[self.left[state[active]] != -1]
        return state.reshape(n_records, n_trees)


#: flattened arenas, keyed per ensemble operator; weak keys so unregistered
#: plans do not pin their ensembles (and their arenas) in memory.
_ARENAS: "weakref.WeakKeyDictionary[Any, _FlatEnsemble]" = weakref.WeakKeyDictionary()


def _arena_of(operator: Any, trees: List[DecisionTree]) -> _FlatEnsemble:
    # The token pins the exact trained state: refitting replaces the node
    # arrays, which invalidates the cached arena.
    token = tuple(id(tree._nodes["feature"]) for tree in trees)
    arena = _ARENAS.get(operator)
    if arena is None or arena.token != token:
        arena = _FlatEnsemble(trees, token)
        _ARENAS[operator] = arena
    return arena


def _ensemble_matrix(operator: Any, values: Any) -> Tuple[Optional[np.ndarray], Any]:
    """The dense feature matrix, or None with the coerced batch for fallback."""
    batch = as_column_batch(values)
    if not batch:
        return None, batch
    return batch_matrix(batch), batch


@register_kernel("RandomForest", "fused", exact=False)
def random_forest_fused(operator: Any, values: Any) -> ColumnBatch:
    """Forest mean from one whole-ensemble traversal (one lane per record x tree)."""
    if not operator.trees:
        raise RuntimeError("RandomForest used before fit()")
    matrix, batch = _ensemble_matrix(operator, values)
    if not batch:
        return ColumnBatch.from_scalars(np.empty(0, dtype=np.float64))
    if matrix is None:
        return operator.transform_batch(batch)
    arena = _arena_of(operator, operator.trees)
    scores = arena.value[arena.leaves(matrix)]
    return ColumnBatch.from_scalars(np.mean(scores, axis=1))


@register_kernel("TreeEnsembleClassifier", "fused")
def tree_ensemble_classifier_fused(operator: Any, values: Any) -> ColumnBatch:
    """Per-class score columns from one whole-ensemble traversal (bit-equal)."""
    if not operator.trees:
        raise RuntimeError("TreeEnsembleClassifier used before fit()")
    matrix, batch = _ensemble_matrix(operator, values)
    if not batch:
        return ColumnBatch.from_rows([])
    if matrix is None:
        return operator.transform_batch(batch)
    arena = _arena_of(operator, operator.trees)
    scores = arena.value[arena.leaves(matrix)]
    return ColumnBatch.from_matrix(scores)


@register_kernel("TreeFeaturizer", "fused")
def tree_featurizer_fused(operator: Any, values: Any) -> ColumnBatch:
    """One-hot leaf encodings straight from the arena indices (bit-equal).

    The arena index of a leaf *is* ``cumulative node offset + local leaf
    index`` -- exactly the feature index the reference kernel computes per
    tree -- so the traversal output needs no per-tree rebasing at all.
    """
    if not operator.trees:
        raise RuntimeError("TreeFeaturizer used before fit()")
    matrix, batch = _ensemble_matrix(operator, values)
    if not batch:
        return ColumnBatch.from_rows([])
    if matrix is None:
        return operator.transform_batch(batch)
    arena = _arena_of(operator, operator.trees)
    return leaf_csr(arena.leaves(matrix), arena.feature.shape[0])
