"""Derived operator state -- parameter checksum memos and n-gram key tables.

Both are rebuilt per process from the trained state and owned by the object
that holds it, so they must (a) die with that object -- a worker that unpickles
N plans sharing one dictionary keeps one copy, and none once every plan is
unregistered -- and (b) stay invisible to everything that identifies or
accounts a model: pickles, signatures, checksums and memory accounting.
"""

import gc
import weakref

import pytest

from repro.core import PretzelConfig, PretzelRuntime
from repro.operators.text import NgramDictionary
from repro.serving import decode_model, encode_model
from repro.workloads import build_sentiment_family

N_PLANS = 8


@pytest.fixture(scope="module")
def family():
    # one char and one word version: every pipeline shares both dictionaries
    return build_sentiment_family(
        n_pipelines=N_PLANS, n_char_versions=1, n_word_versions=1, seed=5
    )


def _dictionaries(pipeline):
    return [
        operator.dictionary
        for operator in pipeline.operators()
        if isinstance(getattr(operator, "dictionary", None), NgramDictionary)
    ]


def _memo_entries(runtime):
    """Memo entries reachable from the runtime's canonical operators."""
    owners = {}
    for operator in runtime.object_store.operators():
        for owner in (operator, getattr(operator, "dictionary", None)):
            if owner is not None:
                owners[id(owner)] = owner
    return sum(len(owner.__dict__.get("_parameter_memo", ())) for owner in owners.values())


class _Vocabulary(dict):
    """A plain dict cannot be weakly referenced; this one can."""


def test_duplicate_plans_do_not_outlive_object_store_dedup(family):
    """N unpickled plans sharing two vocabularies keep two, then none."""
    blobs = [encode_model(generated.pipeline, generated.stats) for generated in family.pipelines]
    runtime = PretzelRuntime(PretzelConfig())
    try:
        vocabularies = []
        plan_ids = []
        for blob in blobs:
            pipeline, stats = decode_model(blob)
            for dictionary in _dictionaries(pipeline):
                dictionary.ngram_to_index = _Vocabulary(dictionary.ngram_to_index)
                vocabularies.append(weakref.ref(dictionary.ngram_to_index))
            plan_ids.append(runtime.register(pipeline, stats=stats))
            del pipeline, stats, dictionary
        gc.collect()
        assert len(vocabularies) == 2 * N_PLANS
        # only the canonical char and word vocabularies survive registration
        assert sum(ref() is not None for ref in vocabularies) == 2
        # and the memo is O(distinct parameters), not O(plans)
        assert 2 <= _memo_entries(runtime) <= runtime.object_store.unique_parameter_count()
        for plan_id in plan_ids:
            runtime.unregister(plan_id)
        gc.collect()
        assert sum(ref() is not None for ref in vocabularies) == 0
        assert _memo_entries(runtime) == 0
    finally:
        runtime.shutdown()


def test_serving_leaves_model_identity_and_accounting_unchanged(family):
    """encode_model bytes, signatures and memory accounting ignore derived state."""

    def snapshot():
        return [
            (
                encode_model(generated.pipeline, generated.stats),
                [operator.signature() for operator in generated.pipeline.operators()],
                [operator.memory_bytes() for operator in generated.pipeline.operators()],
            )
            for generated in family.pipelines
        ]

    fresh_family = build_sentiment_family(
        n_pipelines=N_PLANS, n_char_versions=1, n_word_versions=1, seed=5
    )
    untouched = [
        encode_model(generated.pipeline, generated.stats) for generated in fresh_family.pipelines
    ]
    before = snapshot()
    runtime = PretzelRuntime(PretzelConfig())
    try:
        text = family.sample_inputs(1)[0]
        for generated in family.pipelines:
            plan_id = runtime.register(generated.pipeline, stats=generated.stats)
            runtime.predict(plan_id, text)
        # registration built the tables and the memos on the family's objects
        assert all(
            "_key_tables" in dictionary.__dict__ and "_parameter_memo" in dictionary.__dict__
            for dictionary in _dictionaries(family.pipelines[0].pipeline)
        )
        assert snapshot() == before
        assert [blob for blob, _signatures, _bytes in before] == untouched
    finally:
        runtime.shutdown()


def test_tree_walk_views_leave_model_identity_and_accounting_unchanged(ac_pipeline, ac_inputs):
    """The scalar tree walk's memoryviews are derived state like the key tables:
    serving builds them, and nothing that identifies or sizes the model moves."""
    from repro.operators.trees import DecisionTree

    def snapshot():
        return (
            encode_model(ac_pipeline, None),
            [operator.signature() for operator in ac_pipeline.operators()],
            [operator.memory_bytes() for operator in ac_pipeline.operators()],
        )

    def trees():
        for operator in ac_pipeline.operators():
            if isinstance(operator, DecisionTree):
                yield operator
            yield from getattr(operator, "trees", ())

    for tree in trees():
        tree.__dict__.pop("_node_view_cache", None)
    before = snapshot()
    with PretzelRuntime(PretzelConfig()) as runtime:
        plan_id = runtime.register(ac_pipeline)
        accounted = runtime.memory_bytes()
        for record in ac_inputs:
            runtime.predict(plan_id, record)
        assert runtime.memory_bytes() == accounted
    assert all("_node_view_cache" in tree.__dict__ for tree in trees())
    assert snapshot() == before


@pytest.mark.parametrize("aot", [True, False])
def test_key_tables_are_built_at_registration_only_under_aot(aot):
    family = build_sentiment_family(n_pipelines=1, n_char_versions=1, n_word_versions=1, seed=9)
    generated = family.pipelines[0]
    runtime = PretzelRuntime(PretzelConfig(enable_aot_compilation=aot))
    try:
        plan_id = runtime.register(generated.pipeline, stats=generated.stats)
        built = ["_key_tables" in d.__dict__ for d in _dictionaries(generated.pipeline)]
        assert built == [aot, aot]
        runtime.predict(plan_id, family.sample_inputs(1)[0])
        char, _word = _dictionaries(generated.pipeline)
        # the scalar char kernel always needs its table; scalar word n-grams
        # keep the per-gram loop and never build one on the prediction path
        assert "_key_tables" in char.__dict__
    finally:
        runtime.shutdown()
